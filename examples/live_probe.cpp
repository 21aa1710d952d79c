// Live probe: the production data path on real sockets, end to end, inside
// one process on loopback.
//
//   Pingmesh Controller  -- HTTP RESTful service serving pinglist XML
//        ^ GET /pinglist/<ip>            (behind an SLB VIP abstraction)
//   Pingmesh Agent state machine -- decides when to fetch and whom to probe
//        v
//   epoll TCP prober  ->  TCP probe responders   (fresh port per probe)
//
// The topology is a small virtual DC, but every byte here crosses a real
// kernel socket; latency percentiles printed at the end are real loopback
// RTTs measured exactly the way the agent measures production RTTs.
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "agent/agent.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "controller/service.h"
#include "net/reactor.h"
#include "net/tcp_probe.h"
#include "topology/topology.h"

int main() {
  using namespace pingmesh;
  using namespace std::chrono_literals;

  // --- the "data center": topology for the controller, responders for the
  // --- data plane. Every simulated server maps to a loopback port.
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  net::Reactor reactor;

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.intra_pod_interval = seconds(10);
  gcfg.intra_dc_interval = seconds(10);
  controller::PinglistGenerator gen(topo, gcfg);
  controller::ControllerHttpService controller_svc(reactor, net::SockAddr::loopback(0),
                                                   topo, gen);
  std::printf("controller: serving pinglists on 127.0.0.1:%u\n", controller_svc.port());

  // One responder stands in for each *pod* (8 servers share a ToR anyway);
  // a map routes a server IP to its pod's responder port.
  std::unordered_map<std::uint32_t, std::uint16_t> port_of_ip;
  std::vector<std::unique_ptr<net::TcpProbeServer>> responders;
  for (const topo::Pod& pod : topo.pods()) {
    responders.push_back(
        std::make_unique<net::TcpProbeServer>(reactor, net::SockAddr::loopback(0)));
    for (ServerId s : pod.servers) {
      port_of_ip[topo.server(s).ip.v] = responders.back()->port();
    }
  }
  std::printf("data plane: %zu probe responders (one per pod)\n", responders.size());

  // --- the agent of server 0, wired to the real HTTP fetch path.
  controller::SlbVip vip;
  vip.add_backend("controller-0");
  controller::HttpPinglistSource pinglist_source(
      reactor, vip, {net::SockAddr::loopback(controller_svc.port())});

  class NullUploader final : public agent::Uploader {
   public:
    bool upload(const agent::RecordColumns&) override { return true; }
  } uploader;

  const topo::Server& self = topo.servers()[0];
  agent::AgentConfig acfg;
  acfg.pinglist_refresh = minutes(5);
  agent::PingmeshAgent agent(self.name, self.ip, acfg, uploader);

  net::TcpProber prober(reactor);
  LatencySketch connect_hist;
  LatencySketch payload_hist;
  std::uint64_t launched = 0, done = 0, failed = 0;

  // Drive the agent on wall-clock time for ~3 seconds; accelerate its
  // virtual clock so 10s probe intervals elapse quickly (1 wall ms = 1
  // virtual s): the state machine only sees the virtual timestamps.
  auto wall_start = std::chrono::steady_clock::now();
  auto virtual_now = [&] {
    auto wall = std::chrono::steady_clock::now() - wall_start;
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wall).count() *
        kNanosPerSecond / 1000 * 100);
  };

  auto deadline = wall_start + 3s;
  while (std::chrono::steady_clock::now() < deadline) {
    SimTime now = virtual_now();
    agent::PingmeshAgent::TickActions actions = agent.tick(now);
    if (actions.fetch_pinglist) {
      agent.on_pinglist(pinglist_source.fetch(self.ip), now);
    }
    for (const agent::ProbeRequest& req : actions.probes) {
      auto it = port_of_ip.find(req.target.ip.v);
      if (it == port_of_ip.end()) continue;
      ++launched;
      int payload = req.target.kind == controller::ProbeKind::kTcpPayload
                        ? static_cast<int>(req.target.payload_bytes)
                        : 0;
      prober.probe(net::SockAddr::loopback(it->second), payload, 1000ms,
                   [&, req](const net::TcpProbeResult& r) {
                     ++done;
                     if (!r.connected) ++failed;
                     if (r.connected) connect_hist.record(r.connect_ns);
                     if (r.payload_ok) payload_hist.record(r.payload_ns);
                     agent::ProbeResult result;
                     result.success = r.connected;
                     result.rtt = r.connect_ns;
                     result.payload_success = r.payload_ok;
                     result.payload_rtt = r.payload_ns;
                     agent.on_probe_result(req, result, virtual_now());
                   });
    }
    reactor.run_once(5ms);
  }
  reactor.run_until([&] { return done == launched; },
                    std::chrono::steady_clock::now() + 2s);

  std::printf("\nagent %s probed %lu times (%lu failed), %zu targets from pinglist v%lu\n",
              self.name.c_str(), static_cast<unsigned long>(launched),
              static_cast<unsigned long>(failed), agent.target_count(),
              static_cast<unsigned long>(agent.pinglist_version()));
  std::printf("real loopback TCP connect RTT: P50 %s  P99 %s  (n=%lu)\n",
              format_latency_ns(connect_hist.p50()).c_str(),
              format_latency_ns(connect_hist.p99()).c_str(),
              static_cast<unsigned long>(connect_hist.count()));
  if (payload_hist.count() > 0) {
    std::printf("payload echo RTT (1000B):      P50 %s  P99 %s  (n=%lu)\n",
                format_latency_ns(payload_hist.p50()).c_str(),
                format_latency_ns(payload_hist.p99()).c_str(),
                static_cast<unsigned long>(payload_hist.count()));
  }

  agent::CounterSnapshot counters = agent.collect_counters(virtual_now());
  std::printf("agent counters (the PA path): probes=%lu successes=%lu drop_rate=%s\n",
              static_cast<unsigned long>(counters.probes),
              static_cast<unsigned long>(counters.successes),
              format_rate(counters.drop_rate()).c_str());
  return launched > 0 && connect_hist.count() > 0 ? 0 : 1;
}
