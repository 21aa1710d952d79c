// live_probe: the real-socket probe path (paper §3.4, Fig. 3).
//
// A PingmeshAgent fetches its pinglist over HTTP from a ControllerHttpService
// (the set-up's warm-up), then drives net::TcpProber against in-process
// TcpProbeServer responders on loopback. Its virtual clock runs at a fixed
// multiple of wall time, chosen so the pinglist's probe schedule offers
// kOfferedRate probes per wall-second; every 4th target carries a 1000-byte
// payload (the generator's default). Traffic crosses loopback, not a link.
//
//   phase A  open loop, agent-driven at kOfferedRate  -> CPU per probe
//   phase B  closed loop, kInFlight probes outstanding -> probes per second
//   phase C  one probe at a time                       -> unloaded connect RTT
//
// The three phases alternate over kRounds rounds, and each figure pools all
// rounds, so a slow spell of the host lands on all three and on no single
// one. The RTT tail is the p90: with one probe in flight the p99 follows
// the host's load more than the code (run-to-run spread 0.25-0.5 over ten
// seeds on a 4-vCPU KVM guest, against 0.06-0.2 for the p90).
//
// The open-loop RTT is printed too, but not reported as a metric: the
// reactor sleeps between probes, and a VM's virtual-CPU wake-up
// time dominates it (run-to-run spread about 35 %).
//
// Responders run on a second thread of the same process, so CPU per probe
// counts both ends of each connection. In phases B and C both threads poll
// their reactors without sleeping, so a VM's virtual-CPU wake-up time
// stays out of the RTT and the throughput. The benchmark's own bookkeeping
// is of fixed size (histograms, counters, the set of probes in flight), so
// peak RSS is the program's, whatever the probe count.
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agent/agent.h"
#include "controller/generator.h"
#include "controller/service.h"
#include "controller/slb.h"
#include "net/reactor.h"
#include "net/tcp_probe.h"
#include "topology/topology.h"
#include "workloads.h"

namespace pmbench {
namespace {

using namespace pingmesh;  // NOLINT
using namespace std::chrono_literals;

constexpr double kOfferedRate = 2000;  // probes per wall-second in phase A
constexpr int kInFlight = 4;           // closed-loop probes outstanding in phase B
constexpr int kResponders = 32;
constexpr double kOpenShare = 0.4;     // share of each round spent in phase A
constexpr double kLagLimitUs = 5000;   // generator lag p99 beyond this: run invalid
constexpr int kRounds = 10;            // phases A, B and C alternate this many times
constexpr double kTailPercentile = 90; // highest percentile the RTT tail reports
constexpr auto kProbeTimeout = 1000ms;

class CountingUploader final : public agent::Uploader {
 public:
  bool upload(const agent::RecordColumns& batch) override {
    records += batch.size();
    return true;
  }
  std::uint64_t records = 0;
};

/// Everything the agent talks to. The responders and the controller run on
/// their own reactor thread, as the remote side would; the agent, its
/// prober and its pinglist fetches use `reactor` on the calling thread.
struct Rig {
  Rig() = default;
  ~Rig() { stop_servers(); }
  /// Stop and join the responder/controller thread; idempotent.
  void stop_servers() {
    stop.store(true);
    if (server_thread.joinable()) server_thread.join();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  topo::Topology topo;
  net::Reactor server_reactor;
  std::vector<std::unique_ptr<net::TcpProbeServer>> responders;
  std::unique_ptr<controller::PinglistGenerator> generator;
  std::unique_ptr<controller::ControllerHttpService> controller;
  net::Reactor reactor;
  controller::SlbVip vip;
  std::unique_ptr<controller::HttpPinglistSource> source;
  CountingUploader uploader;
  std::unique_ptr<agent::PingmeshAgent> agent;
  net::TcpProber prober{reactor};
  std::unordered_map<std::uint32_t, net::SockAddr> responder_of;  ///< target ip -> responder
  IpAddr self_ip;
  double speedup = 1;  ///< virtual nanoseconds per wall nanosecond
  std::atomic<bool> stop{false};
  std::atomic<bool> spin{false};  ///< responders poll without sleeping (phases B, C)
  std::thread server_thread;  // last: joined before anything it uses dies
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed, bool smoke) {
  auto rig = std::make_unique<Rig>();
  rig->topo = topo::Topology::build({smoke ? topo::small_dc_spec("DC1", "US West")
                                           : topo::large_dc_spec("DC1", "US West")});
  for (int i = 0; i < kResponders; ++i) {
    rig->responders.push_back(
        std::make_unique<net::TcpProbeServer>(rig->server_reactor, net::SockAddr::loopback(0)));
  }
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.intra_pod_interval = seconds(10);
  gcfg.intra_dc_interval = seconds(10);
  rig->generator = std::make_unique<controller::PinglistGenerator>(rig->topo, gcfg);
  rig->controller = std::make_unique<controller::ControllerHttpService>(
      rig->server_reactor, net::SockAddr::loopback(0), rig->topo, *rig->generator);
  Rig* r = rig.get();
  rig->server_thread = std::thread([r] {
    try {
      serve_until(r->server_reactor, r->stop, r->spin);
    } catch (const std::exception& e) {
      // The agent's probes then fail or time out, which the checks count.
      std::fprintf(stderr, "pmbench: responder thread: %s\n", e.what());
    }
  });
  rig->vip.add_backend("controller-0");
  rig->source = std::make_unique<controller::HttpPinglistSource>(
      rig->reactor, rig->vip,
      std::vector<net::SockAddr>{net::SockAddr::loopback(rig->controller->port())});

  const topo::Server& self = rig->topo.servers()[seed % rig->topo.server_count()];
  rig->self_ip = self.ip;
  agent::AgentConfig acfg;
  acfg.pinglist_refresh = days(365);  // one fetch: the warm-up round
  rig->agent = std::make_unique<agent::PingmeshAgent>(self.name, self.ip, acfg, rig->uploader);

  // Warm-up: the agent's first pinglist round, over HTTP.
  agent::PingmeshAgent::TickActions actions = rig->agent->tick(0);
  if (!actions.fetch_pinglist) throw std::runtime_error("agent did not ask for a pinglist");
  controller::FetchResult fetched = rig->source->fetch(self.ip);
  if (fetched.status != controller::FetchStatus::kOk) {
    throw std::runtime_error("pinglist fetch over HTTP failed");
  }
  rig->agent->on_pinglist(fetched, 0);

  double per_virtual_s = 0;
  for (const controller::PingTarget& t : fetched.pinglist->targets) {
    per_virtual_s += 1.0 / to_seconds(std::max(t.interval, agent::kHardMinProbeInterval));
    const std::size_t r = (t.ip.v ^ seed) % rig->responders.size();
    rig->responder_of[t.ip.v] = net::SockAddr::loopback(rig->responders[r]->port());
  }
  rig->speedup = kOfferedRate / per_virtual_s;
  return rig;
}

/// What the benchmark keeps per probe: nothing that grows with the probe
/// count. A probe's id stays in `pending` until its callback fires, so a
/// second or missing callback is caught without a per-probe log.
struct ProbeLog {
  std::unordered_set<std::uint64_t> pending;
  std::uint64_t next_id = 0;
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       ///< local errors and timeouts
  std::uint64_t extra_calls = 0;  ///< callbacks for a probe that had already ended
  Histogram* rtt_us = nullptr;    ///< where connect RTTs go in the current phase
  std::size_t inflight_max = 0;

  std::uint64_t begin() {
    pending.insert(next_id);
    ++launched;
    return next_id++;
  }
  void end(std::uint64_t id, const net::TcpProbeResult& r) {
    if (pending.erase(id) == 0) ++extra_calls;
    ++completed;
    if (!r.connected || r.timed_out || r.error_errno != 0) ++failed;
    if (r.connected && rtt_us != nullptr) rtt_us->add(static_cast<double>(r.connect_ns) / 1e3);
  }
};

/// Phase A's totals, summed over the rounds that ran it.
struct OpenResult {
  double wall_s = 0;
  double cpu_s = 0;
  double agent_ns = 0;  ///< time inside PingmeshAgent tick/on_probe_result
  std::uint64_t completed = 0;
  SimTime virtual_end = 0;  ///< the agent's clock where the last round stopped
  Histogram lag_us;
};

/// Phase A: the agent decides what to probe; the loop wakes every
/// millisecond and launches whatever the agent's schedule says is due. The
/// agent's clock resumes where the previous round left it.
void open_loop(Rig& rig, ProbeLog& log, double seconds, OpenResult& res) {
  const auto start = SteadyClock::now();
  const auto deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                                    std::chrono::duration<double>(seconds));
  const SimTime base = res.virtual_end;
  auto virtual_now = [&] {
    const double wall_ns =
        std::chrono::duration<double, std::nano>(SteadyClock::now() - start).count();
    return base + static_cast<SimTime>(wall_ns * rig.speedup);
  };
  const double cpu0 = process_cpu_s();
  const std::uint64_t completed0 = log.completed;
  agent::PingmeshAgent::TickActions actions;
  auto planned = start;
  while (SteadyClock::now() < deadline) {
    const auto woke = SteadyClock::now();
    res.lag_us.add(std::chrono::duration<double, std::micro>(woke - planned).count());
    planned = woke + 1ms;
    const auto a0 = SteadyClock::now();
    rig.agent->tick(virtual_now(), actions);
    res.agent_ns += std::chrono::duration<double, std::nano>(SteadyClock::now() - a0).count();
    if (actions.fetch_pinglist) {
      // A refresh the agent asks for goes over HTTP, as in set-up.
      rig.agent->on_pinglist(rig.source->fetch(rig.self_ip), virtual_now());
    }
    for (const agent::ProbeRequest& req : actions.probes) {
      auto it = rig.responder_of.find(req.target.ip.v);
      if (it == rig.responder_of.end()) continue;
      const int payload = req.target.kind == controller::ProbeKind::kTcpPayload
                              ? static_cast<int>(req.target.payload_bytes)
                              : 0;
      const std::uint64_t id = log.begin();
      rig.prober.probe(it->second, payload, kProbeTimeout,
                       [&rig, &log, &res, &virtual_now, req, id](const net::TcpProbeResult& r) {
                         log.end(id, r);
                         agent::ProbeResult pr;
                         pr.success = r.connected;
                         pr.rtt = r.connect_ns;
                         pr.payload_success = r.payload_ok;
                         pr.payload_rtt = r.payload_ns;
                         const auto a0 = SteadyClock::now();
                         rig.agent->on_probe_result(req, pr, virtual_now());
                         res.agent_ns +=
                             std::chrono::duration<double, std::nano>(SteadyClock::now() - a0)
                                 .count();
                       });
    }
    log.inflight_max = std::max(log.inflight_max, rig.prober.inflight());
    rig.reactor.run_once(1ms);
  }
  rig.reactor.run_until([&] { return rig.prober.inflight() == 0; },
                        SteadyClock::now() + 3s);
  res.virtual_end = virtual_now();
  res.wall_s += std::chrono::duration<double>(SteadyClock::now() - start).count();
  res.cpu_s += process_cpu_s() - cpu0;
  res.completed += log.completed - completed0;
}

/// A closed-loop phase's totals, summed over the rounds that ran it.
struct ClosedResult {
  double wall_s = 0;
  std::uint64_t probes = 0;
};

/// Closed loop: `in_flight` probes outstanding for `seconds`, or for
/// `limit` probes when non-zero, added to `res`. With `spans`, each probe
/// gets a span.
void closed_loop(Rig& rig, ProbeLog& log, int in_flight, double seconds, std::uint64_t limit,
                 ClosedResult& res, SpanRecorder* spans = nullptr) {
  std::vector<net::SockAddr> targets;
  for (const auto& r : rig.responders) targets.push_back(net::SockAddr::loopback(r->port()));
  const int root = spans != nullptr ? spans->open("closed_loop") : -1;
  const double t0 = wall_s();
  std::uint64_t started = 0;
  bool stop = false;
  std::function<void()> next = [&] {
    if (stop) return;
    if (limit > 0 ? started >= limit : wall_s() - t0 >= seconds) {
      stop = true;
      return;
    }
    const std::uint64_t n = started++;
    const std::uint64_t id = log.begin();
    const int span = spans != nullptr ? spans->open("net.probe", root) : -1;
    rig.prober.probe(targets[n % targets.size()], n % 4 == 3 ? 1000 : 0, kProbeTimeout,
                     [&log, &next, spans, span, id](const net::TcpProbeResult& r) {
                       if (spans != nullptr) spans->close(span);
                       log.end(id, r);
                       next();
                     });
  };
  for (int i = 0; i < in_flight; ++i) next();
  const auto deadline = SteadyClock::now() + std::chrono::seconds(120);
  while (!(stop && rig.prober.inflight() == 0) && SteadyClock::now() < deadline) {
    rig.reactor.run_once(0ms);
  }
  if (spans != nullptr) spans->close(root);
  res.wall_s += wall_s() - t0;
  res.probes += started;
}

}  // namespace

void run_live_probe(const Options& opt, Report& report, Values& v) {
  std::vector<double> setups;
  std::unique_ptr<Rig> rig =
      repeated_setup([&] { return build_rig(opt.seed, opt.smoke); }, &setups);

  ProbeLog log;
  Histogram open_rtt_us;  // phase A
  Histogram rtt_us;       // phase C
  OpenResult a;
  ClosedResult b;
  const std::uint64_t agent_launched0 = rig->agent->probes_launched();
  double traced_wall = 0;
  if (!opt.trace) {
    const double round = opt.seconds / kRounds;
    const double rest = round * (1 - kOpenShare);
    for (int r = 0; r < kRounds; ++r) {
      log.rtt_us = &open_rtt_us;
      open_loop(*rig, log, round * kOpenShare, a);
      log.rtt_us = nullptr;
      rig->spin.store(true);
      closed_loop(*rig, log, kInFlight, rest / 2, 0, b);
      ClosedResult c;
      log.rtt_us = &rtt_us;
      closed_loop(*rig, log, 1, rest / 2, 0, c);
      log.rtt_us = nullptr;
      rig->spin.store(false);
    }
  } else {
    // Phase A, then phase B untraced and again, for the same probe count,
    // with spans: the difference is the tracing overhead.
    open_loop(*rig, log, opt.seconds * kOpenShare, a);
    const double rest = opt.seconds * (1 - kOpenShare);
    rig->spin.store(true);
    closed_loop(*rig, log, kInFlight, rest / 2, 0, b);
    SpanRecorder spans;
    ClosedResult traced;
    closed_loop(*rig, log, kInFlight, 0, b.probes, traced, &spans);
    traced_wall = traced.wall_s;
    std::filesystem::create_directories(opt.trace_dir);
    const std::string path =
        opt.trace_dir + "/live_probe-seed" + std::to_string(opt.seed) + ".tsv";
    report.check(spans.write(path), "spans written to " + path);
    // Probe spans overlap kInFlight-fold; what they leave uncovered is time
    // the reactor spent on neither a probe nor waiting for one.
    const double root_ns = spans.total_ns("closed_loop");
    v["trace.unexplained_frac"] =
        root_ns > 0 ? std::max(0.0, 1.0 - spans.total_ns("net.probe") / kInFlight / root_ns) : 0;
  }
  const std::uint64_t open_completed = a.completed;
  const std::uint64_t agent_launched = rig->agent->probes_launched() - agent_launched0;
  v["peak_rss_mib"] = peak_rss_mib();
  // The controller's own count of pinglists it served, read once its
  // thread has stopped.
  rig->stop_servers();
  const std::uint64_t pinglists_served = rig->controller->requests_served();

  // ---- output checks ----------------------------------------------------
  const std::uint64_t not_once = log.extra_calls + log.pending.size();
  report.check(not_once == 0, "every probe callback fired exactly once");
  report.check(log.failed == 0, "no probe failed locally or timed out");
  report.check(agent_launched == open_completed, "agent launched every probe the prober ran");
  report.check(rig->agent->records_uploaded() + rig->agent->buffered_records() +
                       rig->agent->records_discarded() ==
                   rig->agent->probes_launched(),
               "agent ledger: launched == uploaded + buffered + discarded");
  report.add_attempted(log.launched);
  report.add_failed(log.failed + not_once);

  const double lag_p99 = a.lag_us.quantile(0.99);
  report.check(lag_p99 <= kLagLimitUs, "probe generator kept its schedule (lag p99 " +
                                           std::to_string(static_cast<int>(lag_p99)) + " us)");
  const double offered = static_cast<double>(open_completed) / a.wall_s;
  report.info("probe_rate_offered", offered, "1/s", "open loop, agent-driven");

  if (!opt.trace) {
    const Tail t = rtt_us.tail(kTailPercentile);
    v["throughput_per_s"] = static_cast<double>(b.probes) / b.wall_s;
    v["latency_p50_us"] = rtt_us.median();
    v["latency_tail_us"] = t.value;
    v["cpu_us_per_op"] =
        open_completed > 0 ? a.cpu_s * 1e6 / static_cast<double>(open_completed) : 0;
    v["setup_s"] = median(setups);
    report.info("probe_cpu_us", v["cpu_us_per_op"], "us", "open loop");
    report.info("probe_rtt_p50_us", v["latency_p50_us"], "us", "one probe in flight");
    report.info("probe_rtt_p99_us", rtt_us.quantile(0.99), "us");
    char note[160];
    std::snprintf(note, sizeof(note), "p%g of %zu probes, %zu beyond", t.percentile, t.samples,
                  t.beyond);
    report.info("probe_rtt_tail_us", t.value, "us", note);
    report.info("open_loop_rtt_p50_us", open_rtt_us.median(), "us",
                "includes the reactor's wake-up from its 1 ms sleep");
    report.info("open_loop_rtt_p99_us", open_rtt_us.quantile(0.99), "us");
    report.info("closed_loop_probes_per_s", v["throughput_per_s"], "1/s",
                std::to_string(kInFlight) + " in flight");
    report.info("setup_s", v["setup_s"], "s", "median of " + std::to_string(setups.size()));
    report.info("peak_rss_mib", v["peak_rss_mib"], "MiB");
    report.info("gen_lag_p99_us", lag_p99, "us");
    return;
  }

  v["agent.tick_ns_per_probe"] =
      open_completed > 0 ? a.agent_ns / static_cast<double>(open_completed) : 0;
  if (rig->agent->uploads_ok() > 0) {
    v["agent.records_per_upload"] = static_cast<double>(rig->agent->records_uploaded()) /
                                    static_cast<double>(rig->agent->uploads_ok());
  }
  v["controller.fetches"] = static_cast<double>(pinglists_served);
  v["net.inflight_max"] = static_cast<double>(log.inflight_max);
  v["gen.lag_p99_us"] = lag_p99;
  v["trace.overhead_s"] = traced_wall - b.wall_s;
}

}  // namespace pmbench
