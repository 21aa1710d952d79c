// §6.2 "QoS monitoring" reproduction.
//
// "After Pingmesh was deployed, network QoS was introduced into our data
// center which differentiates high priority and low priority packets based
// on DSCP. ... we extended the Pingmesh Generator to generate pinglists for
// both high and low priority classes" (the agent listens on an extra TCP
// port for the low class).
//
// The point of monitoring both classes: when the network gets congested,
// the low-priority class degrades first and hardest, and only a per-class
// mesh can see that. This harness runs the dual-class mesh on a calm
// network and under spine congestion and reports per-class latency.
#include <cstdio>

#include "bench_util.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

struct ClassStats {
  LatencySketch high;
  LatencySketch low;
};

ClassStats run_mesh(const topo::Topology& topo, bool congested, std::uint64_t seed) {
  netsim::SimNetwork net(topo, seed);
  if (congested) {
    for (SwitchId spine : topo.dcs()[0].spines) {
      net.faults().add_congestion(spine, /*queue_scale=*/6.0, /*drop_prob=*/0.0);
    }
  }
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.enable_qos = true;  // duplicate every target on the low-priority class
  gcfg.payload_every_kth = 0;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);

  ClassStats stats;
  driver.run_dense(0, 15, seconds(10), [&](const core::FleetProbe& p) {
    if (!p.outcome.success || p.outcome.syn_transmissions > 1 || !p.dst.valid()) return;
    const topo::Server& src = topo.server(p.src);
    const topo::Server& dst = topo.server(p.dst);
    if (src.podset == dst.podset) return;  // spine-crossing traffic only
    if (p.target->qos == controller::QosClass::kLow) {
      stats.low.record(p.outcome.rtt);
    } else {
      stats.high.record(p.outcome.rtt);
    }
  });
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("QoS monitoring (paper section 6.2): dual-class pinglists");

  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  ClassStats calm = run_mesh(topo, false, 621);
  ClassStats congested = run_mesh(topo, true, 622);

  std::printf("  cross-podset probes per class: %lu high / %lu low\n\n",
              static_cast<unsigned long>(calm.high.count()),
              static_cast<unsigned long>(calm.low.count()));
  std::printf("  %-26s %12s %12s\n", "", "high class", "low class");
  std::printf("  %-26s %12s %12s\n", "calm      P50",
              format_latency_ns(calm.high.p50()).c_str(),
              format_latency_ns(calm.low.p50()).c_str());
  std::printf("  %-26s %12s %12s\n", "calm      P99",
              format_latency_ns(calm.high.p99()).c_str(),
              format_latency_ns(calm.low.p99()).c_str());
  std::printf("  %-26s %12s %12s\n", "congested P50",
              format_latency_ns(congested.high.p50()).c_str(),
              format_latency_ns(congested.low.p50()).c_str());
  std::printf("  %-26s %12s %12s\n", "congested P99",
              format_latency_ns(congested.high.p99()).c_str(),
              format_latency_ns(congested.low.p99()).c_str());

  double high_degradation = static_cast<double>(congested.high.p99()) /
                            static_cast<double>(calm.high.p99());
  double low_degradation = static_cast<double>(congested.low.p99()) /
                           static_cast<double>(calm.low.p99());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "high %.1fx vs low %.1fx", high_degradation,
                low_degradation);
  bench::compare_row("P99 degradation under congestion", "low class suffers more", buf);

  bench::heading("shape checks");
  bool classes_flow = calm.high.count() > 1000 && calm.low.count() > 1000;
  bool low_hit_harder = low_degradation > 1.5 * high_degradation;
  bool calm_similar = calm.low.p50() < 3 * calm.high.p50();
  bench::note(std::string("both classes measured:              ") +
              (classes_flow ? "yes" : "NO"));
  bench::note(std::string("low class degrades first/hardest:   ") +
              (low_hit_harder ? "yes" : "NO"));
  bench::note(std::string("classes comparable when calm:       ") +
              (calm_similar ? "yes" : "NO"));
  return (classes_flow && low_hit_harder && calm_similar) ? 0 : 1;
}
