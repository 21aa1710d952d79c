// Figure 4 reproduction: network latency distributions of two data centers.
//
//   (a) inter-pod latency CDF of DC1 (throughput-intensive) vs DC2
//       (latency-sensitive Search);
//   (b) the high-percentile tail — paper: P99.9 = 23.35 ms / 11.07 ms,
//       P99.99 = 1397.63 ms / 105.84 ms;
//   (c) intra-pod vs inter-pod in DC1 — paper: P50 216 us vs 268 us,
//       P99 1.26 ms vs 1.34 ms;
//   (d) with vs without payload in DC1 — paper: P50 268 -> 326 us,
//       P99 1.34 -> 2.43 ms.
//
// Shape targets, not absolute matches: DC1 and DC2 are comparable below
// P90 but diverge hard at the extreme tail (busy non-realtime hosts stall);
// inter-pod sits tens of microseconds above intra-pod; payload pings cost a
// bit at P50 and more at P99.
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

struct DcHists {
  LatencySketch intra_pod;
  LatencySketch inter_pod;
  LatencySketch payload;           // payload echo RTT (inter-pod)
  LatencySketch inter_no_payload;  // connect RTT of payload-free probes
};

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("Figure 4: intra-DC latency distributions (DC1 vs DC2)");

  topo::Topology topo = topo::Topology::build(core::two_dc_specs(/*medium=*/true));
  netsim::SimNetwork net(topo, 20260704);
  core::apply_dc1_dc2_profiles(net);

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;  // Figure 4 is intra-DC
  gcfg.payload_every_kth = 4;  // 1 in 4 targets echoes kPayloadProbeBytes
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);

  std::vector<DcHists> dc(2);
  const int kRounds = 40;
  driver.run_dense(0, kRounds, minutes(1), [&](const core::FleetProbe& p) {
    if (!p.outcome.success || !p.dst.valid()) return;
    const topo::Server& src = topo.server(p.src);
    const topo::Server& dst = topo.server(p.dst);
    DcHists& h = dc[src.dc.value];
    if (src.pod == dst.pod) {
      h.intra_pod.record(p.outcome.rtt);
    } else {
      h.inter_pod.record(p.outcome.rtt);
      if (p.target->kind == controller::ProbeKind::kTcpPayload) {
        if (p.outcome.payload_success) h.payload.record(p.outcome.payload_rtt);
      } else {
        h.inter_no_payload.record(p.outcome.rtt);
      }
    }
  });

  std::printf("  probes fired: %lu (%d dense rounds, 2 medium DCs)\n",
              static_cast<unsigned long>(driver.probes_fired()), kRounds);

  // ---- (a) inter-pod CDF ---------------------------------------------------
  bench::heading("(a) inter-pod latency CDF");
  std::printf("  %-10s %14s %14s\n", "quantile", "DC1(US West)", "DC2(US Central)");
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    std::printf("  P%-9.4g %14s %14s\n", q * 100,
                format_latency_ns(dc[0].inter_pod.quantile(q)).c_str(),
                format_latency_ns(dc[1].inter_pod.quantile(q)).c_str());
  }
  double p90_ratio = static_cast<double>(dc[0].inter_pod.quantile(0.9)) /
                     static_cast<double>(dc[1].inter_pod.quantile(0.9));
  bench::compare_row("P90 ratio DC1/DC2 (comparable below P90)", "~1x",
                     std::to_string(p90_ratio).substr(0, 4) + "x");

  // ---- (b) the tail ---------------------------------------------------------
  bench::heading("(b) inter-pod latency at high percentile");
  bench::compare_row("DC1 P99.9", "23.35ms",
                     format_latency_ns(dc[0].inter_pod.p999()));
  bench::compare_row("DC2 P99.9", "11.07ms",
                     format_latency_ns(dc[1].inter_pod.p999()));
  const std::int64_t dc1_p9999 = dc[0].inter_pod.quantile(0.9999);
  const std::int64_t dc2_p9999 = dc[1].inter_pod.quantile(0.9999);
  bench::compare_row("DC1 P99.99", "1397.63ms", format_latency_ns(dc1_p9999));
  bench::compare_row("DC2 P99.99", "105.84ms", format_latency_ns(dc2_p9999));
  double tail_ratio = static_cast<double>(dc1_p9999) / static_cast<double>(dc2_p9999);
  bench::compare_row("P99.99 ratio DC1/DC2 (who wins)", "13.2x",
                     std::to_string(tail_ratio).substr(0, 5) + "x");

  // ---- (c) intra- vs inter-pod, DC1 -----------------------------------------
  bench::heading("(c) intra-pod vs inter-pod (DC1)");
  bench::compare_row("intra-pod P50", "216us", format_latency_ns(dc[0].intra_pod.p50()));
  bench::compare_row("inter-pod P50", "268us", format_latency_ns(dc[0].inter_pod.p50()));
  bench::compare_row("P50 delta (queuing, tens of us)", "52us",
                     format_latency_ns(dc[0].inter_pod.p50() - dc[0].intra_pod.p50()));
  bench::compare_row("intra-pod P99", "1.26ms", format_latency_ns(dc[0].intra_pod.p99()));
  bench::compare_row("inter-pod P99", "1.34ms", format_latency_ns(dc[0].inter_pod.p99()));

  // ---- (d) with vs without payload, DC1 --------------------------------------
  bench::heading("(d) latency with vs without payload (DC1, inter-pod)");
  bench::compare_row("no payload P50", "268us",
                     format_latency_ns(dc[0].inter_no_payload.p50()));
  bench::compare_row("payload P50", "326us", format_latency_ns(dc[0].payload.p50()));
  bench::compare_row("no payload P99", "1.34ms",
                     format_latency_ns(dc[0].inter_no_payload.p99()));
  bench::compare_row("payload P99", "2.43ms", format_latency_ns(dc[0].payload.p99()));

  // ---- shape assertions -------------------------------------------------------
  bench::heading("shape checks");
  bool tail_diverges = dc1_p9999 > 3 * dc2_p9999;
  bool inter_above_intra = dc[0].inter_pod.p50() > dc[0].intra_pod.p50();
  bool payload_costs = dc[0].payload.p50() > dc[0].inter_no_payload.p50() &&
                       dc[0].payload.p99() > dc[0].inter_no_payload.p99();
  bench::note(std::string("DC1 tail >> DC2 tail at P99.99: ") +
              (tail_diverges ? "yes" : "NO (shape mismatch)"));
  bench::note(std::string("inter-pod > intra-pod at P50:   ") +
              (inter_above_intra ? "yes" : "NO (shape mismatch)"));
  bench::note(std::string("payload > no-payload at P50/P99: ") +
              (payload_costs ? "yes" : "NO (shape mismatch)"));
  return (tail_diverges && inter_above_intra && payload_costs) ? 0 : 1;
}
