// §6.4 reproduction: the documented limitations of Pingmesh, as negative
// results.
//
// 1. Single-packet RTT blindness. "A bug introduced in our TCP parameter
//    configuration software rewrote the TCP parameters to their default
//    value. As a result ... the initial congestion window (ICW) reduced
//    from 16 to 4. For long distance TCP sessions, the session finish time
//    increased by several hundreds of milliseconds if the sessions need
//    multiple round trips. Pingmesh did not catch this because it only
//    measures single packet RTT."
//    We regress ICW 16 -> 4 on cross-DC transfers and show that (i)
//    application-perceived session finish time jumps by hundreds of
//    milliseconds while (ii) every Pingmesh metric — connect RTT P50/P99
//    and drop rate — is statistically unchanged.
//
// 2. Tier-not-switch localization: Pingmesh alone identifies the tier; the
//    exact switch needs the traceroute combination (quantified here as the
//    number of spine candidates before/after the traceroute step).
#include <cstdio>

#include "analysis/droprate.h"
#include "analysis/silentdrop.h"
#include "bench_util.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

struct IcwResult {
  double session_p50_ms = 0;
  double probe_p50_us = 0;
  double probe_p99_us = 0;
  double drop_rate = 0;
  double mean_round_trips = 0;
};

IcwResult run_icw(const topo::Topology& topo, int icw, std::uint64_t seed) {
  netsim::SimNetwork net(topo, seed);
  netsim::WanProfile wan;
  wan.propagation_ms_oneway = 75.0;  // long-distance, the paper's trigger
  net.set_wan_profile(DcId{0}, DcId{1}, wan);

  ServerId a = topo.dcs()[0].servers[0];
  ServerId b = topo.dcs()[1].servers[0];

  IcwResult out;
  // Application view: 256 KB cross-DC transfers.
  std::vector<double> finish_ms;
  double rtts = 0;
  for (int i = 0; i < 300; ++i) {
    netsim::SessionSpec spec;
    spec.total_bytes = 256 * 1024;
    spec.icw_segments = icw;
    auto session = net.tcp_session(a, b, static_cast<std::uint16_t>(32768 + i), 443, spec, 0);
    if (!session.success) continue;
    finish_ms.push_back(to_millis(session.finish_time));
    rtts += session.round_trips;
  }
  out.session_p50_ms = exact_quantile(finish_ms, 0.5);
  out.mean_round_trips = rtts / static_cast<double>(finish_ms.size());

  // Pingmesh view: single-packet connect probes between the same DCs.
  LatencySketch hist;
  std::uint64_t ok = 0, sig = 0;
  for (int i = 0; i < 30000; ++i) {
    auto probe = net.tcp_probe(a, b, static_cast<std::uint16_t>(32768 + (i % 28000)),
                               33100, {}, 0);
    if (!probe.success) continue;
    ++ok;
    if (probe.syn_transmissions > 1) {
      ++sig;
    } else {
      hist.record(probe.rtt);
    }
  }
  out.probe_p50_us = to_micros(hist.p50());
  out.probe_p99_us = to_micros(hist.p99());
  out.drop_rate = ok ? static_cast<double>(sig) / static_cast<double>(ok) : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("Paper section 6.4: what Pingmesh cannot see (negative results)");

  topo::Topology topo = topo::Topology::build(core::two_dc_specs(/*medium=*/false));

  bench::heading("1. ICW regression 16 -> 4 on long-distance sessions");
  IcwResult healthy = run_icw(topo, 16, 64001);
  IcwResult regressed = run_icw(topo, 4, 64001);

  std::printf("  %-34s %14s %14s\n", "", "ICW=16", "ICW=4 (bug)");
  std::printf("  %-34s %12.0fms %12.0fms\n", "256KB session finish P50",
              healthy.session_p50_ms, regressed.session_p50_ms);
  std::printf("  %-34s %14.1f %14.1f\n", "data round trips per session",
              healthy.mean_round_trips, regressed.mean_round_trips);
  std::printf("  %-34s %12.0fus %12.0fus\n", "Pingmesh probe RTT P50",
              healthy.probe_p50_us, regressed.probe_p50_us);
  std::printf("  %-34s %12.0fus %12.0fus\n", "Pingmesh probe RTT P99",
              healthy.probe_p99_us, regressed.probe_p99_us);
  std::printf("  %-34s %14s %14s\n", "Pingmesh drop rate",
              format_rate(healthy.drop_rate).c_str(),
              format_rate(regressed.drop_rate).c_str());

  double app_impact_ms = regressed.session_p50_ms - healthy.session_p50_ms;
  double probe_shift =
      std::abs(regressed.probe_p50_us - healthy.probe_p50_us) / healthy.probe_p50_us;
  bench::compare_row("application slowdown", "several hundred ms",
                     std::to_string(static_cast<int>(app_impact_ms)) + "ms");
  bench::compare_row("Pingmesh P50 shift (blind spot)", "~0",
                     bench::pct(probe_shift));

  bench::heading("2. tier vs switch localization");
  netsim::SimNetwork net(topo, 777);
  SwitchId bad = topo.dcs()[0].spines[1];
  net.faults().add_silent_random_drop(bad, 0.02);
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);
  agent::RecordColumns records;
  driver.run_dense(0, 25, seconds(10), [&](const core::FleetProbe& p) {
    records.push_back(bench::to_record(topo, p));
  });
  auto report = analysis::localize_silent_drops(records, topo, net, 0);
  std::size_t tier_candidates = topo.dcs()[0].spines.size();
  std::printf("  passive Pingmesh data narrows to: tier=%s (%zu candidate switches)\n",
              analysis::suspect_tier_name(report.tier), tier_candidates);
  std::printf("  + TCP traceroute narrows to:      %s (1 switch)\n",
              report.culprit.valid() ? topo.sw(report.culprit).name.c_str() : "(none)");

  bench::heading("shape checks");
  bool app_hurts = app_impact_ms > 200;
  bool pingmesh_blind = probe_shift < 0.05 &&
                        std::abs(regressed.drop_rate - healthy.drop_rate) < 5e-4;
  bool traceroute_needed = report.tier == analysis::SuspectTier::kSpine &&
                           report.culprit == bad;
  bench::note(std::string("sessions slow by 100s of ms:   ") + (app_hurts ? "yes" : "NO"));
  bench::note(std::string("Pingmesh metrics unchanged:    ") + (pingmesh_blind ? "yes" : "NO"));
  bench::note(std::string("traceroute completes the hunt: ") +
              (traceroute_needed ? "yes" : "NO"));
  return (app_hurts && pingmesh_blind && traceroute_needed) ? 0 : 1;
}
