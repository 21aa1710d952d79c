// Ablations of Pingmesh design choices the paper argues for.
//
//  A. Full participation vs sampled probers (§6.1: "Using only a small
//     number of selected servers for latency measurement limits the
//     coverage") — measure black-hole detection recall when only 1/k of
//     servers probe.
//  B. Fresh source port per probe vs a fixed port (§3.4.1: "to explore the
//     multi-path nature of the network as much as possible") — measure
//     spine path coverage of one server pair, and detectability of a
//     five-tuple black-hole.
//  C. Alert threshold sensitivity (§4.3: drop rate > 1e-3, P99 > 5 ms) —
//     false positives on a healthy fleet vs detection of a real incident
//     across candidate thresholds.
//
// Exits 1 when one of the shape checks at the end fails.
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "agent/counters.h"
#include "analysis/blackhole.h"
#include "bench_util.h"
#include "common/rng.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

controller::GeneratorConfig fleet_cfg() {
  controller::GeneratorConfig cfg;
  cfg.enable_inter_dc = false;
  cfg.payload_every_kth = 0;
  return cfg;
}

// --- Ablation A ------------------------------------------------------------

struct ParticipationResult {
  int full_hits = 0;     ///< seeded ToRs found with every server probing
  int sampled_hits = 0;  ///< ... with 1 in 64 probing
};

ParticipationResult ablation_participation() {
  ParticipationResult result;
  bench::heading("A. full participation vs sampled probers (black-hole recall)");
  std::printf("  %-22s %10s %12s\n", "probers", "recall", "black pairs seen");
  for (int sample : {1, 4, 16, 64}) {
    topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
    netsim::SimNetwork net(topo, 900 + static_cast<std::uint64_t>(sample));
    Rng rng(1234);
    std::set<std::uint32_t> seeded;
    while (seeded.size() < 6) {
      const topo::Pod& pod =
          topo.pods()[rng.uniform_u32(static_cast<std::uint32_t>(topo.pods().size()))];
      if (seeded.insert(pod.tor.value).second) {
        net.faults().add_blackhole(pod.tor, netsim::BlackholeMode::kSrcDstPair, 0.08, 0,
                                   netsim::FaultInjector::kForever, rng.next_u64());
      }
    }

    controller::PinglistGenerator gen(topo, fleet_cfg());
    core::FleetProbeDriver driver(topo, net, gen);
    agent::RecordColumns records;
    driver.run_dense(0, 6, seconds(10), [&](const core::FleetProbe& p) {
      if (p.src.value % static_cast<std::uint32_t>(sample) != 0) return;  // sampling
      records.push_back(bench::to_record(topo, p));
    });

    analysis::BlackholeReport report = analysis::detect_blackholes(records, topo);
    int hits = 0;
    std::uint64_t black_seen = 0;
    for (const auto& s : report.all_scores) black_seen += s.pairs_black;
    for (const auto& c : report.candidates) {
      if (seeded.contains(c.tor.value)) ++hits;
    }
    if (sample == 1) result.full_hits = hits;
    if (sample == 64) result.sampled_hits = hits;
    char label[64];
    std::snprintf(label, sizeof(label), "1 in %d servers", sample);
    std::printf("  %-22s %7d/6 %12lu\n", label, hits,
                static_cast<unsigned long>(black_seen));
  }
  bench::note("paper's position: let all servers participate — recall collapses with sampling");
  return result;
}

// --- Ablation B ------------------------------------------------------------

struct SourcePortResult {
  std::size_t fresh_spines = 0;
  std::size_t fixed_spines = 0;
  int fresh_detected = 0;  ///< pairs with repeated failures, fresh ports
  int fixed_detected = 0;  ///< ... fixed port
};

SourcePortResult ablation_source_ports() {
  bench::heading("B. fresh source port per probe vs fixed port");
  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 950);
  ServerId a = topo.podsets()[0].pods.front().value == 0
                   ? topo.pods()[0].servers[0]
                   : topo.pods()[0].servers[0];
  ServerId b =
      topo.pod(topo.podsets()[1].pods[0]).servers[0];  // cross-podset pair

  auto spine_of = [&](std::uint16_t port) {
    FiveTuple t{topo.server(a).ip, topo.server(b).ip, port, 33100, 6};
    netsim::Path path = net.router().resolve(t);
    for (const auto& hop : path.hops) {
      if (topo.sw(hop.sw).kind == topo::SwitchKind::kSpine) return hop.sw.value;
    }
    return 0xffffffffu;
  };

  std::set<std::uint32_t> fresh_spines, fixed_spines;
  for (int i = 0; i < 128; ++i) {
    fresh_spines.insert(spine_of(static_cast<std::uint16_t>(32768 + i)));
    fixed_spines.insert(spine_of(40000));
  }
  std::printf("  spines exercised by one pair over 128 probes: fresh ports %zu/8, fixed port %zu/8\n",
              fresh_spines.size(), fixed_spines.size());

  // Five-tuple black-hole detectability: what fraction of pairs crossing
  // the bad ToR ever observe a failure?
  SwitchId bad_tor = topo.pods()[3].tor;
  net.faults().add_blackhole(bad_tor, netsim::BlackholeMode::kFiveTuple, 0.25);
  controller::PinglistGenerator gen(topo, fleet_cfg());
  auto count_affected = [&](bool fresh_ports) {
    core::FleetProbeDriver driver(topo, net, gen);
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> failures;
    int rounds = 8;
    // Fixed-port mode: overwrite the tuple by re-probing with a constant
    // port through the simulator directly.
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs_crossing;
    driver.run_dense(0, rounds, seconds(10), [&](const core::FleetProbe& p) {
      if (!p.dst.valid()) return;
      const topo::Server& src = topo.server(p.src);
      const topo::Server& dst = topo.server(p.dst);
      if (src.tor != bad_tor && dst.tor != bad_tor) return;
      auto key = std::make_pair(p.src.value, p.dst.value);
      pairs_crossing.insert(key);
      netsim::ProbeOutcome out =
          fresh_ports ? p.outcome
                      : net.tcp_probe(p.src, p.dst, 40000, 33100, {}, p.time);
      if (!out.success) ++failures[key];
    });
    int detected = 0;
    for (const auto& [key, fails] : failures) {
      if (fails >= 2) ++detected;
    }
    return std::make_pair(detected, static_cast<int>(pairs_crossing.size()));
  };
  auto [fresh_detected, fresh_total] = count_affected(true);
  auto [fixed_detected, fixed_total] = count_affected(false);
  std::printf("  five-tuple black-hole: pairs with repeated failures — fresh ports %d/%d, fixed port %d/%d\n",
              fresh_detected, fresh_total, fixed_detected, fixed_total);
  bench::note("fixed ports freeze each pair onto one path: either always dead or always blind");
  return {fresh_spines.size(), fixed_spines.size(), fresh_detected, fixed_detected};
}

// --- Ablation C ------------------------------------------------------------

struct ThresholdResult {
  double healthy = 0.0;   ///< measured drop rate, healthy fleet
  double incident = 0.0;  ///< ... during a spine silent-drop incident
};

ThresholdResult ablation_thresholds() {
  bench::heading("C. SLA alert threshold sensitivity (drop-rate rule)");
  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  controller::PinglistGenerator gen(topo, fleet_cfg());

  auto measure = [&](bool incident, std::uint64_t seed) {
    netsim::SimNetwork net(topo, seed);
    if (incident) {
      net.faults().add_silent_random_drop(topo.dcs()[0].spines[0], 0.02);
    }
    core::FleetProbeDriver driver(topo, net, gen);
    std::uint64_t ok = 0, sig = 0;
    driver.run_dense(0, 6, seconds(10), [&](const core::FleetProbe& p) {
      if (!p.outcome.success) return;
      ++ok;
      if (p.outcome.syn_transmissions > 1) ++sig;
    });
    return ok ? static_cast<double>(sig) / static_cast<double>(ok) : 0.0;
  };

  std::printf("  %-12s %16s %16s %16s\n", "threshold", "healthy fires?", "incident fires?",
              "verdict");
  double healthy = measure(false, 42);
  double incident = measure(true, 43);
  std::printf("  measured drop rates: healthy %s, spine incident %s\n",
              format_rate(healthy).c_str(), format_rate(incident).c_str());
  for (double threshold : {1e-5, 1e-4, 1e-3, 1e-2}) {
    bool fp = healthy > threshold;
    bool tp = incident > threshold;
    const char* verdict = fp ? "too twitchy" : (tp ? "good" : "misses incident");
    std::printf("  %-12s %16s %16s %16s\n", format_rate(threshold).c_str(),
                fp ? "yes (FP)" : "no", tp ? "yes" : "no (FN)", verdict);
  }
  bench::note("the paper's 1e-3 sits between normal-band noise and real incidents");
  return {healthy, incident};
}

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("Ablations of Pingmesh design choices");
  const ParticipationResult a = ablation_participation();
  const SourcePortResult b = ablation_source_ports();
  const ThresholdResult c = ablation_thresholds();

  bench::heading("shape checks");
  const bool full_finds_all = a.full_hits == 6 && a.sampled_hits < a.full_hits;
  const bool fresh_ports_cover = b.fresh_spines == 8 && b.fixed_spines == 1 &&
                                 b.fresh_detected > b.fixed_detected;
  const bool bar_separates =
      c.healthy < agent::kAlertDropRate && agent::kAlertDropRate < c.incident;
  bench::note(std::string("A: full participation finds all 6 ToRs, 1 in 64 fewer: ") +
              (full_finds_all ? "yes" : "NO"));
  bench::note(std::string("B: fresh ports cover 8/8 spines and more failing pairs: ") +
              (fresh_ports_cover ? "yes" : "NO"));
  bench::note(std::string("C: the 1e-3 alert bar sits between healthy and incident: ") +
              (bar_separates ? "yes" : "NO"));
  return (full_finds_all && fresh_ports_cover && bar_separates) ? 0 : 1;
}
