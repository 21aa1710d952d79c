#include "analysis/blackhole.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace pingmesh::analysis {

constexpr std::uint64_t kMinProbesPerPair = 3;  ///< pairs with fewer probes are ignored
constexpr std::uint64_t kMinFailures = 2;       ///< failed probes making a pair "black"
constexpr std::uint64_t kMinBlackPairs = 3;     ///< greedy-cover noise floor per ToR
constexpr double kPodsetEscalationFraction = 0.99;  ///< all ToRs affected -> Leaf/Spine
constexpr SimTime kLivenessMaxGap = seconds(45);    ///< Liveness::kReporting's widest gap

BlackholeReport detect_blackholes(const agent::RecordColumns& window,
                                  const topo::Topology& topo, Liveness liveness) {
  // 1. Per-pair failure statistics.
  auto pairs = per_pair_stats(window);

  // 2. Responsive servers: had at least one successful probe as source or
  //    destination. Pairs involving unresponsive servers are dead-server
  //    symptoms (e.g. podset power-down), not black-holes. Under
  //    Liveness::kReporting, "responsive" instead means the server uploaded
  //    records at all (uploads ride the management plane, so a pod that
  //    keeps reporting pure failures is alive behind a black-holing ToR;
  //    a crashed server reports nothing and stays excluded).
  std::unordered_set<std::uint32_t> responsive;
  if (liveness == Liveness::kReporting) {
    // "Reported" must mean *continuously*: a lookback window that spans a
    // server crash (or the recovery from one) still holds the victim's
    // uploads from its healthy stretch, and counting its failed pairs would
    // blame the ToR for a dead host. Alive iff the server's records-as-
    // source cover the window with no gap — edges included — wider than
    // kLivenessMaxGap; failures around an upload gap are unattributable.
    std::unordered_map<std::uint32_t, std::vector<SimTime>> seen;
    SimTime window_min = 0;
    SimTime window_max = 0;
    for (std::size_t i = 0; i < window.size(); ++i) {
      const SimTime ts = window.timestamp(i);
      if (i == 0 || ts < window_min) window_min = ts;
      if (i == 0 || ts > window_max) window_max = ts;
      if (auto s = topo.find_server_by_ip(window.src_ip(i))) seen[s->value].push_back(ts);
    }
    for (auto& [server, times] : seen) {
      std::sort(times.begin(), times.end());
      SimTime max_gap = std::max(times.front() - window_min, window_max - times.back());
      for (std::size_t i = 1; i < times.size(); ++i) {
        max_gap = std::max(max_gap, times[i] - times[i - 1]);
      }
      if (max_gap <= kLivenessMaxGap) responsive.insert(server);
    }
  } else {
    for (const auto& [key, stats] : pairs) {
      if (stats.successes == 0) continue;
      if (auto s = topo.find_server_by_ip(key.src)) responsive.insert(s->value);
      if (auto d = topo.find_server_by_ip(key.dst)) responsive.insert(d->value);
    }
  }

  // 3. Collect black pairs and per-ToR measurable totals.
  struct BlackPair {
    std::uint32_t tor_a;
    std::uint32_t tor_b;
    bool covered = false;
  };
  std::vector<BlackPair> black;
  std::unordered_map<std::uint32_t, std::uint64_t> total_per_tor;
  for (const auto& [key, stats] : pairs) {
    if (stats.probes < kMinProbesPerPair) continue;
    auto src = topo.find_server_by_ip(key.src);
    auto dst = topo.find_server_by_ip(key.dst);
    if (!src || !dst) continue;
    if (!responsive.contains(src->value) || !responsive.contains(dst->value)) continue;
    const topo::Server& s = topo.server(*src);
    const topo::Server& d = topo.server(*dst);
    ++total_per_tor[s.tor.value];
    if (d.tor != s.tor) ++total_per_tor[d.tor.value];
    if (stats.failures >= kMinFailures &&
        stats.failure_rate() >= agent::kBlackPairFailureRate) {
      black.push_back(BlackPair{s.tor.value, d.tor.value, false});
    }
  }

  // 4. Diagnostics: raw (pre-attribution) black-pair counts per ToR.
  std::unordered_map<std::uint32_t, std::uint64_t> raw_black;
  for (const BlackPair& bp : black) {
    ++raw_black[bp.tor_a];
    if (bp.tor_b != bp.tor_a) ++raw_black[bp.tor_b];
  }
  BlackholeReport report;
  std::unordered_map<std::uint32_t, const topo::Pod*> pod_of_tor;
  report.all_scores.reserve(topo.pods().size());
  for (const topo::Pod& pod : topo.pods()) {
    pod_of_tor[pod.tor.value] = &pod;
    TorScore score;
    score.tor = pod.tor;
    score.pod = pod.id;
    score.podset = pod.podset;
    auto tot = total_per_tor.find(pod.tor.value);
    if (tot != total_per_tor.end()) score.pairs_total = tot->second;
    auto blk = raw_black.find(pod.tor.value);
    if (blk != raw_black.end()) score.pairs_black = blk->second;
    report.all_scores.push_back(score);
  }

  // 5. Greedy cover: the ToR explaining the most remaining black pairs is a
  //    candidate; its pairs are explained and removed. Stops at the noise
  //    floor, so a healthy ToR whose servers merely *talk to* a black-holed
  //    pod is never selected — its black pairs are already covered.
  std::vector<TorScore> flagged;
  for (;;) {
    std::unordered_map<std::uint32_t, std::uint64_t> coverage;
    for (const BlackPair& bp : black) {
      if (bp.covered) continue;
      ++coverage[bp.tor_a];
      if (bp.tor_b != bp.tor_a) ++coverage[bp.tor_b];
    }
    std::uint32_t best_tor = 0;
    std::uint64_t best_cover = 0;
    for (const auto& [tor, cover] : coverage) {
      if (cover > best_cover || (cover == best_cover && tor < best_tor)) {
        best_tor = tor;
        best_cover = cover;
      }
    }
    if (best_cover < kMinBlackPairs) break;
    auto pod_it = pod_of_tor.find(best_tor);
    if (pod_it == pod_of_tor.end()) break;  // black pairs point at no known ToR
    const topo::Pod& pod = *pod_it->second;
    TorScore score;
    score.tor = pod.tor;
    score.pod = pod.id;
    score.podset = pod.podset;
    score.pairs_total = total_per_tor[best_tor];
    score.pairs_black = best_cover;
    flagged.push_back(score);
    for (BlackPair& bp : black) {
      if (!bp.covered && (bp.tor_a == best_tor || bp.tor_b == best_tor)) bp.covered = true;
    }
  }

  // 6. Podset-wide symptom escalates to Leaf/Spine investigation instead of
  //    auto-reloading.
  std::unordered_map<std::uint32_t, int> podset_tors;
  for (const topo::Pod& pod : topo.pods()) ++podset_tors[pod.podset.value];
  std::unordered_map<std::uint32_t, int> podset_affected;
  for (const TorScore& s : flagged) ++podset_affected[s.podset.value];
  std::unordered_set<std::uint32_t> escalated;
  for (const auto& [podset, affected] : podset_affected) {
    double fraction =
        static_cast<double>(affected) / static_cast<double>(podset_tors[podset]);
    if (fraction >= kPodsetEscalationFraction && podset_tors[podset] > 1) {
      escalated.insert(podset);
      report.escalations.push_back(PodsetId{podset});
    }
  }
  for (const TorScore& s : flagged) {
    if (!escalated.contains(s.podset.value)) report.candidates.push_back(s);
  }
  return report;
}

}  // namespace pingmesh::analysis
