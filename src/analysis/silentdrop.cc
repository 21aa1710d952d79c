#include "analysis/silentdrop.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "analysis/droprate.h"

namespace pingmesh::analysis {

constexpr std::uint64_t kMinProbes = 200;     ///< statistical floor per aggregate
constexpr double kTierElevationFactor = 5.0;  ///< cross vs intra podset ratio -> spine
constexpr std::size_t kPairsToProbe = 24;     ///< affected pairs used for pinpointing
constexpr int kTuplesPerPair = 16;            ///< port variations per pair
constexpr int kProbesPerTuple = 50;           ///< e2e probes per tuple for loss estimate

const char* suspect_tier_name(SuspectTier t) {
  switch (t) {
    case SuspectTier::kNone: return "none";
    case SuspectTier::kTor: return "tor";
    case SuspectTier::kLeaf: return "leaf";
    case SuspectTier::kSpine: return "spine";
  }
  return "?";
}

std::vector<SwitchId> tcp_traceroute(netsim::SimNetwork& net, const FiveTuple& tuple,
                                     SimTime now, int retries_per_hop) {
  std::vector<SwitchId> hops;
  for (int ttl = 1; ttl <= 16; ++ttl) {
    std::optional<SwitchId> answer;
    for (int attempt = 0; attempt < retries_per_hop && !answer; ++attempt) {
      answer = net.traceroute_hop(tuple, ttl, now);
    }
    if (!answer) break;  // path end or a hop that never answers
    hops.push_back(*answer);
  }
  return hops;
}

std::optional<DcId> detect_affected_dc(const agent::RecordColumns& window,
                                       const topo::Topology& topo) {
  std::unordered_map<std::uint32_t, agent::ProbeCounts> per_dc;
  for (std::size_t i = 0; i < window.size(); ++i) {
    auto src = topo.find_server_by_ip(window.src_ip(i));
    auto dst = topo.find_server_by_ip(window.dst_ip(i));
    if (!src || !dst) continue;
    const topo::Server& s = topo.server(*src);
    if (s.dc != topo.server(*dst).dc) continue;  // intra-DC view
    per_dc[s.dc.value].add(window.success(i), window.rtt(i));
  }
  std::optional<DcId> worst;
  double worst_rate = 0.0;
  for (const auto& [dc, acc] : per_dc) {
    if (acc.probes < kMinProbes) continue;
    double rate = acc.drop_rate();
    if (rate >= agent::kAlertDropRate && rate > worst_rate) {
      worst = DcId{dc};
      worst_rate = rate;
    }
  }
  return worst;
}

SilentDropReport localize_silent_drops(const agent::RecordColumns& window,
                                       const topo::Topology& topo, netsim::SimNetwork& net,
                                       SimTime now) {
  SilentDropReport report;
  auto affected = detect_affected_dc(window, topo);
  if (!affected) return report;
  report.incident = true;
  report.affected_dc = *affected;

  // --- tier classification from the record pattern ------------------------
  agent::ProbeCounts intra_podset;
  agent::ProbeCounts cross_podset;
  agent::ProbeCounts dc_all;
  for (std::size_t i = 0; i < window.size(); ++i) {
    auto src = topo.find_server_by_ip(window.src_ip(i));
    auto dst = topo.find_server_by_ip(window.dst_ip(i));
    if (!src || !dst) continue;
    const topo::Server& s = topo.server(*src);
    const topo::Server& d = topo.server(*dst);
    if (s.dc != report.affected_dc || d.dc != report.affected_dc) continue;
    dc_all.add(window.success(i), window.rtt(i));
    (s.podset == d.podset ? intra_podset : cross_podset).add(window.success(i), window.rtt(i));
  }
  report.dc_drop_rate = dc_all.drop_rate();
  report.intra_podset_rate = intra_podset.drop_rate();
  report.cross_podset_rate = cross_podset.drop_rate();

  bool cross_hot = report.cross_podset_rate >= agent::kAlertDropRate;
  bool intra_hot = report.intra_podset_rate >= agent::kAlertDropRate;
  if (cross_hot && (!intra_hot || report.cross_podset_rate >=
                                      kTierElevationFactor *
                                          std::max(report.intra_podset_rate, 1e-9))) {
    // Only traffic that climbs to the Spine layer is affected (Fig. 8(d)).
    report.tier = SuspectTier::kSpine;
  } else if (intra_hot && !cross_hot) {
    report.tier = SuspectTier::kLeaf;
  } else if (intra_hot && cross_hot) {
    report.tier = SuspectTier::kTor;  // everything from some pods is bad
  }
  if (report.tier != SuspectTier::kSpine) return report;

  // --- active pinpointing via traceroute + focused probing ----------------
  // Pick the worst affected cross-podset pairs.
  auto pairs = per_pair_stats(window);
  std::vector<std::pair<double, PairKey>> affected_pairs;
  for (const auto& [key, stats] : pairs) {
    auto src = topo.find_server_by_ip(key.src);
    auto dst = topo.find_server_by_ip(key.dst);
    if (!src || !dst) continue;
    const topo::Server& s = topo.server(*src);
    const topo::Server& d = topo.server(*dst);
    if (s.dc != report.affected_dc || d.dc != report.affected_dc) continue;
    if (s.podset == d.podset) continue;
    double badness = static_cast<double>(stats.drop_signatures() + stats.failures);
    if (badness > 0) affected_pairs.emplace_back(badness, key);
  }
  std::sort(affected_pairs.begin(), affected_pairs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (affected_pairs.size() > kPairsToProbe) affected_pairs.resize(kPairsToProbe);

  std::map<std::uint32_t, SpineLoss> loss_by_spine;
  for (const auto& [badness, key] : affected_pairs) {
    for (int v = 0; v < kTuplesPerPair; ++v) {
      FiveTuple tuple{key.src, key.dst, static_cast<std::uint16_t>(40000 + v * 131), 33100, 6};
      // Which spine does this tuple ride? Discover it like traceroute does.
      std::vector<SwitchId> path = tcp_traceroute(net, tuple, now);
      SwitchId spine;
      for (SwitchId h : path) {
        if (topo.sw(h).kind == topo::SwitchKind::kSpine) {
          spine = h;
          break;
        }
      }
      if (!spine.valid()) continue;
      SpineLoss& acc = loss_by_spine
                           .try_emplace(spine.value, SpineLoss{spine, 0, 0})
                           .first->second;
      for (int k = 0; k < kProbesPerTuple; ++k) {
        netsim::PacketResult pr = net.send_packet(tuple, 64, now);
        ++acc.probes;
        if (!pr.delivered) ++acc.losses;
      }
    }
  }

  report.spine_losses.reserve(loss_by_spine.size());
  for (const auto& [id, loss] : loss_by_spine) report.spine_losses.push_back(loss);
  std::sort(report.spine_losses.begin(), report.spine_losses.end(),
            [](const SpineLoss& a, const SpineLoss& b) {
              return a.loss_rate() > b.loss_rate();
            });
  if (!report.spine_losses.empty() &&
      report.spine_losses.front().loss_rate() >= kCulpritMinLoss) {
    report.culprit = report.spine_losses.front().spine;
    report.culprit_loss = report.spine_losses.front().loss_rate();
  }
  return report;
}

}  // namespace pingmesh::analysis
