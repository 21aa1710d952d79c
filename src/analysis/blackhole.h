// Packet black-hole detection (paper §5.1).
//
// "The idea of the algorithm is that if many servers under a ToR switch
// experience the black-hole symptom, then we mark the ToR switch as a
// black-hole candidate and assign it a score ... We then select the
// switches with black-hole score larger than a threshold as the candidates.
// Within a podset, if only part of the ToRs experience the black-hole
// symptom, then those ToRs are blacking hole packets. ... If all the ToRs
// in a podset experience the black-hole symptom, then the problem may be in
// the Leaf or Spine layer. Network engineers are notified."
//
// Symptom definition. Baseline loss essentially never kills a whole TCP
// connect (all three SYNs must drop), so a pair that fails repeatedly is a
// deterministic signal:
//   - type-1 (corrupted TCAM src/dst entries): a few pairs per ToR fail
//     100% of the time;
//   - type-2 (five-tuple): every pair crossing the ToR fails the fraction
//     of its probes whose fresh source port lands on a corrupted entry —
//     the new-port-per-probe design is what surfaces these.
// Both concentrate "black pairs" on the faulty ToR. Because a pair touches
// the ToRs of *both* endpoints, a healthy ToR whose servers talk to a
// black-holed pod also accumulates black pairs; attribution therefore uses
// greedy set-cover: repeatedly pick the ToR that explains the most
// remaining black pairs, remove the pairs it covers, stop when no ToR
// explains more than the noise floor. Pairs whose endpoints look dead (no
// successes at all) are excluded — that is a server/pod failure, not a
// switch black-hole.
#pragma once

#include <vector>

#include "agent/record_columns.h"
#include "analysis/droprate.h"
#include "common/types.h"
#include "topology/topology.h"

namespace pingmesh::analysis {

/// Which servers count as alive for the dead-server exclusion.
enum class Liveness : std::uint8_t {
  /// A server is alive iff it had >= 1 successful probe: a fully
  /// black-holed pod looks dead and is never blamed on its ToR (the paper's
  /// conservative stance: passively indistinguishable from a pod
  /// power-down).
  kSucceeded,
  /// A server is alive iff it *reported* continuously: its records as
  /// source cover the window with no gap (edges included) wider than 45 s.
  /// Agents upload over the management plane, so a pod whose servers keep
  /// reporting failures is alive behind a black-holing ToR, while a crashed
  /// server uploads nothing. A window spanning a server crash, or the
  /// recovery from one, still holds the victim's uploads from its healthy
  /// stretch; the gap marks its failures as unattributable instead of
  /// blaming the ToR for a dead host. The gap must exceed the upload period
  /// (10 s in the streaming configs). The healing loop uses this mode so a
  /// full ToR black-hole is still attributable.
  kReporting,
};

struct TorScore {
  SwitchId tor;
  PodId pod;
  PodsetId podset;
  std::uint64_t pairs_total = 0;  ///< measurable pairs with an endpoint under this ToR
  std::uint64_t pairs_black = 0;  ///< black pairs attributed to this ToR by the cover

  [[nodiscard]] double score() const {
    return pairs_total ? static_cast<double>(pairs_black) /
                             static_cast<double>(pairs_total)
                       : 0.0;
  }
};

struct BlackholeReport {
  /// ToRs to reload (score stands out, not podset-wide).
  std::vector<TorScore> candidates;
  /// Podsets where (almost) every ToR is affected: fault above the ToR
  /// layer; humans notified instead of auto-reload.
  std::vector<PodsetId> escalations;
  /// All scored ToRs (diagnostics).
  std::vector<TorScore> all_scores;
};

/// Score the ToRs of `topo` from one record window. A pair is black when
/// it has >= 3 probes, >= 2 failures and a failure rate of at least
/// agent::kBlackPairFailureRate; the greedy cover stops below 3 black pairs
/// per ToR, and a podset whose ToRs are all flagged escalates.
[[nodiscard]] BlackholeReport detect_blackholes(const agent::RecordColumns& window,
                                                const topo::Topology& topo,
                                                Liveness liveness = Liveness::kSucceeded);

}  // namespace pingmesh::analysis
