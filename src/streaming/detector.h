// OnlineDetector — sub-minute alerting over the sliding-window aggregates.
//
// Evaluated every few seconds against WindowedAggregator snapshots, it fires
// into the same Database::alerts surface the PA and SCOPE paths use, one to
// two orders of magnitude sooner than the 10-min batch job (whose end-to-end
// freshness is ~20 minutes, paper §3.5) and well under the PA path's 5-min
// cadence. Four rules, matching the failure classes of §4–§5:
//
//  - latency boost: windowed *median* RTT above a multiplicative EWMA
//    baseline (baseline frozen while breaching, so an incident cannot
//    absorb itself into the baseline). The median, not the P99: a pair's
//    sub-minute window holds tens of samples, so its P99 is the max sample
//    and routine queueing spikes would page constantly. Sustained median
//    elevation is the congestion shape; precise tail alerting belongs to
//    the large-aggregate SCOPE path (same division of labor as the PA
//    path's drop-rate-only rule);
//  - drop-signature spike: the §4.2 estimator (3 s / 9 s SYN-loss
//    signatures over successes) over the live window, with the same
//    signature floor the PA path uses against small-window noise;
//  - silent pair: probes flowing but no connect landing for 30 s — the
//    blackhole shape (deterministic SYN loss produces failures, not
//    retransmit signatures). Judged against the pair's lifetime
//    last-success time, not the windowed success count, so detection does
//    not wait for pre-fault successes to age out of the ring. Silence must
//    be seen in the data: a probe measured after the last success has to
//    have arrived. A pair whose newest record is a success is waiting on
//    its next upload, not silent — agents upload once a minute on
//    default_config, twice the grace;
//  - failure rate: a sustained fraction of connects failing outright —
//    the *partial* blackhole shape (a corrupted-TCAM fraction < 1 kills a
//    subset of server pairs 100% while the rest of the pod pair stays
//    healthy, so neither silent-pair nor drop-spike fires). The threshold
//    is the batch localizer's per-pair blackness bar
//    (agent::kBlackPairFailureRate), and a failure floor keeps one crashed
//    server in a large pod below the rule.
//
// The thresholds are constants in detector.cc. Hysteresis + dedup: a rule
// must breach on 2 consecutive evaluations to open, and an open (scope,
// rule) suppresses further rows until 3 consecutive clean evaluations close
// it — a persistent fault yields exactly one AlertRow, not one per
// evaluation (shared open-alert registry in dsa::Database; the PA path uses
// the same registry).
//
// Cost: an evaluation walks every live pair (~2,200 on default_config), and
// nearly all of them are clean. A pair's scope string is built once, an
// alert's message only when its row is written, and the string-keyed
// registry is touched only to open a rule or to close one this detector
// holds open.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "dsa/database.h"
#include "streaming/window.h"
#include "topology/topology.h"

namespace pingmesh::streaming {

struct DetectorConfig {
  SimTime eval_period = seconds(10);  ///< cadence the driver ticks evaluate()
};

class OnlineDetector {
 public:
  OnlineDetector(const topo::Topology& topo, dsa::Database& db);

  /// Evaluate every live pair window; appends deduplicated AlertRows.
  /// Returns the number of alerts newly opened this evaluation.
  int evaluate(const WindowedAggregator& windows, SimTime now);

  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::uint64_t alerts_opened() const { return opened_; }
  [[nodiscard]] std::uint64_t alerts_closed() const { return closed_; }

 private:
  enum Rule : std::size_t {
    kLatencyBoost = 0,
    kDropSpike = 1,
    kSilentPair = 2,
    kFailRate = 3,
    kRuleCount
  };

  struct PairTrack {
    std::string scope;  ///< "pair <src-tor>-><dst-tor>", built on first sight
    double p50_baseline = 0.0;
    bool baseline_init = false;
    int breach_streak[kRuleCount] = {};
    int clean_streak[kRuleCount] = {};
    bool open[kRuleCount] = {};  ///< this detector holds (scope, rule) open
  };

  static const char* rule_name(Rule r);
  [[nodiscard]] std::string pair_scope(PodId src, PodId dst) const;
  /// Advance one rule's hysteresis; opens/closes through the database's
  /// open-alert registry. True when the rule opened this evaluation: the
  /// caller then writes its row with write_alert.
  bool step_rule(PairTrack& track, Rule rule, bool breach, SimTime now);
  void write_alert(const PairTrack& track, Rule rule, dsa::AlertSeverity severity,
                   double value, std::string message, SimTime now);

  const topo::Topology* topo_;
  dsa::Database* db_;
  std::unordered_map<std::uint64_t, PairTrack> tracks_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
};

}  // namespace pingmesh::streaming
