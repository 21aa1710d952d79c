// StreamingPipeline — the near-real-time analytics path, end to end.
//
// Taps record batches at upload time (dsa::RecordTap on the
// CosmosUploader: the moment an agent's upload lands, ~20 minutes before
// the batch SCOPE job would consume the same records), folds them into
// per-pod-pair sliding windows, and runs four alert rules over those
// windows on a seconds cadence. The third data path of DESIGN.md §8,
// coexisting with the PA 5-min and SCOPE 10-min+ paths for availability
// (paper §3.5).
//
// Windows. Each (src-pod, dst-pod) pair holds a ring of kSubWindows
// sub-windows of width kSubWindow, each an agent::ProbeStats: the §4.2
// counters plus a sketch of the clean connect RTTs. Records are bucketed by
// their *measurement* timestamp (not arrival time), so the live horizon
// holds exactly the record set the batch pod-pair job scans for the same
// interval — the streaming-vs-batch cross-validation test asserts it. Late
// arrivals within the horizon land in their sub-window; older ones are
// counted as late and discarded. A pair's sketches are built when it first
// appears (warm-up); advancing the ring clears a sub-window in place, so
// after every active pair has been seen, ingest allocates nothing.
//
// Rules. tick() walks every pair once, in (src, dst) order, and judges its
// live horizon. One to two orders of magnitude sooner than the 10-min batch
// job (end-to-end freshness ~20 minutes, paper §3.5) and well under the PA
// path's 5-min cadence. Four rules, matching the failure classes of §4–§5:
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
// The thresholds are constants in pipeline.cc. Hysteresis + dedup: a rule
// must breach on 2 consecutive evaluations to open, and an open (scope,
// rule) suppresses further rows until 3 consecutive clean evaluations close
// it — a persistent fault yields exactly one AlertRow, not one per
// evaluation (shared open-alert registry in dsa::Database; the PA path uses
// the same registry). Each row carries its pod pair, so the healing loop
// reads the pair instead of parsing the scope text.
//
// Cost: an evaluation walks every live pair (~2,200 on default_config), and
// nearly all of them are clean. It sums a pair's counters, merges its
// sketches only for the median, builds a row's message only when the row is
// written, and touches the string-keyed registry only to open a rule or to
// close one this pipeline holds open.
//
// Threading: driver-thread only, like every DSA-side component (records
// arrive through the uploader tap, which runs in the serial drain phase of
// the fleet tick — see DESIGN.md §7).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "agent/counters.h"
#include "agent/record_columns.h"
#include "common/types.h"
#include "dsa/database.h"
#include "dsa/uploader.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/topology.h"

namespace pingmesh::streaming {

/// AlertRow::rule of the four streaming rules.
inline constexpr const char* kLatencyBoostRule = "stream:latency_boost";
inline constexpr const char* kDropSpikeRule = "stream:drop_spike";
inline constexpr const char* kSilentPairRule = "stream:silent_pair";
inline constexpr const char* kFailRateRule = "stream:fail_rate";

/// Ring geometry: the live horizon is kSubWindows slots of kSubWindow.
inline constexpr SimTime kSubWindow = seconds(10);
inline constexpr int kSubWindows = 6;

struct DetectorConfig {
  SimTime eval_period = seconds(10);  ///< cadence the driver ticks tick()
};

struct StreamingConfig {
  bool enabled = false;  ///< simulation wiring flag (off: zero overhead)
  DetectorConfig detector;
};

class StreamingPipeline final : public dsa::RecordTap {
 public:
  /// What the tap saw and what the rules did, since construction. The chaos
  /// streaming-batch invariant balances ingested + skipped + late against
  /// the records the agents uploaded.
  struct Ledger {
    std::uint64_t ingested = 0;     ///< records folded into a sub-window
    std::uint64_t skipped = 0;      ///< src or dst not a known server
    std::uint64_t late = 0;         ///< older than the retained horizon
    std::uint64_t expiries = 0;     ///< sub-windows recycled out of the horizon
    std::uint64_t evaluations = 0;  ///< tick() calls
    std::uint64_t opened = 0;       ///< alert rows written
    std::uint64_t closed = 0;       ///< open alerts closed again
  };

  StreamingPipeline(const topo::Topology& topo, dsa::Database& db, StreamingConfig cfg);

  /// dsa::RecordTap: a record batch just landed in Cosmos. Records whose
  /// src or dst IP is not a known server are skipped (the batch pod-pair
  /// job's filter).
  void on_records(const agent::RecordColumns& batch, SimTime now) override;

  /// Driver cadence (DetectorConfig::eval_period): run the rules over every
  /// pair's live horizon; appends deduplicated AlertRows. Returns alerts
  /// newly opened.
  int tick(SimTime now);

  /// Register the streaming.* gauges and (optionally) the data-path tracer:
  /// sampled records get a streaming.ingest span as they land.
  void enable_observability(obs::MetricsRegistry& registry,
                            const obs::Tracer* tracer = nullptr);

  /// Merged stats over the live horizon as of `now`, the sub-windows
  /// (floor(now/W)+1-N)*W .. (floor(now/W)+1)*W. nullopt for unseen pairs.
  [[nodiscard]] std::optional<agent::WindowStats> query(PodId src, PodId dst,
                                                        SimTime now) const;

  [[nodiscard]] const StreamingConfig& config() const { return cfg_; }
  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] std::size_t pair_count() const { return pairs_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr SimTime kUnset = std::numeric_limits<SimTime>::min();

  enum Rule : std::size_t {
    kLatencyBoost = 0,
    kDropSpike = 1,
    kSilentPair = 2,
    kFailRate = 3,
    kRuleCount
  };

  struct SubWindow {
    SimTime start = kUnset;
    agent::ProbeStats stats;
  };

  /// One pod pair: its ring, its liveness times, and its rules' state.
  struct PairState {
    PodId src;
    PodId dst;
    std::string scope;  ///< "pair <src-tor>-><dst-tor>"
    std::array<SubWindow, kSubWindows> ring;
    SimTime last_probe = kUnset;    ///< lifetime, by measurement time
    SimTime last_success = kUnset;
    double p50_baseline = 0.0;
    bool baseline_init = false;
    int breach_streak[kRuleCount] = {};
    int clean_streak[kRuleCount] = {};
    bool open[kRuleCount] = {};  ///< this pipeline holds (scope, rule) open
  };

  /// Map key: iteration runs in (src, dst) order.
  static std::uint64_t key(PodId src, PodId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }
  void ingest(const agent::RecordColumns& batch, std::size_t i);
  /// Sub-window `sub` lies in the live horizon [from, from + N*W).
  [[nodiscard]] static bool live(const SubWindow& sub, SimTime from) {
    return sub.start != kUnset && sub.start >= from &&
           sub.start < from + kSubWindow * kSubWindows;
  }
  /// First sub-window start of the live horizon as of `now`.
  [[nodiscard]] static SimTime horizon_start(SimTime now) {
    return now - now % kSubWindow - kSubWindow * (kSubWindows - 1);
  }
  [[nodiscard]] std::string pair_scope(PodId src, PodId dst) const;
  /// Advance one rule's hysteresis; opens/closes through the database's
  /// open-alert registry. True when the rule opened this evaluation: the
  /// caller then writes its row with write_alert.
  bool step_rule(PairState& pair, Rule rule, bool breach, SimTime now);
  void write_alert(const PairState& pair, Rule rule, dsa::AlertSeverity severity,
                   double value, std::string message, SimTime now);

  const topo::Topology* topo_;
  dsa::Database* db_;
  StreamingConfig cfg_;
  std::map<std::uint64_t, PairState> pairs_;  ///< by key(src, dst)
  /// Scratch aggregate for the median and for query() (driver-thread only).
  mutable agent::ProbeStats scratch_;
  Ledger ledger_;
  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace pingmesh::streaming
