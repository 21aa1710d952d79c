// WindowedAggregator — per-(src-pod, dst-pod) sliding-window latency/drop
// statistics with seconds-level freshness.
//
// The streaming pipeline's stateful core: each pod pair holds a ring of N
// sub-windows (width W), each an agent::ProbeStats: the §4.2 counters plus
// a sketch of the clean connect RTTs. Records are bucketed by their
// *measurement* timestamp (not arrival time), so a window's content is
// exactly the record set the batch SCOPE job scans for the same interval —
// that equivalence is what the streaming-vs-batch cross-validation test
// asserts. Late arrivals within the retained horizon land in the right
// sub-window; arrivals older than the horizon are counted in
// `late_dropped()` and discarded.
//
// Memory/allocation contract: sub-window sketches are built once when a pair
// first appears (warm-up); advancing the ring clears a sub-window in place.
// After every active pair has been seen, ingest() allocates nothing.
//
// Threading: driver-thread only, like every DSA-side component (records
// arrive through the uploader tap, which runs in the serial drain phase of
// the fleet tick — see DESIGN.md §7).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "agent/counters.h"
#include "agent/record_columns.h"
#include "common/types.h"
#include "topology/topology.h"

namespace pingmesh::streaming {

/// Merged statistics of one pod pair (or service) over a queried interval.
struct WindowStats : agent::ProbeCounts {
  SimTime window_start = 0;
  SimTime window_end = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;

  /// Counters and percentiles of `merged` over [start, end).
  [[nodiscard]] static WindowStats of(const agent::ProbeStats& merged, SimTime start,
                                      SimTime end) {
    WindowStats out;
    static_cast<agent::ProbeCounts&>(out) = merged;
    out.window_start = start;
    out.window_end = end;
    out.p50_ns = merged.latency.p50();
    out.p99_ns = merged.latency.p99();
    out.p999_ns = merged.latency.p999();
    return out;
  }
};

class WindowedAggregator {
 public:
  struct Config {
    SimTime sub_window = seconds(10);  ///< ring slot width W
    int sub_window_count = 6;          ///< N slots; horizon = N * W
  };

  struct PairWindow {
    PodId src_pod;
    PodId dst_pod;
    WindowStats stats;
  };

  WindowedAggregator(const topo::Topology& topo, Config cfg);

  /// Ingest row `i` of `batch`, keyed to the sub-window of its timestamp.
  /// Records whose src or dst IP is not a known server are skipped (mirrors
  /// the batch pod-pair job's filter).
  void ingest(const agent::RecordColumns& batch, std::size_t i);

  /// Merged stats over the N live sub-windows as of `now` (the interval
  /// (floor(now/W)+1-N)*W .. (floor(now/W)+1)*W). nullopt for unseen pairs.
  [[nodiscard]] std::optional<WindowStats> query(PodId src, PodId dst, SimTime now) const;

  /// Merged stats over [from, to) — bounds are rounded outward to sub-window
  /// boundaries. Only sub-windows still retained contribute; nullopt for
  /// unseen pairs.
  [[nodiscard]] std::optional<WindowStats> query_range(PodId src, PodId dst, SimTime from,
                                                       SimTime to) const;

  /// Every pair with data in the live horizon, sorted by (src, dst) for
  /// deterministic iteration.
  [[nodiscard]] std::vector<PairWindow> snapshot(SimTime now) const;

  /// Measurement time of the last success / last probe seen for a pair over
  /// its whole lifetime (silent-pair detection). nullopt for unseen pairs.
  [[nodiscard]] std::optional<SimTime> last_success(PodId src, PodId dst) const;
  [[nodiscard]] std::optional<SimTime> last_probe(PodId src, PodId dst) const;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] SimTime horizon() const {
    return cfg_.sub_window * cfg_.sub_window_count;
  }
  [[nodiscard]] std::size_t pair_count() const { return pairs_.size(); }
  [[nodiscard]] std::uint64_t records_ingested() const { return ingested_; }
  [[nodiscard]] std::uint64_t records_skipped() const { return skipped_; }
  [[nodiscard]] std::uint64_t late_dropped() const { return late_dropped_; }
  /// Sub-windows whose contents aged out of the horizon (slot recycled).
  [[nodiscard]] std::uint64_t window_expiries() const { return expiries_; }
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr SimTime kUnset = std::numeric_limits<SimTime>::min();

  struct SubWindow {
    SimTime start = kUnset;
    agent::ProbeStats stats;
  };

  struct PairState {
    std::vector<SubWindow> ring;
    SimTime last_probe_ts = kUnset;
    SimTime last_success_ts = kUnset;
    std::uint64_t lifetime_probes = 0;
  };

  static std::uint64_t key(PodId src, PodId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }
  [[nodiscard]] const PairState* find(PodId src, PodId dst) const;
  [[nodiscard]] std::optional<WindowStats> merge_range(const PairState& p, SimTime from,
                                                       SimTime to) const;

  const topo::Topology* topo_;
  Config cfg_;
  std::unordered_map<std::uint64_t, std::unique_ptr<PairState>> pairs_;
  /// Scratch aggregate reused by queries (driver-thread only, like the rest).
  mutable agent::ProbeStats scratch_;
  std::uint64_t ingested_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t late_dropped_ = 0;
  std::uint64_t expiries_ = 0;
};

}  // namespace pingmesh::streaming
