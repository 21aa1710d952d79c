// RollupStore — materialized multi-resolution rollups for the interactive
// read path (DESIGN.md §13).
//
// The paper's users query heatmaps and per-service SLAs over months of
// data; re-scanning Cosmos extents per query is the ~20-minute batch path.
// The serving tier instead materializes three tiers of pre-merged cells —
// 10 min → 1 h → 1 day by default — keyed by pod pair and by service, and
// maintained incrementally from the uploader's RecordTap. A query merges
// O(cells-in-range) ProbeStats instead of touching raw records, so
// heatmap / SLA / top-k answers cost microseconds regardless of how much
// history the store holds.
//
// Seal-and-merge contract (the disjointness that makes queries correct):
//  - a record lands in the tier-0 cell of its *measurement* timestamp;
//  - a tier-0 cell SEALS once `now >= start + width0 + seal_grace`; sealing
//    merges it into its (unsealed) tier-1 parent accumulator, but the cell
//    itself stays queryable;
//  - when a tier-1 cell seals, its tier-0 children are ERASED (the parent
//    now answers for them) and the tier-1 cell merges into tier 2;
//  - when a tier-2 cell seals, its tier-1 children are erased;
//  - per series, the oldest sealed tier-2 cells beyond `max_tier2_cells`
//    are evicted (their probes counted in expired_records()).
// The queryable set — sealed tier-2 cells, sealed tier-1 cells, and ALL
// tier-0 cells — is therefore disjoint and covers every placed record
// except evicted ones. Unsealed tier-1/tier-2 accumulators are never
// queried (they duplicate live children). Old data degrades in resolution,
// never in coverage; memory is bounded by construction.
//
// Robustness against faulty inputs (chaos: clock skew, controller outage):
//  - records stamped further than `future_slack` past the ingest watermark
//    are rejected (rejected_future()) — a skewed agent cannot plant records
//    in windows that would seal out from under later arrivals;
//  - records for already-sealed tier-0 windows are dropped
//    (late_dropped()) — seals are final, so replays/retries cannot mutate
//    history and the digest of a sealed prefix never changes.
// check_conservation() asserts the resulting ledger exactly:
//   ingested == placed + skipped + rejected_future + late_dropped  and
//   sum(queryable pair-cell probes) + expired == placed.
//
// Determinism: ingest runs on the driver thread (serial upload-drain phase,
// like the streaming pipeline), all maps are ordered, and merge order is
// fixed by timestamp — digest() is byte-identical at any worker count.
//
// Thread-safety: the store is internally locked (mu_). Ingest stays a
// single-writer driver-thread affair, but the interactive serving tier
// (QueryService behind HttpServer) reads concurrently with it, so every
// public method takes mu_ and the mutable state is PM_GUARDED_BY(mu_);
// pingmesh_lint's lock-discipline pass checks the annotations.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agent/counters.h"
#include "agent/record_columns.h"
#include "common/annotations.h"
#include "common/types.h"
#include "dsa/uploader.h"
#include "topology/topology.h"

namespace pingmesh::serve {

struct RollupConfig {
  /// Cell widths, finest first; each must divide the next (10 min → 1 h →
  /// 1 day by default). Tests/benches shrink these to exercise sealing.
  SimTime tier_width[3] = {minutes(10), hours(1), days(1)};
  /// A tier-0 window seals `seal_grace` after it closes; until then late
  /// records within the window still land.
  SimTime seal_grace = seconds(30);
  /// Records stamped further than this past the ingest watermark are
  /// rejected (clock-skew guard).
  SimTime future_slack = minutes(1);
  /// Sealed tier-2 cells retained per series (default ~2 months of days).
  std::size_t max_tier2_cells = 64;
};

/// One pod pair's merged stats over a queried range (snapshot form).
struct PairRollup {
  PodId src_pod;
  PodId dst_pod;
  agent::WindowStats stats;
};

/// One consistent read of the store (RollupStore::view), all of it taken
/// at one store version.
struct RollupView {
  std::uint64_t version = 0;
  SimTime from = 0;  ///< max(0, to - window)
  SimTime to = 0;    ///< the ingest watermark
  std::vector<PairRollup> pairs;  ///< sorted by (src, dst); empty for a service read
  std::optional<agent::WindowStats> service;  ///< nullopt when it has no cells
};

class RollupStore final : public dsa::RecordTap {
 public:
  /// `services` may be null (pair scope only); when given, a record also
  /// rolls into every service its *source* server belongs to — per-service
  /// SLA tracks the latency the service's own servers experience (§4.3).
  /// Register services before constructing the store (membership is
  /// precomputed). Both referents must outlive the store.
  RollupStore(const topo::Topology& topo, const topo::ServiceMap* services,
              RollupConfig cfg);

  // -- ingest ---------------------------------------------------------------
  /// Uploader-tap entry point: classify + place each record, then advance
  /// the seal watermark to `now`. Driver thread only.
  void on_records(const agent::RecordColumns& batch, SimTime now) override;
  /// Advance the watermark without new records (seals/merges/evicts).
  void advance(SimTime now);

  // -- queries (all const; bounds round outward to tier-0 boundaries) -------
  [[nodiscard]] std::optional<agent::WindowStats> query_pair(
      PodId src, PodId dst, SimTime from, SimTime to) const;
  /// The version, the watermark and the cells of the `window` before the
  /// watermark, under one lock acquisition: the serving tier renders from
  /// it, so an answer never mixes two versions. With `service`, that
  /// service's cells; otherwise every pair with queryable data (the
  /// heatmap / top-k source).
  [[nodiscard]] RollupView view(SimTime window,
                                std::optional<ServiceId> service = std::nullopt) const;

  // -- serving metadata ------------------------------------------------------
  /// Monotone state version: bumps whenever a batch changes cell contents or
  /// a watermark moves. The QueryService derives ETags from it.
  [[nodiscard]] std::uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }
  /// Ingest watermark (max `now` seen).
  [[nodiscard]] SimTime now() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_now_;
  }
  /// Everything strictly before this is sealed at the given tier (0-2).
  [[nodiscard]] SimTime sealed_until(int tier) const {
    std::lock_guard<std::mutex> lock(mu_);
    return sealed_until_[tier];
  }
  /// FNV-1a digest over every queryable cell + the counter ledger, in
  /// deterministic order — the 1-vs-N-worker identity probe.
  [[nodiscard]] std::uint64_t digest() const;
  /// The ingest/coverage ledger described in the header comment.
  [[nodiscard]] bool check_conservation() const;

  // -- persistence (implemented in serve/persist.cc) -------------------------
  /// Serialize the COMPLETE store state — every cell in every tier (live
  /// tier-0 cells and unsealed tier-1/2 accumulators included), the counter
  /// ledger, the watermarks, and the version — as one binary payload.
  /// digest() covers all of that state, so a restore_state() round-trip is
  /// digest-identical by construction. The payload embeds the RollupConfig
  /// for validation; sketches serialize as sparse (index, count) pairs.
  [[nodiscard]] std::string encode_state() const;
  /// Rebuild from encode_state() bytes. The input is untrusted (segments
  /// cross a process/disk boundary through Cosmos): every length is bounds-
  /// checked before allocation, the embedded config must equal this store's
  /// config, keys must be strictly increasing and width-aligned, and cell
  /// counters must be internally consistent. Returns false and leaves the
  /// store untouched on any violation — the caller quarantines the segment
  /// and falls back to an older one. Intended for freshly constructed
  /// stores (recovery); on success it REPLACES all state.
  [[nodiscard]] bool restore_state(std::string_view data);

  // -- counters --------------------------------------------------------------
  [[nodiscard]] std::uint64_t ingested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ingested_;
  }
  [[nodiscard]] std::uint64_t placed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return placed_;
  }
  [[nodiscard]] std::uint64_t skipped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return skipped_;
  }
  [[nodiscard]] std::uint64_t rejected_future() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_future_;
  }
  [[nodiscard]] std::uint64_t late_dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return late_dropped_;
  }
  [[nodiscard]] std::uint64_t expired_records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return expired_;
  }
  [[nodiscard]] std::size_t pair_series_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_.size();
  }
  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] const RollupConfig& config() const { return cfg_; }
  /// Worst-case relative error of any percentile answered from the store.
  [[nodiscard]] double relative_error_bound() const;

 private:
  /// A cell is one agent::ProbeStats, so rollup answers share the streaming
  /// windows' and the batch jobs' classification and sketch geometry.
  using Cell = agent::ProbeStats;

  /// One scope's three tiers, each keyed by cell start time.
  struct Series {
    std::map<SimTime, Cell> tier[3];
  };

  static std::uint64_t pair_key(PodId src, PodId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }

  void place(Series& s, SimTime ts, bool success, SimTime rtt) PM_REQUIRES(mu_);
  void seal_series(Series& s) PM_REQUIRES(mu_);
  void advance_locked(SimTime now) PM_REQUIRES(mu_);
  [[nodiscard]] bool cell_queryable(int tier, SimTime start) const PM_REQUIRES(mu_);
  [[nodiscard]] std::size_t cell_count_locked() const PM_REQUIRES(mu_);
  /// Merge queryable cells of `s` overlapping [from, to); nullopt when none.
  [[nodiscard]] std::optional<agent::WindowStats> merge_range(
      const Series& s, SimTime from, SimTime to) const PM_REQUIRES(mu_);

  const topo::Topology* topo_;
  RollupConfig cfg_;
  /// services_of(src server), precomputed; empty when no ServiceMap.
  std::vector<std::vector<std::uint32_t>> server_services_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Series> pairs_ PM_GUARDED_BY(mu_);     // src<<32|dst
  std::map<std::uint32_t, Series> services_ PM_GUARDED_BY(mu_);  // ServiceId

  SimTime last_now_ PM_GUARDED_BY(mu_) = 0;
  SimTime sealed_until_[3] PM_GUARDED_BY(mu_) = {0, 0, 0};
  std::uint64_t version_ PM_GUARDED_BY(mu_) = 0;

  std::uint64_t ingested_ PM_GUARDED_BY(mu_) = 0;
  std::uint64_t placed_ PM_GUARDED_BY(mu_) = 0;
  std::uint64_t skipped_ PM_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_future_ PM_GUARDED_BY(mu_) = 0;
  std::uint64_t late_dropped_ PM_GUARDED_BY(mu_) = 0;
  std::uint64_t expired_ PM_GUARDED_BY(mu_) = 0;

  mutable Cell scratch_ PM_GUARDED_BY(mu_);  // query merges
};

}  // namespace pingmesh::serve
