// Decoded-extent cache for the SCOPE scan path.
//
// EXTRACT decodes an extent's payload, and the periodic jobs (10-min /
// 1-hour / 1-day), heal's lookbacks and dashboards re-scan windows that
// overlap the same extents many times. Sealed extents are immutable, so
// their decoded rows can be kept; only the open tail extent keeps growing.
// The cache keys rows by extent id and validates the stored checksum on
// each lookup, so a grown (or corrupted-then-restored) extent is
// transparently re-decoded and results are always identical to decoding
// the extent afresh.
//
// Entries are columnar (RecordColumns): the window filter runs over the
// contiguous timestamp array — a branch-light linear pass the compiler can
// vectorize — and matching rows are gathered column by column.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "agent/record_columns.h"
#include "common/clock.h"
#include "dsa/cosmos.h"
#include "dsa/extent_codec.h"
#include "obs/trace.h"

namespace pingmesh::dsa {

class DecodedExtentCache {
 public:
  explicit DecodedExtentCache(std::size_t max_entries = 512)
      : max_entries_(max_entries) {}

  /// Decoded columns of `e`; decodes on a miss or when the extent's checksum
  /// changed since it was cached (the open tail extent grows in place).
  /// The columns stay alive while the caller holds them, even if the entry
  /// is evicted, expired or re-decoded meanwhile.
  std::shared_ptr<const agent::RecordColumns> columns(const Extent& e);

  /// Drop entries whose newest record is older than `horizon` — the mirror
  /// of CosmosStream::expire_before, called on the same retention schedule.
  void expire_before(SimTime horizon);

  void clear();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Cumulative malformed rows encountered while decoding extents through
  /// this cache. Decoders used to drop such rows silently; the count feeds
  /// the dsa.decode_rows_dropped_total gauge and the chaos decode-integrity
  /// invariant (zero for plans without extent corruption).
  [[nodiscard]] std::uint64_t rows_dropped() const { return rows_dropped_; }

  /// Attach the data-path tracer (and the clock that stamps its spans).
  /// extract_records then emits scope.scan spans for sampled rows.
  void set_observability(const obs::Tracer* tracer, const Clock* clock) {
    tracer_ = tracer;
    clock_ = clock;
  }
  [[nodiscard]] const obs::Tracer* tracer() const { return tracer_; }
  [[nodiscard]] const Clock* span_clock() const { return clock_; }

 private:
  struct Entry {
    std::uint32_t checksum = 0;
    SimTime last_ts = 0;
    std::shared_ptr<const agent::RecordColumns> columns;
  };

  std::size_t max_entries_;
  // Extent ids are allocated monotonically, so the map's smallest key is
  // the oldest extent — eviction pops the front (FIFO in append order).
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t rows_dropped_ = 0;
  const obs::Tracer* tracer_ = nullptr;
  const Clock* clock_ = nullptr;
};

namespace scope {

/// EXTRACT, the first verb of every SCOPE job (paper §2.3: "SCOPE is a
/// declarative and extensible scripting language ... to analyze massive
/// data sets"): the latency records of `stream` whose timestamp lies in
/// [from, to), in extent-then-row order. Extent time ranges are coarse; the
/// record-level filter is exact. Each extent is decoded at most once while
/// it stays unchanged in `cache`; the window's rows are counted, then
/// gathered column by column into one batch. The standard jobs
/// (dsa/jobs.h), heal and the localizers read the batch's columns.
agent::RecordColumns extract_records(const CosmosStream& stream, SimTime from, SimTime to,
                                     DecodedExtentCache& cache);

}  // namespace scope
}  // namespace pingmesh::dsa
