// Decoded-extent cache for the SCOPE scan path.
//
// extract_records decodes an extent's payload on every scan, and the
// periodic jobs (10-min / 1-hour / 1-day) plus dashboards re-scan windows
// that overlap the same extents many times. Sealed extents are immutable,
// so their decoded rows can be kept; only the open tail extent keeps
// growing. The cache keys rows by extent id and validates the stored
// checksum on each lookup, so a grown (or corrupted-then-restored) extent
// is transparently re-decoded and results are always identical to an
// uncached scan.
//
// Entries are columnar (RecordColumns): the window filter runs over the
// contiguous timestamp array — a branch-light linear pass the compiler can
// vectorize — and only matching rows are materialized.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "agent/record.h"
#include "agent/record_columns.h"
#include "common/clock.h"
#include "dsa/cosmos.h"
#include "dsa/extent_codec.h"
#include "dsa/scope.h"
#include "obs/trace.h"

namespace pingmesh::dsa {

class DecodedExtentCache {
 public:
  explicit DecodedExtentCache(std::size_t max_entries = 512)
      : max_entries_(max_entries) {}

  /// Decoded columns of `e`; decodes on a miss or when the extent's checksum
  /// changed since it was cached (the open tail extent grows in place).
  /// The reference stays valid until the next columns()/expire_before()/clear().
  const agent::RecordColumns& columns(const Extent& e);

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
  /// Cached extract_records then emits scope.scan spans for sampled rows.
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
    agent::RecordColumns columns;
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

/// EXTRACT with a decoded-extent cache: identical result to the uncached
/// overload, decoding each extent at most once while it stays unchanged.
/// The time filter runs over the cached timestamp column; rows are only
/// materialized when they fall inside the window.
inline std::vector<agent::LatencyRecord> extract_records(const CosmosStream& stream,
                                                         SimTime from, SimTime to,
                                                         DecodedExtentCache& cache) {
  std::vector<agent::LatencyRecord> out;
  const obs::Tracer* tracer = cache.tracer();
  bool tracing = tracer != nullptr && tracer->enabled() && cache.span_clock() != nullptr;
  stream.scan(from, to, [&](const Extent& e) {
    std::uint64_t hits_before = cache.hits();
    const agent::RecordColumns& cols = cache.columns(e);
    bool hit = cache.hits() > hits_before;
    const SimTime* ts = cols.timestamps();
    const std::size_t n = cols.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (ts[i] < from || ts[i] >= to) continue;
      agent::LatencyRecord r = cols.row(i);
      out.push_back(r);
      if (tracing) {
        std::uint64_t key = obs::trace_key(r.timestamp, r.src_ip.v, r.dst_ip.v, r.src_port);
        if (tracer->sampled(key)) {
          SimTime now = cache.span_clock()->now();
          tracer->span(key, "scope.scan", now, now,
                       std::string("cache=") + (hit ? "hit" : "miss") +
                           ";extent=" + std::to_string(e.id));
        }
      }
    }
  });
  return out;
}

}  // namespace scope
}  // namespace pingmesh::dsa
