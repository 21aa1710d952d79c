#include "dsa/scan_cache.h"

#include <string>
#include <vector>

#include "common/check.h"

namespace pingmesh::dsa {

std::shared_ptr<const agent::RecordColumns> DecodedExtentCache::columns(const Extent& e) {
  auto it = entries_.find(e.id);
  if (it != entries_.end() && it->second.checksum == e.checksum) {
    ++hits_;
    return it->second.columns;
  }
  ++misses_;
  Entry entry;
  entry.checksum = e.checksum;
  entry.last_ts = e.last_ts;
  agent::DecodeStats stats;
  entry.columns = std::make_shared<const agent::RecordColumns>(decode_extent(e, &stats));
  rows_dropped_ += stats.rows_dropped;
  if (it != entries_.end()) {
    // Stale entry for a grown tail extent: replace in place.
    it->second = std::move(entry);
    return it->second.columns;
  }
  while (max_entries_ > 0 && entries_.size() >= max_entries_) {
    entries_.erase(entries_.begin());
    ++evictions_;
  }
  PINGMESH_DCHECK(max_entries_ == 0 || entries_.size() < max_entries_);
  return entries_.emplace(e.id, std::move(entry)).first->second.columns;
}

void DecodedExtentCache::expire_before(SimTime horizon) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_ts < horizon) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void DecodedExtentCache::clear() { entries_.clear(); }

namespace scope {

agent::RecordColumns extract_records(const CosmosStream& stream, SimTime from, SimTime to,
                                     DecodedExtentCache& cache) {
  const obs::Tracer* tracer = cache.tracer();
  const bool tracing = tracer != nullptr && tracer->enabled() && cache.span_clock() != nullptr;
  // Pass 1: each extent's decoded columns (held, so a mid-scan eviction
  // cannot free them) and the numbers of its rows inside the window.
  struct Part {
    std::shared_ptr<const agent::RecordColumns> columns;
    std::vector<std::uint32_t> rows;
  };
  std::vector<Part> parts;
  std::size_t total = 0;
  stream.scan(from, to, [&](const Extent& e) {
    const std::uint64_t hits_before = cache.hits();
    Part& part = parts.emplace_back(Part{cache.columns(e), {}});
    const bool hit = cache.hits() > hits_before;
    const agent::RecordColumns& cols = *part.columns;
    const SimTime* ts = cols.timestamps();
    for (std::size_t i = 0, n = cols.size(); i < n; ++i) {
      if (ts[i] < from || ts[i] >= to) continue;
      part.rows.push_back(static_cast<std::uint32_t>(i));
      if (!tracing) continue;
      const std::uint64_t key =
          obs::trace_key(ts[i], cols.src_ips()[i], cols.dst_ips()[i], cols.src_ports()[i]);
      if (tracer->sampled(key)) {
        const SimTime now = cache.span_clock()->now();
        tracer->span(key, "scope.scan", now, now,
                     std::string("cache=") + (hit ? "hit" : "miss") +
                         ";extent=" + std::to_string(e.id));
      }
    }
    total += part.rows.size();
  });

  // Pass 2: gather them column by column into one batch.
  agent::RecordColumns out;
  out.reserve(total);
  for (const Part& part : parts) out.append_rows(*part.columns, part.rows);
  return out;
}

}  // namespace scope
}  // namespace pingmesh::dsa
