// EXTRACT, the first verb of every SCOPE job (paper §2.3: "SCOPE is a
// declarative and extensible scripting language ... to analyze massive
// data sets"). The standard jobs (dsa/jobs.h) are single passes over the
// extracted rows that GROUP BY into agent::ProbeStats; ad-hoc queries go
// through dsa/scopeql.h. Distribution, partitioning and failure handling
// are not what the paper evaluates, the query shapes are.
#pragma once

#include <vector>

#include "agent/record.h"
#include "dsa/cosmos.h"
#include "dsa/extent_codec.h"

namespace pingmesh::dsa::scope {

/// EXTRACT latency records from a Cosmos stream over [from, to).
/// Extent time ranges are coarse; the record-level filter is exact.
inline std::vector<agent::LatencyRecord> extract_records(const CosmosStream& stream,
                                                         SimTime from, SimTime to) {
  std::vector<agent::LatencyRecord> rows;
  stream.scan(from, to, [&](const Extent& e) {
    const agent::RecordColumns cols = decode_extent(e);
    const SimTime* ts = cols.timestamps();
    for (std::size_t i = 0, n = cols.size(); i < n; ++i) {
      if (ts[i] >= from && ts[i] < to) rows.push_back(cols.row(i));
    }
  });
  return rows;
}

}  // namespace pingmesh::dsa::scope
