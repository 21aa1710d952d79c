// Packet drop rate inference (paper §4.2).
//
// "Pingmesh does not directly measure packet drop rate. However, we can
// infer packet drop rate from the TCP connection setup time. ... we use the
// following heuristic to estimate packet drop rate:
//     (probes with 3s rtt + probes with 9s rtt) / total successful probes."
//
// Failed probes are excluded from the denominator (can't distinguish drops
// from a dead receiver), and a 9 s probe counts once, not twice (successive
// drops within a connection are correlated).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "agent/counters.h"
#include "agent/record_columns.h"
#include "common/types.h"

namespace pingmesh::analysis {

/// Aggregate estimate over a record set: drop_rate() is the heuristic above.
agent::ProbeCounts estimate_drop_rate(const agent::RecordColumns& records);

/// Per source-destination pair estimates (input to black-hole detection).
struct PairKey {
  IpAddr src;
  IpAddr dst;
  auto operator<=>(const PairKey&) const = default;
};

/// One entry per (src, dst) pair in `records`, in ascending (src, dst) order.
std::vector<std::pair<PairKey, agent::ProbeCounts>> per_pair_stats(
    const agent::RecordColumns& records);

}  // namespace pingmesh::analysis
