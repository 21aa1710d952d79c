#include "analysis/droprate.h"

namespace pingmesh::analysis {

agent::ProbeCounts estimate_drop_rate(const std::vector<agent::LatencyRecord>& records) {
  agent::ProbeCounts e;
  for (const agent::LatencyRecord& r : records) e.add(r.success, r.rtt);
  return e;
}

std::map<PairKey, agent::ProbeCounts> per_pair_stats(
    const std::vector<agent::LatencyRecord>& records) {
  std::map<PairKey, agent::ProbeCounts> out;
  for (const agent::LatencyRecord& r : records) {
    out[PairKey{r.src_ip, r.dst_ip}].add(r.success, r.rtt);
  }
  return out;
}

}  // namespace pingmesh::analysis
