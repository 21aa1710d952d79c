#include "analysis/droprate.h"

namespace pingmesh::analysis {

agent::ProbeCounts estimate_drop_rate(const agent::RecordColumns& records) {
  agent::ProbeCounts e;
  for (std::size_t i = 0; i < records.size(); ++i) e.add(records.success(i), records.rtt(i));
  return e;
}

std::map<PairKey, agent::ProbeCounts> per_pair_stats(const agent::RecordColumns& records) {
  std::map<PairKey, agent::ProbeCounts> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    out[PairKey{records.src_ip(i), records.dst_ip(i)}].add(records.success(i), records.rtt(i));
  }
  return out;
}

}  // namespace pingmesh::analysis
