#include "analysis/droprate.h"

#include <algorithm>

namespace pingmesh::analysis {

agent::ProbeCounts estimate_drop_rate(const agent::RecordColumns& records) {
  agent::ProbeCounts e;
  for (std::size_t i = 0; i < records.size(); ++i) e.add(records.success(i), records.rtt(i));
  return e;
}

std::vector<std::pair<PairKey, agent::ProbeCounts>> per_pair_stats(
    const agent::RecordColumns& records) {
  // Sort the rows by (src, dst) packed into one 64-bit key, then count each
  // run of equal keys: PairKey's order, without a map node per pair.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    keyed[i] = {(std::uint64_t{records.src_ip(i).v} << 32) | records.dst_ip(i).v,
                static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::pair<PairKey, agent::ProbeCounts>> out;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    const auto [key, row] = keyed[i];
    if (i == 0 || key != keyed[i - 1].first) {
      out.push_back({PairKey{IpAddr(static_cast<std::uint32_t>(key >> 32)),
                             IpAddr(static_cast<std::uint32_t>(key))},
                     {}});
    }
    out.back().second.add(records.success(row), records.rtt(row));
  }
  return out;
}

}  // namespace pingmesh::analysis
