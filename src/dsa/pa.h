// Perfcounter Aggregator — the fast path of the DSA design (paper §3.5):
// "The Autopilot PA pipeline is a distributed design with every data center
// has its own pipeline. The PA counter collection latency is 5 minutes,
// which is faster than our Cosmos/SCOPE pipeline. ... By using both of
// them, we provide higher availability for Pingmesh than either of them."
//
// The PA path consumes the agents' local counters (not raw records):
// coarser but cheap and independent of Cosmos.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agent/counters.h"
#include "common/types.h"
#include "dsa/database.h"
#include "dsa/jobs.h"
#include "topology/topology.h"

namespace pingmesh::dsa {

/// Threshold alerting over the PA fast path: evaluates PaCounterRows with
/// time in (since, now]. This is what keeps alerting alive when the
/// Cosmos/SCOPE path is down — "By using both of them, we provide higher
/// availability for Pingmesh than either of them" (§3.5). Returns the
/// number of alerts appended.
int evaluate_pa_alerts(Database& db, const topo::Topology& topo,
                       const AlertThresholds& thresholds, SimTime since, SimTime now);

class PerfcounterAggregator {
 public:
  static constexpr SimTime kCollectionPeriod = minutes(5);

  PerfcounterAggregator(const topo::Topology& topo, Database& db)
      : topo_(&topo), db_(&db) {}

  /// Ingest one server's counter snapshot for the current 5-min bucket.
  void collect(ServerId server, const agent::CounterSnapshot& snapshot);

  /// Close the current bucket: aggregate per pod and write PaCounterRows.
  /// Pod-level percentiles come from merging the servers' window sketches
  /// (true percentiles, bounded relative error).
  void flush(SimTime now);

  [[nodiscard]] std::uint64_t snapshots_collected() const { return collected_; }

 private:
  const topo::Topology* topo_;
  Database* db_;
  std::unordered_map<std::uint32_t, agent::ProbeStats> current_;  // PodId -> acc
  std::uint64_t collected_ = 0;
};

}  // namespace pingmesh::dsa
