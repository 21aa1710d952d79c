#include "dsa/pa.h"

#include "common/stats.h"

namespace pingmesh::dsa {

int evaluate_pa_alerts(Database& db, const topo::Topology& topo,
                       const AlertThresholds& thresholds, SimTime since, SimTime now) {
  int fired = 0;
  const std::string rule = "pa:drop_rate>" + format_rate(thresholds.drop_rate);
  for (const PaCounterRow& row : db.pa_counters) {
    if (row.time <= since || row.time > now) continue;
    if (row.probes < thresholds.min_probes) continue;
    std::string scope = "pa pod ";
    if (row.pod.value < topo.pods().size()) {
      scope += topo.sw(topo.pod(row.pod).tor).name;
    } else {
      scope += '#';
      scope += std::to_string(row.pod.value);
    }
    // The PA path alerts on drop rate only: its pod-level percentiles are
    // noisy against a 5 ms threshold (one host stall skews a whole pod).
    // Precise latency alerting belongs to the Cosmos/SCOPE path.
    // A 5-minute pod window holds only hundreds of probes; one retransmit
    // signature breaches 1e-3 by itself. Require a few before paging.
    if (row.drop_signatures >= agent::kMinDropSignatures &&
        row.drop_rate > thresholds.drop_rate) {
      // Dedup through the open-alert registry: a fault persisting across
      // many 5-min windows appends one AlertRow, not one per window.
      if (!db.open_alert(scope, rule, now)) continue;
      AlertRow a;
      a.time = now;
      a.severity = AlertSeverity::kCritical;
      a.rule = rule;
      a.scope = scope;
      a.value = row.drop_rate;
      a.message = "PA drop rate " + format_rate(row.drop_rate) + " exceeds SLA";
      db.alerts.push_back(std::move(a));
      ++fired;
    } else {
      // A trusted clean window clears the condition; the next breach may
      // page again.
      db.close_alert(scope, rule);
    }
  }
  return fired;
}

void PerfcounterAggregator::collect(ServerId server, const agent::CounterSnapshot& s) {
  ++collected_;
  // Merging the servers' window sketches yields true pod-level percentiles
  // (O(1) merge, bounded relative error).
  current_[topo_->server(server).pod.value].merge(s);
}

void PerfcounterAggregator::flush(SimTime now) {
  for (const auto& [pod, acc] : current_) {
    if (acc.probes == 0) continue;
    PaCounterRow row;
    row.time = now;
    row.pod = PodId{pod};
    row.probes = acc.probes;
    row.drop_signatures = acc.drop_signatures();
    row.drop_rate = acc.drop_rate();
    row.p50_ns = acc.latency.p50();
    row.p99_ns = acc.latency.p99();
    db_->pa_counters.push_back(row);
  }
  current_.clear();
}

}  // namespace pingmesh::dsa
