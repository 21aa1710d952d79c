// The SQL-database stage of the DSA pipeline (paper §3.2: "The analyzed
// results are then stored in an SQL database. Visualization, reports and
// alerts are generated based on the data in this database").
//
// Typed tables; each row carries its aggregation window. Queries are simple
// time/scope filters — that is all the visualization and alerting layers
// need.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace pingmesh::dsa {

/// Aggregated latency/drop statistics for a (source pod, destination pod)
/// pair over one window. The backing data of the Figure-8 heatmaps.
struct PodPairStatRow {
  SimTime window_start = 0;
  SimTime window_end = 0;
  PodId src_pod;
  PodId dst_pod;
  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t drop_signatures = 0;  ///< 3s + 9s probes
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;

  [[nodiscard]] double drop_rate() const {
    return successes ? static_cast<double>(drop_signatures) / static_cast<double>(successes)
                     : 0.0;
  }
};

enum class SlaScope : std::uint8_t { kServer, kPod, kPodset, kDc, kService };

const char* sla_scope_name(SlaScope s);

/// Network SLA metrics for one scope instance over one window (paper §4.3:
/// "We define network SLA as a set of metrics including packet drop rate,
/// network latency at the 50th percentile and the 99th percentile").
struct SlaRow {
  SimTime window_start = 0;
  SimTime window_end = 0;
  SlaScope scope = SlaScope::kServer;
  std::uint32_t scope_id = 0;  ///< ServerId/PodId/PodsetId/DcId/ServiceId value
  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t drop_signatures = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;

  [[nodiscard]] double drop_rate() const {
    return successes ? static_cast<double>(drop_signatures) / static_cast<double>(successes)
                     : 0.0;
  }
};

/// Daily intra-/inter-pod drop-rate summary per DC (Table 1's shape).
struct DcDropRow {
  SimTime window_start = 0;
  SimTime window_end = 0;
  DcId dc;
  double intra_pod_drop_rate = 0.0;
  double inter_pod_drop_rate = 0.0;
  std::uint64_t intra_pod_probes = 0;
  std::uint64_t inter_pod_probes = 0;
};

enum class AlertSeverity : std::uint8_t { kWarning, kCritical };

struct AlertRow {
  SimTime time = 0;
  AlertSeverity severity = AlertSeverity::kWarning;
  std::string rule;     ///< e.g. "drop_rate>1e-3"
  std::string scope;    ///< human-readable scope ("pod DC1-PS0-P3", "service Search")
  PodId src_pod;        ///< a pod-pair alert's pair (streaming); invalid otherwise
  PodId dst_pod;
  double value = 0.0;
  std::string message;
};

/// Aggregated PA counters per pod (the 5-minute fast path, §3.5).
struct PaCounterRow {
  SimTime time = 0;
  PodId pod;
  std::uint64_t probes = 0;
  std::uint64_t drop_signatures = 0;  ///< 3s/9s probes behind drop_rate
  double drop_rate = 0.0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
};

class Database {
 public:
  std::vector<PodPairStatRow> pod_pair_stats;
  std::vector<SlaRow> sla_rows;
  std::vector<DcDropRow> dc_drop_rows;
  std::vector<AlertRow> alerts;
  std::vector<PaCounterRow> pa_counters;

  /// Rows of a scope instance ordered by window start (a time series).
  [[nodiscard]] std::vector<SlaRow> sla_series(SlaScope scope, std::uint32_t scope_id) const;

  /// Pod-pair rows belonging to the newest complete window.
  [[nodiscard]] std::vector<PodPairStatRow> latest_pod_pair_window() const;

  /// Pod-pair rows within a given window range.
  [[nodiscard]] std::vector<PodPairStatRow> pod_pairs_between(SimTime from, SimTime to) const;

  [[nodiscard]] std::size_t total_rows() const {
    return pod_pair_stats.size() + sla_rows.size() + dc_drop_rows.size() + alerts.size() +
           pa_counters.size();
  }

  // --- open-alert registry (deduplication) ---------------------------------
  // A (scope, rule) pair that is "open" suppresses further AlertRow appends
  // for the same condition: a persistent fault yields one row when it opens,
  // not one per evaluation. Shared by every alerting path (PA, streaming).

  /// Mark (scope, rule) open. Returns true if it was newly opened — the
  /// caller should append its AlertRow exactly then.
  bool open_alert(const std::string& scope, const std::string& rule, SimTime now);
  /// Mark (scope, rule) closed (condition cleared). True if it was open.
  bool close_alert(const std::string& scope, const std::string& rule);
  [[nodiscard]] bool alert_open(const std::string& scope, const std::string& rule) const;
  [[nodiscard]] std::size_t open_alert_count() const { return open_alerts_.size(); }

 private:
  static std::string alert_key(const std::string& scope, const std::string& rule) {
    return rule + '\x1f' + scope;
  }
  std::unordered_map<std::string, SimTime> open_alerts_;  // key -> open time
};

}  // namespace pingmesh::dsa
