// The SCOPE jobs of the DSA pipeline and the Job Manager that submits them
// (paper §3.5: "We have 10-min, 1-hour, 1-day jobs at different time
// scales. ... All our jobs are automatically and periodically submitted by
// a Job Manager to SCOPE without user intervention.")
//
//  - 10-minute job (near real-time): per pod-pair latency/drop aggregation —
//    feeds dashboards, heatmaps, and threshold alerts;
//  - 1-hour job: network SLA per pod/podset/DC/service;
//  - 1-day job: DC-level intra-/inter-pod drop-rate summary (Table 1) and
//    history for trend tracking.
//
// End-to-end freshness: a job over window [W, W+period) fires at
// W + period + ingestion_delay; with the paper's numbers (10-min period,
// ~10-min pipeline delay) data is consumed ~20 minutes after generation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "agent/record.h"
#include "common/types.h"
#include "dsa/cosmos.h"
#include "dsa/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/topology.h"

namespace pingmesh::dsa {

class DecodedExtentCache;

struct JobContext {
  const topo::Topology* topo = nullptr;
  const topo::ServiceMap* services = nullptr;  // may be null (no service SLAs)
  Database* db = nullptr;
  DecodedExtentCache* scan_cache = nullptr;  // EXTRACT's decoded extents; required
};

/// 10-minute job: pod-pair aggregation -> PodPairStatRow.
void run_pod_pair_job(const CosmosStream& stream, const JobContext& ctx, SimTime from,
                      SimTime to);

/// 1-hour job: SLA per pod, podset, DC, and service -> SlaRow.
/// `include_server_rows` additionally emits per-server rows (micro scope).
void run_sla_job(const CosmosStream& stream, const JobContext& ctx, SimTime from,
                 SimTime to, bool include_server_rows = false);

/// 1-day job: intra-/inter-pod drop rates per DC -> DcDropRow (Table 1).
/// Sums the day's pod-pair rows from `ctx.db` rather than rescanning raw
/// extents: the filter is the same, the counters add, and a day of raw
/// records outlives Cosmos retention. Run it after the day's last 10-min
/// pod-pair window.
void run_dc_drop_job(const JobContext& ctx, SimTime from, SimTime to);

/// Threshold alerting (paper §4.3: "If the packet drop rate is greater than
/// 1e-3 or the 99th percentile latency is larger than 5ms ... fire alerts").
struct AlertThresholds {
  double drop_rate = agent::kAlertDropRate;
  SimTime p99 = millis(5);
  /// Minimum probes in a window before its metrics are trusted.
  std::uint64_t min_probes = 20;
};

/// Evaluate thresholds over freshly written SLA rows; appends AlertRows.
/// Returns the number of alerts fired.
int evaluate_sla_alerts(const JobContext& ctx, const std::vector<SlaRow>& fresh_rows,
                        const AlertThresholds& thresholds, SimTime now);

/// Periodic job orchestration on virtual time.
class JobManager {
 public:
  struct JobStats {
    std::string name;
    SimTime period = 0;
    std::uint64_t runs = 0;
    SimTime last_window_start = 0;
    SimTime last_fire_time = 0;
    /// Data-generated -> data-consumed delay of the last run (oldest record
    /// in window to fire time).
    [[nodiscard]] SimTime last_e2e_delay() const {
      return last_fire_time - last_window_start;
    }
  };

  using JobFn = std::function<void(SimTime from, SimTime to)>;

  explicit JobManager(SimTime ingestion_delay = minutes(10))
      : ingestion_delay_(ingestion_delay) {}

  void register_job(std::string name, SimTime period, JobFn fn);

  /// Register the standard 10-min / 1-hour / 1-day pipeline over a stream.
  /// `server_sla_rows` additionally emits per-server SLA rows from the
  /// hourly job (the micro scope).
  void register_standard_jobs(const CosmosStream& stream, const JobContext& ctx,
                              const AlertThresholds& thresholds = {},
                              bool server_sla_rows = false);

  /// Run every job whose next window is complete (call from a scheduler
  /// tick; idempotent within a window).
  void on_tick(SimTime now);

  /// Register dsa.job_* instruments (run counters + e2e-delay gauges per
  /// job) and, with a tracer, emit an infra span (trace id 0) per job run.
  void enable_observability(obs::MetricsRegistry& registry,
                            const obs::Tracer* tracer = nullptr);

  [[nodiscard]] std::vector<JobStats> stats() const;

 private:
  struct Job {
    JobStats stats;
    JobFn fn;
    SimTime next_window_start = 0;
    obs::Counter* runs_counter = nullptr;
    obs::Gauge* delay_gauge = nullptr;
  };

  void attach_instruments(Job& j);

  SimTime ingestion_delay_;
  std::vector<Job> jobs_;
  obs::MetricsRegistry* registry_ = nullptr;
  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace pingmesh::dsa
