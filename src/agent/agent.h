// PingmeshAgent — the per-server measurement engine (paper §3.4).
//
// "Its task is simple: downloads pinglist from the Pingmesh Controller;
// pings the servers in the pinglist; then uploads the ping result to DSA."
// Simple task, hardest component: it runs on *every* server, so it must be
// fail-closed. The safety features of §3.4.2 are implemented here:
//
//  - hard-coded floors/caps (minimum 10 s per-peer probe interval, 64 KB
//    max payload) that clamp whatever the pinglist asks for;
//  - fail-closed on controller loss: after 3 consecutive failed pinglist
//    fetches, or a fetch that finds no pinglist, the agent drops all its
//    ping peers and stops probing (it still responds to pings — responding
//    is the transport driver's job and never stops);
//  - bounded memory: the record buffer is capped; when an upload has failed
//    too many times the buffered data is discarded, never accumulated;
//  - a size-capped local log of the latency data.
//
// The class is a passive, transport-agnostic state machine: a driver calls
// tick() to learn what to do (fetch the pinglist / launch probes) and feeds
// results back. That makes the exact same logic testable on virtual time,
// runnable against the flow simulator, and runnable against real sockets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "agent/record.h"
#include "agent/record_columns.h"
#include "agent/rotating_log.h"
#include "common/types.h"
#include "controller/pinglist.h"
#include "controller/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pingmesh::agent {

/// Transport-agnostic probe outcome fed back into the agent.
struct ProbeResult {
  bool success = false;
  SimTime rtt = 0;
  bool payload_success = false;
  SimTime payload_rtt = 0;
};

/// A probe the agent wants launched. The source port is fresh per probe
/// ("every probing needs to be a new connection and uses a new TCP source
/// port", §3.4.1).
struct ProbeRequest {
  controller::PingTarget target;
  std::uint16_t src_port = 0;
};

/// Destination of uploaded record batches (Cosmos in production; the DSA
/// module's store here; fakes in tests). Batches arrive columnar — the
/// agent's buffer is handed over by reference, so an upload moves zero
/// record bytes; implementations must not retain the reference past the
/// call.
class Uploader {
 public:
  virtual ~Uploader() = default;
  virtual bool upload(const RecordColumns& batch) = 0;
};

struct AgentConfig {
  SimTime pinglist_refresh = minutes(10);
  SimTime upload_interval = minutes(1);
  std::size_t upload_batch_records = 2000;   ///< upload when buffer reaches this
  int upload_max_retries = 3;                ///< then discard (bounded memory)
  std::size_t max_buffered_records = 100'000;
  int controller_failure_threshold = 3;      ///< fail-closed after N fetch failures
  std::string local_log_path;                ///< empty = local log disabled
};

/// Hard-coded safety limits (paper: "These limits are hard coded in the
/// source code", bounding Pingmesh's worst-case traffic). The probe floor is
/// the one the controller's generator applies too.
using controller::kHardMinProbeInterval;
constexpr std::uint32_t kHardMaxPayloadBytes = 64 * 1024;
/// Size at which the local log rotates.
constexpr std::size_t kLocalLogMaxBytes = 16 * 1024 * 1024;

class PingmeshAgent {
 public:
  struct TickActions {
    bool fetch_pinglist = false;
    std::vector<ProbeRequest> probes;
  };

  PingmeshAgent(std::string server_name, IpAddr server_ip, AgentConfig config,
                Uploader& uploader);

  /// Advance to `now`; returns the work the driver should perform.
  TickActions tick(SimTime now);
  /// Arena-reuse variant for hot-loop drivers: clears and refills `out`
  /// (its probe vector keeps capacity across ticks, so a steady-state tick
  /// allocates nothing).
  void tick(SimTime now, TickActions& out);

  /// Deliver the outcome of a pinglist fetch the driver performed.
  void on_pinglist(const controller::FetchResult& result, SimTime now);

  /// Deliver one probe outcome.
  void on_probe_result(const ProbeRequest& request, const ProbeResult& result,
                       SimTime now);

  /// Force an upload attempt of whatever is buffered (shutdown path).
  void flush(SimTime now);

  /// Chaos hook: offset applied to record timestamps (a skewed server
  /// clock). Probing and upload scheduling stay on true sim time — only the
  /// measurement timestamps the agent stamps into its records drift, which
  /// is what a real clock-skew incident looks like downstream.
  void set_clock_skew(SimTime skew) { clock_skew_ = skew; }
  [[nodiscard]] SimTime clock_skew() const { return clock_skew_; }

  /// Wire this agent into a shared metrics registry (and optionally the
  /// data-path tracer). Instruments are fleet-wide: every agent registering
  /// the same metric name shares the same counter. Call before the first
  /// tick; safe to skip entirely (all hooks default to off).
  void enable_observability(obs::MetricsRegistry& registry,
                            const obs::Tracer* tracer = nullptr);

  /// Deferred-upload mode for multi-threaded drivers: while enabled, upload
  /// triggers (batch full / timer due) only mark the agent upload-pending
  /// instead of calling the Uploader. The driver runs many agents' probe
  /// work in parallel, then — after its barrier — drains pending uploads in
  /// server-id order via service_uploads(), so the Uploader and everything
  /// behind it stay single-threaded and see a deterministic record stream.
  void set_deferred_uploads(bool on) { defer_uploads_ = on; }
  /// Perform the upload marked pending during this tick, if any. Must be
  /// called from the (single) driver thread, outside any parallel section.
  void service_uploads(SimTime now);
  [[nodiscard]] bool upload_pending() const { return upload_pending_; }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] bool probing_active() const { return probing_active_; }
  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] std::size_t buffered_records() const { return buffer_.size(); }
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() * RecordColumns::kBytesPerRecord;
  }
  [[nodiscard]] std::uint64_t pinglist_version() const { return pinglist_version_; }
  [[nodiscard]] std::uint64_t probes_launched() const { return probes_launched_; }
  [[nodiscard]] std::uint64_t uploads_ok() const { return uploads_ok_; }
  [[nodiscard]] std::uint64_t uploads_failed() const { return uploads_failed_; }
  [[nodiscard]] std::uint64_t records_discarded() const { return records_discarded_; }
  /// Records acknowledged by the uploader (conservation ledger: every
  /// launched probe ends up uploaded, discarded, or still buffered).
  [[nodiscard]] std::uint64_t records_uploaded() const { return records_uploaded_; }
  /// Records appended to the local log (by the exactly-once contract).
  [[nodiscard]] std::uint64_t records_logged() const { return records_logged_; }
  /// Retried records whose re-append to the local log was skipped — each
  /// would have been a duplicate log entry before the high-water-mark fix.
  [[nodiscard]] std::uint64_t local_log_dup_avoided() const { return log_dup_avoided_; }
  [[nodiscard]] int consecutive_fetch_failures() const { return fetch_failures_; }
  /// Highest consecutive-failed-fetch count ever observed while the agent
  /// was still probing. The §3.4.2 fail-closed contract says this can never
  /// reach 3: by the third missed fetch the agent must already have shut
  /// probing down. Latched (not reset by recovery) so a past violation
  /// stays visible to post-run invariant checks.
  [[nodiscard]] int peak_fetch_failures_while_probing() const {
    return peak_fetch_failures_while_probing_;
  }
  [[nodiscard]] IpAddr ip() const { return ip_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// PA collection point: finish the current counter window.
  CounterSnapshot collect_counters(SimTime now) { return counters_.collect(now); }
  [[nodiscard]] CounterSnapshot peek_counters(SimTime now) const {
    return counters_.peek(now);
  }

 private:
  struct TargetState {
    controller::PingTarget target;
    SimTime next_due = 0;
  };

  void adopt_pinglist(const controller::Pinglist& pl, SimTime now);
  void fail_closed();
  void maybe_upload(SimTime now, bool force);
  void perform_upload(SimTime now);
  std::uint16_t next_src_port();

  std::string name_;
  IpAddr ip_;
  AgentConfig config_;
  Uploader* uploader_;
  RotatingLog local_log_;

  bool probing_active_ = false;
  std::uint64_t pinglist_version_ = 0;
  std::vector<TargetState> targets_;
  SimTime next_fetch_ = 0;
  int fetch_failures_ = 0;
  int peak_fetch_failures_while_probing_ = 0;
  bool fetch_outstanding_ = false;
  SimTime clock_skew_ = 0;

  // Columnar record buffer doubling as this agent's arena: clear() after a
  // successful upload keeps column capacity, so the steady state re-fills
  // warmed storage instead of re-allocating (the old std::deque paid block
  // allocations continuously).
  RecordColumns buffer_;
  // Local-log exactly-once bookkeeping: records are numbered by the order
  // they entered buffer_ (buffered_total_); logged_total_ is the high-water
  // sequence already appended to the local log, so a batch that rides a
  // retry is only logged for its unlogged suffix.
  std::uint64_t buffered_total_ = 0;
  std::uint64_t logged_total_ = 0;
  std::uint64_t records_logged_ = 0;
  std::uint64_t log_dup_avoided_ = 0;
  SimTime next_upload_ = 0;
  bool upload_timer_armed_ = false;
  int upload_failures_ = 0;
  bool defer_uploads_ = false;
  bool upload_pending_ = false;

  PerfCounters counters_;
  std::uint16_t ephemeral_port_ = 32768;

  std::uint64_t probes_launched_ = 0;
  std::uint64_t uploads_ok_ = 0;
  std::uint64_t uploads_failed_ = 0;
  std::uint64_t records_discarded_ = 0;
  std::uint64_t records_uploaded_ = 0;

  /// Cached registry instruments (shared fleet-wide); null until
  /// enable_observability().
  struct ObsHooks {
    obs::Counter* probes_ok = nullptr;
    obs::Counter* probes_failed = nullptr;
    obs::Counter* fetches_ok = nullptr;
    obs::Counter* fetches_none = nullptr;
    obs::Counter* fetches_unreachable = nullptr;
    obs::Counter* uploads_ok = nullptr;
    obs::Counter* uploads_failed = nullptr;
    obs::Counter* records_uploaded = nullptr;
    obs::Counter* records_shed = nullptr;
    obs::Counter* records_discarded = nullptr;
    obs::Counter* retry_exhausted = nullptr;
    obs::Counter* fail_closed = nullptr;
    obs::Counter* log_records = nullptr;
    obs::Counter* log_dup_avoided = nullptr;
    obs::Histogram* upload_batch = nullptr;
    obs::Histogram* buffer_occupancy = nullptr;
  };
  ObsHooks hooks_{};
  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace pingmesh::agent
