// PingmeshSimulation: the full closed loop on virtual time.
//
//   Controller (pinglist generation, pull-based distribution)
//     -> Agents on every server (probe scheduling, safety, counters)
//       -> SimNetwork (ECMP, latency/drop models, fault injection)
//     -> Cosmos (uploaded record batches)
//       -> SCOPE jobs via JobManager (10-min / 1-h / 1-day)
//         -> Database -> alerts / heatmaps / SLA tracking
//     -> Perfcounter Aggregator (5-min fast path)
//   plus Autopilot repair (budgeted ToR reloads, RMA isolation).
//
// Everything runs on one EventScheduler, so a simulated day of a
// medium-size deployment executes in seconds and is bit-reproducible from
// the seed.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "agent/agent.h"
#include "autopilot/repair.h"
#include "autopilot/watchdog.h"
#include "common/annotations.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "controller/generator.h"
#include "controller/service.h"
#include "controller/slb.h"
#include "obs/observability.h"
#include "dsa/cosmos.h"
#include "dsa/database.h"
#include "dsa/jobs.h"
#include "dsa/pa.h"
#include "dsa/scan_cache.h"
#include "dsa/uploader.h"
#include "netsim/simnet.h"
#include "streaming/pipeline.h"
#include "topology/topology.h"

namespace pingmesh::core {

struct SimulationConfig {
  std::vector<topo::DcSpec> dcs;
  std::uint64_t seed = 42;
  controller::GeneratorConfig generator;
  agent::AgentConfig agent;
  SimTime agent_tick = seconds(10);       ///< driver granularity (probe due check)
  SimTime pa_period = minutes(5);         ///< Perfcounter Aggregator cadence
  SimTime ingestion_delay = minutes(10);  ///< Cosmos->SCOPE availability delay
  SimTime cosmos_retention = hours(1);    ///< expire raw data older than this
  /// Extent rollover size for the Cosmos store. Expiry works at extent
  /// granularity, so retention tests shrink this to force rollover within a
  /// short simulated run.
  std::size_t cosmos_extent_limit = 4 * 1024 * 1024;
  bool include_server_sla_rows = false;
  dsa::AlertThresholds thresholds;
  /// Near-real-time analytics path (off by default): taps record batches at
  /// upload time into sliding windows and alerts on them (DESIGN.md §8).
  streaming::StreamingConfig streaming;
  /// Fleet-wide observability (off by default): the shared MetricsRegistry
  /// plus the sampled data-path tracer (DESIGN.md §10). Zero overhead when
  /// disabled — no registry is constructed and every hook stays null.
  obs::ObservabilityConfig observability;
  /// Autopilot repair service knobs: the §5.1 daily reload budget and the
  /// budget accounting period (tests/soaks shrink the day so rollover
  /// happens inside a short run).
  autopilot::RepairConfig repair;
  /// Controller replicas behind the pinglist VIP (§3.3.2). Every replica
  /// serves the identical generator output; the SLB spreads fetches and
  /// removes/readmits replicas as they fail/recover.
  int controller_replicas = 3;
  /// Worker threads for the agent tick path (1 = serial). Results are
  /// bit-identical for any value: probe outcomes are pure functions of
  /// (seed, five-tuple, time) and uploads drain in server-id order after a
  /// barrier, so the thread count only changes wall-clock time.
  int worker_threads = 1;
  /// Extent payload encoding for the latency stream (DESIGN.md §12): true
  /// stores binary columnar extents (the paper-scale fast path), false the
  /// paper's CSV. Scans decode either; decoded records are identical.
  bool columnar_extents = true;
};

class PingmeshSimulation {
 public:
  explicit PingmeshSimulation(SimulationConfig config);

  // --- simulation control --------------------------------------------------
  void run_for(SimTime duration) { scheduler_.run_until(scheduler_.now() + duration); }
  void run_until(SimTime t) { scheduler_.run_until(t); }
  [[nodiscard]] SimTime now() const { return scheduler_.now(); }

  // --- component access ----------------------------------------------------
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  netsim::SimNetwork& net() { return net_; }
  netsim::FaultInjector& faults() { return net_.faults(); }
  controller::PinglistGenerator& generator() { return generator_; }
  controller::DirectPinglistSource& pinglist_source() { return source_; }
  dsa::CosmosStore& cosmos() { return cosmos_; }
  [[nodiscard]] const dsa::CosmosStore& cosmos() const { return cosmos_; }
  dsa::Database& db() { return db_; }
  [[nodiscard]] const dsa::Database& db() const { return db_; }
  dsa::JobManager& jobs() { return jobs_; }
  dsa::PerfcounterAggregator& pa() { return pa_; }
  /// The streaming pipeline; null unless config().streaming.enabled.
  [[nodiscard]] streaming::StreamingPipeline* streaming() { return streaming_.get(); }
  [[nodiscard]] const streaming::StreamingPipeline* streaming() const {
    return streaming_.get();
  }
  autopilot::RepairService& repair() { return repair_; }
  [[nodiscard]] const autopilot::RepairService& repair() const { return repair_; }
  autopilot::WatchdogService& watchdogs() { return watchdogs_; }
  topo::ServiceMap& services() { return services_; }
  EventScheduler& scheduler() { return scheduler_; }
  agent::PingmeshAgent& agent(ServerId id) { return *agents_.at(id.value); }
  [[nodiscard]] const agent::PingmeshAgent& agent(ServerId id) const {
    return *agents_.at(id.value);
  }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  /// Failure injection on the upload path (Cosmos front-end outages).
  dsa::CosmosUploader& uploader_for_test() { return uploader_; }

  /// Attach an additional record tap to the upload-drain phase. The
  /// uploader has a single tap slot; the sim multiplexes the streaming
  /// pipeline (always first) and externally attached consumers (serving
  /// harnesses, chaos) through an internal fanout, in attach order. Driver
  /// thread only, and before run_for; `tap` must outlive the simulation.
  void add_record_tap(dsa::RecordTap* tap);

  /// Observability layer; null unless config().observability.enabled.
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }
  [[nodiscard]] const obs::Observability* observability() const { return obs_.get(); }
  /// The SLB VIP in front of the controller replica set. Driver-thread
  /// read-only inspection between ticks; no worker shard is running, so the
  /// unlocked read cannot race pick/report.
  [[nodiscard]] const controller::SlbVip& controller_vip() const {
    return controller_vip_;  // lint: allow(lock-discipline)
  }
  /// Kill / revive one controller replica (failure injection). Call only
  /// from the driver thread between ticks — i.e. between run_for() segments
  /// or from a scheduler event (the chaos injector's path) — because
  /// replica state is read by worker shards during the tick itself.
  void set_controller_replica_up(std::size_t replica, bool up);
  /// Replica count is fixed at construction; size() never races the
  /// per-element flips the mutex guards.
  [[nodiscard]] std::size_t controller_replica_count() const {
    return replica_up_.size();  // lint: allow(lock-discipline)
  }

  /// Register a VIP with its destination (DIP) pool (paper §6.2 "VIP
  /// monitoring"). Probes to the VIP address are load-balanced over the
  /// DIPs by source-port hash.
  void register_vip(IpAddr vip, std::vector<ServerId> dips);

  /// Records currently scannable in the latency stream over [from, to).
  [[nodiscard]] agent::RecordColumns records_between(SimTime from, SimTime to) const;

  // --- aggregate statistics -------------------------------------------------
  [[nodiscard]] std::uint64_t total_probes() const {
    return total_probes_.load(std::memory_order_relaxed);
  }
  /// Decoded-extent cache statistics (SCOPE scan path).
  [[nodiscard]] const dsa::DecodedExtentCache& scan_cache() const { return scan_cache_; }
  /// Malformed rows dropped while decoding extents on the scan path. Must
  /// stay 0 unless extents were deliberately corrupted (chaos invariant).
  [[nodiscard]] std::uint64_t decode_rows_dropped() const {
    return scan_cache_.rows_dropped();
  }
  /// Worker parallelism actually in use (>= 1).
  [[nodiscard]] int worker_threads() const { return pool_.worker_count(); }

 private:
  void tick_agents(SimTime now);
  void collect_pa(SimTime now);
  void tick_jobs(SimTime now);
  void wire_observability();
  agent::ProbeResult execute_probe(ServerId src, const agent::ProbeRequest& req,
                                   SimTime now);
  controller::FetchResult fetch_pinglist(IpAddr server_ip, SimTime now);

  /// The uploader's one tap slot, multiplexed (see add_record_tap).
  struct TapFanout final : dsa::RecordTap {
    std::vector<dsa::RecordTap*> taps;
    void on_records(const agent::RecordColumns& batch, SimTime now) override {
      for (dsa::RecordTap* t : taps) t->on_records(batch, now);
    }
  };

  SimulationConfig config_;
  TapFanout tap_fanout_;
  std::unique_ptr<obs::Observability> obs_;  // null when observability off
  topo::Topology topo_;
  netsim::SimNetwork net_;
  controller::PinglistGenerator generator_;
  controller::DirectPinglistSource source_;
  controller::SlbVip controller_vip_ PM_GUARDED_BY(vip_mutex_);
  // by backend index; flipped between ticks
  std::vector<char> replica_up_ PM_GUARDED_BY(vip_mutex_);
  std::mutex vip_mutex_;  // guards VIP pick/report from worker shards
  EventScheduler scheduler_;
  dsa::CosmosStore cosmos_;
  dsa::Database db_;
  topo::ServiceMap services_;
  dsa::CosmosUploader uploader_;
  dsa::JobManager jobs_;
  dsa::PerfcounterAggregator pa_;
  std::unique_ptr<streaming::StreamingPipeline> streaming_;  // null when disabled
  autopilot::RepairService repair_;
  autopilot::WatchdogService watchdogs_;
  dsa::JobContext job_ctx_;
  mutable dsa::DecodedExtentCache scan_cache_;
  /// Runs the agent tick; a pool of 1 runs it inline on the driver thread.
  ThreadPool pool_;
  /// Per-shard TickActions arenas, indexed by shard. Shard i always runs on
  /// the same pool thread, so its scratch stays core-local across ticks and
  /// the steady-state tick allocates nothing.
  std::vector<agent::PingmeshAgent::TickActions> shard_scratch_;
  std::vector<std::unique_ptr<agent::PingmeshAgent>> agents_;  // by ServerId
  std::unordered_map<IpAddr, std::vector<ServerId>> vips_;
  std::atomic<std::uint64_t> total_probes_{0};
  SimTime last_pa_alert_check_ = 0;
};

}  // namespace pingmesh::core
