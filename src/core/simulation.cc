#include "core/simulation.h"

#include <algorithm>
#include <string>

#include "common/rng.h"

namespace pingmesh::core {

constexpr SimTime kJobTick = minutes(1);  ///< JobManager wake-up cadence

PingmeshSimulation::PingmeshSimulation(SimulationConfig config)
    : config_(std::move(config)),
      topo_(topo::Topology::build(config_.dcs)),
      net_(topo_, config_.seed),
      generator_(topo_, config_.generator),
      source_(topo_, generator_),
      scheduler_(0),
      cosmos_(config_.cosmos_extent_limit),
      uploader_(cosmos_, dsa::kLatencyStream, scheduler_.clock()),
      jobs_(config_.ingestion_delay),
      pa_(topo_, db_),
      repair_(config_.repair,
              [this](SwitchId sw) { net_.faults().clear_blackholes_on(sw); },
              [this](SwitchId sw) { net_.faults().clear_all_on(sw); }),
      watchdogs_(),
      pool_(config_.worker_threads) {
  job_ctx_.topo = &topo_;
  job_ctx_.services = &services_;
  job_ctx_.db = &db_;
  job_ctx_.scan_cache = &scan_cache_;
  jobs_.register_standard_jobs(cosmos_.stream(dsa::kLatencyStream), job_ctx_,
                               config_.thresholds, config_.include_server_sla_rows);

  // Controller replica set behind the SLB VIP (§3.3.2). Every replica
  // serves the same generator output (source_); the VIP only decides which
  // replica a fetch lands on and whether that replica is alive.
  int replicas = std::max(1, config_.controller_replicas);
  for (int i = 0; i < replicas; ++i) {
    controller_vip_.add_backend("controller-" + std::to_string(i));
    replica_up_.push_back(1);
  }

  shard_scratch_.resize(static_cast<std::size_t>(pool_.worker_count()));

  uploader_.set_encoding(config_.columnar_extents ? dsa::ExtentEncoding::kColumnar
                                                  : dsa::ExtentEncoding::kCsv);

  if (config_.streaming.enabled) {
    // The tap runs in the serial upload-drain phase of tick_agents and the
    // rules on their own scheduler event, so the whole streaming path is
    // driver-thread-only regardless of worker_threads (DESIGN.md §7).
    streaming_ = std::make_unique<streaming::StreamingPipeline>(topo_, db_,
                                                                config_.streaming);
    add_record_tap(streaming_.get());
    scheduler_.schedule_every(config_.streaming.detector.eval_period,
                              [this](SimTime now) {
                                streaming_->tick(now);
                                return true;
                              });
  }

  agents_.reserve(topo_.server_count());
  for (const topo::Server& s : topo_.servers()) {
    agents_.push_back(std::make_unique<agent::PingmeshAgent>(s.name, s.ip, config_.agent,
                                                             uploader_));
    // Uploads always drain in the serial phase of tick_agents, whatever the
    // worker count, so serial and parallel runs take the identical path.
    agents_.back()->set_deferred_uploads(true);
  }

  // Standard watchdogs (§3.5): pinglists generated, data stored, SLAs fresh.
  watchdogs_.register_check("pinglists-generated", [this](SimTime) {
    autopilot::CheckResult r;
    auto pl = generator_.generate_for(ServerId{0});
    r.health = pl.targets.empty() ? autopilot::Health::kError : autopilot::Health::kOk;
    r.message = std::to_string(pl.targets.size()) + " targets for server 0";
    return r;
  });
  watchdogs_.register_check("pingmesh-data-stored", [this](SimTime now) {
    autopilot::CheckResult r;
    const dsa::CosmosStream* s = cosmos_.find(dsa::kLatencyStream);
    bool ok = now < minutes(30) || (s != nullptr && s->total_records() > 0);
    r.health = ok ? autopilot::Health::kOk : autopilot::Health::kError;
    r.message = s ? std::to_string(s->total_records()) + " records stored" : "no stream";
    return r;
  });
  watchdogs_.register_check("dsa-slas-fresh", [this](SimTime now) {
    autopilot::CheckResult r;
    SimTime newest = 0;
    for (const auto& row : db_.sla_rows) newest = std::max(newest, row.window_end);
    bool ok = now < hours(2) + config_.ingestion_delay || newest + hours(3) > now;
    r.health = ok ? autopilot::Health::kOk : autopilot::Health::kError;
    r.message = "newest SLA window ends at " + std::to_string(to_seconds(newest)) + "s";
    return r;
  });

  if (config_.observability.enabled) wire_observability();

  // Drivers.
  scheduler_.schedule_every(config_.agent_tick, [this](SimTime now) {
    tick_agents(now);
    return true;
  });
  scheduler_.schedule_every(config_.pa_period, [this](SimTime now) {
    collect_pa(now);
    return true;
  });
  scheduler_.schedule_every(kJobTick, [this](SimTime now) {
    tick_jobs(now);
    return true;
  });
}

void PingmeshSimulation::wire_observability() {
  obs_ = std::make_unique<obs::Observability>(config_.observability);
  obs::MetricsRegistry& reg = obs_->metrics();
  const obs::Tracer* tracer = &obs_->tracer();

  source_.enable_observability(reg);
  {
    // Setup path, but the VIP is annotated vip_mutex_-guarded; take the
    // lock so the discipline holds everywhere outside the constructor.
    std::lock_guard<std::mutex> lock(vip_mutex_);
    controller_vip_.enable_observability(reg);
  }
  uploader_.enable_observability(reg, tracer);
  jobs_.enable_observability(reg, tracer);
  scan_cache_.set_observability(tracer, &scheduler_.clock());
  for (auto& ag : agents_) ag->enable_observability(reg, tracer);
  if (streaming_) streaming_->enable_observability(reg, tracer);

  // Polled gauges over components that must stay obs-free (common/ is a
  // lower layer than obs) or that already keep their own counters.
  reg.gauge_fn("threadpool.workers", "",
               [this] { return static_cast<double>(worker_threads()); });
  reg.gauge_fn("threadpool.parallel_for_total", "", [this] {
    return static_cast<double>(pool_.stats().parallel_for_calls);
  });
  reg.gauge_fn("threadpool.items_total", "",
               [this] { return static_cast<double>(pool_.stats().items_total); });
  // Real elapsed time, not virtual: excluded from golden snapshots.
  reg.gauge_fn("threadpool.busy_ns_total", "",
               [this] { return static_cast<double>(pool_.stats().busy_ns_total); });
  reg.gauge_fn("cosmos.extents", "", [this] {
    const dsa::CosmosStream* s = cosmos_.find(dsa::kLatencyStream);
    return s ? static_cast<double>(s->extents().size()) : 0.0;
  });
  reg.gauge_fn("cosmos.records_total", "",
               [this] { return static_cast<double>(cosmos_.total_records()); });
  reg.gauge_fn("cosmos.bytes_total", "",
               [this] { return static_cast<double>(cosmos_.total_bytes()); });
  reg.gauge_fn("dsa.scan_cache_hits_total", "",
               [this] { return static_cast<double>(scan_cache_.hits()); });
  reg.gauge_fn("dsa.scan_cache_misses_total", "",
               [this] { return static_cast<double>(scan_cache_.misses()); });
  reg.gauge_fn("dsa.scan_cache_evictions_total", "",
               [this] { return static_cast<double>(scan_cache_.evictions()); });
  reg.gauge_fn("dsa.scan_cache_entries", "",
               [this] { return static_cast<double>(scan_cache_.size()); });
  reg.gauge_fn("dsa.decode_rows_dropped_total", "",
               [this] { return static_cast<double>(scan_cache_.rows_dropped()); });
}

void PingmeshSimulation::set_controller_replica_up(std::size_t replica, bool up) {
  std::lock_guard<std::mutex> lock(vip_mutex_);
  replica_up_.at(replica) = up ? 1 : 0;
}

void PingmeshSimulation::add_record_tap(dsa::RecordTap* tap) {
  tap_fanout_.taps.push_back(tap);
  uploader_.set_tap(&tap_fanout_);
}

controller::FetchResult PingmeshSimulation::fetch_pinglist(IpAddr server_ip, SimTime now) {
  std::optional<std::size_t> pick;
  bool up = false;
  {
    // Fetches run in the serial phase of tick_agents (driver thread only);
    // the mutex stays as a guard-rail for any future caller. The picked
    // replica depends only on (flow hash, rotation state), and rotation
    // state evolves in server-id order, so outcomes are identical at any
    // worker count.
    std::lock_guard<std::mutex> lock(vip_mutex_);
    pick = controller_vip_.pick(mix64(server_ip.v ^ static_cast<std::uint64_t>(now)));
    if (pick) up = replica_up_[*pick] != 0;
  }
  if (!pick) return controller::FetchResult{controller::FetchStatus::kUnreachable, {}};
  if (!up) {
    std::lock_guard<std::mutex> lock(vip_mutex_);
    controller_vip_.report(*pick, false);
    return controller::FetchResult{controller::FetchStatus::kUnreachable, {}};
  }
  controller::FetchResult r = source_.fetch(server_ip);
  {
    std::lock_guard<std::mutex> lock(vip_mutex_);
    // A kNoPinglist answer is still a live replica; only transport-level
    // unreachability counts against its health.
    controller_vip_.report(*pick, r.status != controller::FetchStatus::kUnreachable);
  }
  return r;
}

void PingmeshSimulation::register_vip(IpAddr vip, std::vector<ServerId> dips) {
  vips_[vip] = std::move(dips);
  controller::PingTarget t;
  t.ip = vip;
  t.port = config_.generator.http_port;
  t.kind = controller::ProbeKind::kHttpGet;
  t.interval = config_.generator.inter_dc_interval;
  t.is_vip = true;
  // Rebuild the generator config with the VIP appended; bump the version so
  // agents pick it up on their next pinglist refresh.
  controller::GeneratorConfig cfg = generator_.config();
  cfg.vip_targets.push_back(t);
  std::uint64_t version = generator_.version() + 1;
  generator_ = controller::PinglistGenerator(topo_, cfg);
  generator_.set_version(version);
}

agent::ProbeResult PingmeshSimulation::execute_probe(ServerId src,
                                                     const agent::ProbeRequest& req,
                                                     SimTime now) {
  total_probes_.fetch_add(1, std::memory_order_relaxed);
  IpAddr dst_ip = req.target.ip;
  // VIP targets resolve to a DIP by source-port hash (the SLB data plane).
  auto vip_it = vips_.find(dst_ip);
  if (vip_it != vips_.end() && !vip_it->second.empty()) {
    const auto& dips = vip_it->second;
    ServerId dip = dips[mix64(req.src_port) % dips.size()];
    dst_ip = topo_.server(dip).ip;
  }

  auto dst = topo_.find_server_by_ip(dst_ip);
  if (!dst) return agent::ProbeResult{};  // unknown target: failed probe

  netsim::ProbeSpec spec;
  if (req.target.kind == controller::ProbeKind::kTcpPayload) {
    spec.payload_bytes = static_cast<int>(req.target.payload_bytes);
  } else if (req.target.kind == controller::ProbeKind::kHttpGet) {
    // HTTP ping: request + response ride the payload path (~300 B each way).
    spec.payload_bytes = 300;
  }
  spec.low_priority = req.target.qos == controller::QosClass::kLow;
  netsim::ProbeOutcome out =
      net_.tcp_probe(src, *dst, req.src_port, req.target.port, spec, now);
  agent::ProbeResult r;
  r.success = out.success;
  r.rtt = out.rtt;
  r.payload_success = out.payload_success;
  r.payload_rtt = out.payload_rtt;
  return r;
}

void PingmeshSimulation::tick_agents(SimTime now) {
  // Parallel phase: every server's agent work (pinglist fetch, probe
  // scheduling, probe execution, record buffering) touches only that
  // agent's state plus thread-safe shared components (const SimNetwork
  // probe path, const generator, atomic counters). Static sharding keeps
  // shard membership deterministic; probe outcomes are pure functions of
  // (seed, tuple, now), so the result is bit-identical for any thread count.
  const auto& servers = topo_.servers();
  // Pinglist fetches are only *noted* during the parallel phase and
  // performed after the barrier: the SLB VIP's pick/report sequence mutates
  // rotation state, so running it from worker shards would make fetch
  // outcomes depend on thread interleaving whenever a replica is down
  // (exactly the chaos scenarios). Serial server-id order matches what the
  // 1-worker path always did.
  std::vector<char> wants_fetch(servers.size(), 0);
  // Each shard refills its own TickActions arena (shard-affine: shard i is
  // pinned to one pool thread), so the steady-state tick performs no probe-
  // vector allocations at all.
  auto shard = [this, now, &servers, &wants_fetch](int shard_index, std::size_t begin,
                                                   std::size_t end) {
    agent::PingmeshAgent::TickActions& actions =
        shard_scratch_[static_cast<std::size_t>(shard_index)];
    for (std::size_t i = begin; i < end; ++i) {
      const topo::Server& s = servers[i];
      if (!net_.server_up(s.id, now)) continue;  // podset power-down: agent is gone
      agent::PingmeshAgent& ag = *agents_[s.id.value];
      ag.tick(now, actions);
      if (actions.fetch_pinglist) wants_fetch[i] = 1;
      for (const agent::ProbeRequest& req : actions.probes) {
        ag.on_probe_result(req, execute_probe(s.id, req, now), now);
      }
    }
  };
  pool_.parallel_for_shards(servers.size(), shard);

  // Serial phase 1 (after the barrier): pinglist fetches in server-id
  // order. A newly adopted pinglist may have probes due immediately; they
  // run here too (refresh ticks only, so the serialization is cheap).
  agent::PingmeshAgent::TickActions& more = shard_scratch_[0];  // free after barrier
  for (const topo::Server& s : servers) {
    if (wants_fetch[s.id.value] == 0) continue;
    agent::PingmeshAgent& ag = *agents_[s.id.value];
    ag.on_pinglist(fetch_pinglist(s.ip, now), now);
    ag.tick(now, more);
    for (const agent::ProbeRequest& req : more.probes) {
      ag.on_probe_result(req, execute_probe(s.id, req, now), now);
    }
  }

  // Serial phase 2: drain deferred uploads in server-id order so the
  // single-threaded Uploader/CosmosStore sees a deterministic record
  // stream.
  for (const topo::Server& s : servers) {
    if (!net_.server_up(s.id, now)) continue;
    agents_[s.id.value]->service_uploads(now);
  }
}

void PingmeshSimulation::collect_pa(SimTime now) {
  for (const topo::Server& s : topo_.servers()) {
    if (!net_.server_up(s.id, now)) continue;
    pa_.collect(s.id, agents_[s.id.value]->collect_counters(now));
  }
  pa_.flush(now);
  // The fast alerting path: independent of Cosmos/SCOPE (§3.5).
  dsa::evaluate_pa_alerts(db_, topo_, config_.thresholds, last_pa_alert_check_, now);
  last_pa_alert_check_ = now;
}

void PingmeshSimulation::tick_jobs(SimTime now) {
  jobs_.on_tick(now);
  // Raw latency data is kept for `cosmos_retention` (the paper keeps two
  // months at production scale). Expiry does not wait for the jobs: on
  // default_config the hourly SLA job sees about 92.5 % of its hour. On the
  // small configs one 4 MiB extent spans about two hours, so the jobs there
  // see every record.
  SimTime horizon = now - config_.cosmos_retention;
  if (horizon > 0) {
    cosmos_.stream(dsa::kLatencyStream).expire_before(horizon);
    scan_cache_.expire_before(horizon);
  }
}

agent::RecordColumns PingmeshSimulation::records_between(SimTime from, SimTime to) const {
  const dsa::CosmosStream* s = cosmos_.find(dsa::kLatencyStream);
  if (s == nullptr) return {};
  return dsa::scope::extract_records(*s, from, to, scan_cache_);
}

}  // namespace pingmesh::core
