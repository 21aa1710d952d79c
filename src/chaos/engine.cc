#include "chaos/engine.h"

#include <algorithm>
#include <memory>

#include "chaos/injector.h"
#include "common/rng.h"
#include "core/scenarios.h"
#include "heal/loop.h"
#include "serve/replica.h"

namespace pingmesh::chaos {

namespace {

/// Rollup geometry for chaos runs: tiers shrunk (1 min → 10 min → 1 h,
/// 5 s grace) so plenty of seals — and therefore WAL seal records and
/// tier-1 checkpoint segments — happen inside a 30–40 minute plan.
serve::RollupConfig chaos_rollup_config() {
  serve::RollupConfig cfg;
  cfg.tier_width[0] = minutes(1);
  cfg.tier_width[1] = minutes(10);
  cfg.tier_width[2] = hours(1);
  cfg.seal_grace = seconds(5);
  return cfg;
}

}  // namespace

ChaosRunResult run_plan(const ChaosPlan& plan, const ChaosRunOptions& options) {
  core::SimulationConfig cfg = options.base_config != nullptr
                                   ? *options.base_config
                                   : core::chaos_test_config(plan.seed);
  cfg.seed = plan.seed;
  cfg.worker_threads = options.worker_threads;
  if (options.break_fail_closed) {
    cfg.agent.controller_failure_threshold = 1 << 30;
  }

  core::PingmeshSimulation sim(cfg);
  ChaosInjector injector(sim);

  // Attach the replicated serving tier only when the plan exercises it, so
  // plans without serve-restart events keep their exact pre-existing
  // byte-for-byte behavior (the harness writes WAL/segment streams into
  // the same CosmosStore).
  const bool wants_serve =
      std::any_of(plan.events.begin(), plan.events.end(), [](const ChaosEvent& e) {
        return e.kind == ChaosEventKind::kServeRestart;
      });
  ChaosRunResult result;
  std::unique_ptr<serve::ServeReplicaSet> replicas;
  if (wants_serve) {
    result.serve.ran = true;
    replicas = std::make_unique<serve::ServeReplicaSet>(
        sim.topology(), &sim.services(), chaos_rollup_config(), sim.cosmos());
    sim.add_record_tap(replicas.get());

    ChaosInjector::ServeHooks hooks;
    hooks.replica_count = replicas->replica_count();
    hooks.kill = [rs = replicas.get()](std::size_t i) { rs->kill(i); };
    hooks.restart = [rs = replicas.get(), out = &result.serve](std::size_t i) {
      rs->restart(i);
      ++out->restarts;
      // The WAL is write-ahead and complete, so the recovered store must be
      // digest-identical to the durable writer at this instant.
      if (rs->replica_store(i)->digest() == rs->writer().store().digest()) {
        ++out->digest_matches;
      } else {
        ++out->digest_mismatches;
      }
    };
    injector.set_serve_hooks(std::move(hooks));

    // Periodic front-door probe: a 503 is only acceptable while every
    // replica is dead (graceful degradation, never a blackhole).
    sim.scheduler().schedule_every(minutes(1), [rs = replicas.get(),
                                                out = &result.serve](SimTime) {
      net::HttpRequest req;
      req.method = "GET";
      req.path = "/query/heatmap?minutes=10";
      const std::size_t alive = rs->alive_count();
      serve::ReplicaQueryResult r = rs->query(req);
      ++out->queries;
      if (r.response.status == 503 && alive > 0) ++out->failed_with_replicas;
      return true;
    });
  }

  // Attach the self-healing loop only when the plan opts in, so non-healing
  // plans keep their exact pre-existing byte-for-byte behavior (the loop's
  // repairs mutate fault state mid-run).
  std::unique_ptr<heal::HealingLoop> healer;
  if (plan.heal) {
    result.heal.ran = true;
    healer = std::make_unique<heal::HealingLoop>(sim);
    healer->attach();
  }

  injector.arm(plan);
  sim.run_for(plan.duration + plan.settle);

  if (healer) {
    result.heal.triggers_seen = healer->triggers_seen();
    for (const autopilot::RepairRecord& r : sim.repair().history()) {
      if (!r.executed) continue;
      if (r.action == autopilot::RepairAction::kReload) ++result.heal.reloads_executed;
      else ++result.heal.rmas_executed;
    }
    result.heal.deferred_executed = sim.repair().deferred_executed_total();
    result.heal.deferred_pending = sim.repair().deferred().size();
    result.heal.incidents = healer->incidents();
  }

  if (replicas) {
    const std::uint64_t want = replicas->writer().store().digest();
    result.serve.final_digests_equal = true;
    result.serve.conservation_ok = replicas->writer().store().check_conservation();
    for (std::size_t i = 0; i < replicas->replica_count(); ++i) {
      const serve::RollupStore* store = replicas->replica_store(i);
      if (store == nullptr) continue;  // event window still open at run end
      if (store->digest() != want) result.serve.final_digests_equal = false;
      if (!store->check_conservation()) result.serve.conservation_ok = false;
    }
  }

  result.total_probes = sim.total_probes();
  result.records = sim.records_between(0, sim.now() + 1).encode_csv();
  result.report = check_invariants(sim, plan, wants_serve ? &result.serve : nullptr,
                                   plan.heal ? &result.heal : nullptr);
  result.totals = collect_totals(sim);
  return result;
}

ChaosPlan generate_random_plan(std::uint64_t seed, SimTime duration) {
  Rng rng(mix_key(seed, 0xC4A05917u));
  ChaosPlan plan;
  plan.seed = seed;
  plan.duration = duration;
  plan.settle = duration / 3;

  auto rand_window = [&rng, duration](SimTime min_len, SimTime max_len) {
    SimTime latest_start = std::max<SimTime>(seconds(1), duration - min_len);
    SimTime start = seconds(rng.uniform_u32(
        static_cast<std::uint32_t>(latest_start / kNanosPerSecond)));
    SimTime len = min_len + seconds(rng.uniform_u32(static_cast<std::uint32_t>(
                                std::max<SimTime>(1, (max_len - min_len)) /
                                kNanosPerSecond)));
    return std::pair<SimTime, SimTime>{start, std::min(start + len, duration)};
  };

  int n = 1 + static_cast<int>(rng.uniform_u32(5));
  bool has_heal_kind = false;
  for (int i = 0; i < n; ++i) {
    ChaosEvent e;
    std::uint32_t draw = rng.uniform_u32(100);
    if (draw < 25) {
      // Controller outage, weighted toward all-replica (the scenario that
      // exercises fail-closed) and toward windows long enough to span
      // several pinglist refreshes at the 2-minute chaos cadence.
      e.kind = ChaosEventKind::kControllerOutage;
      e.entity = rng.chance(0.6) ? kEntityAll : rng.uniform_u32(3);
      e.start = minutes(2) + seconds(rng.uniform_u32(8 * 60));
      e.end = std::min<SimTime>(e.start + minutes(10) + seconds(rng.uniform_u32(4 * 60)),
                                duration);
    } else if (draw < 45) {
      e.kind = ChaosEventKind::kLinkLoss;
      e.entity = rng.uniform_u32(4096);
      e.magnitude = rng.uniform(0.005, 0.05);
      auto [s, t] = rand_window(minutes(5), minutes(15));
      e.start = s;
      e.end = t;
    } else if (draw < 55) {
      e.kind = ChaosEventKind::kServerCrash;
      e.entity = rng.uniform_u32(4096);
      auto [s, t] = rand_window(minutes(3), minutes(12));
      e.start = s;
      e.end = t;
    } else if (draw < 63) {
      e.kind = ChaosEventKind::kUploadFailure;
      e.magnitude = rng.uniform(0.1, 0.9);
      auto [s, t] = rand_window(minutes(3), minutes(10));
      e.start = s;
      e.end = t;
    } else if (draw < 70) {
      e.kind = ChaosEventKind::kSlbFlap;
      e.entity = rng.chance(0.5) ? kEntityAll : rng.uniform_u32(3);
      e.param = seconds(30 + rng.uniform_u32(180));
      auto [s, t] = rand_window(minutes(4), minutes(12));
      e.start = s;
      e.end = t;
    } else if (draw < 76) {
      e.kind = ChaosEventKind::kClockSkew;
      e.entity = rng.uniform_u32(4096);
      e.param = seconds(1 + rng.uniform_u32(120));
      if (rng.chance(0.5)) e.param = -e.param;
      auto [s, t] = rand_window(minutes(3), minutes(12));
      e.start = s;
      e.end = t;
    } else if (draw < 81) {
      e.kind = ChaosEventKind::kUploadDelay;
      e.param = seconds(30 + rng.uniform_u32(600));
      auto [s, t] = rand_window(minutes(3), minutes(10));
      e.start = s;
      e.end = t;
    } else if (draw < 85) {
      e.kind = ChaosEventKind::kPartition;
      e.entity = rng.uniform_u32(4096);
      e.magnitude = 1.0;
      auto [s, t] = rand_window(minutes(3), minutes(10));
      e.start = s;
      e.end = t;
    } else if (draw < 88) {
      e.kind = ChaosEventKind::kExtentCorruption;
      e.start = minutes(5) + seconds(rng.uniform_u32(15 * 60));
      e.end = e.start;
    } else if (draw < 94) {
      // Partial ToR black-hole, strong and long enough that the healing
      // loop must catch and repair it within the deadline invariant.
      e.kind = ChaosEventKind::kTorBlackhole;
      e.entity = rng.uniform_u32(4096);
      e.magnitude = rng.uniform(0.25, 0.7);
      auto [s, t] = rand_window(minutes(8), minutes(18));
      e.start = s;
      e.end = t;
      has_heal_kind = true;
    } else if (draw < 97) {
      e.kind = ChaosEventKind::kSpineDrop;
      e.entity = rng.uniform_u32(4096);
      e.magnitude = rng.uniform(0.05, 0.15);
      auto [s, t] = rand_window(minutes(8), minutes(16));
      e.start = s;
      e.end = t;
      has_heal_kind = true;
    } else {
      e.kind = ChaosEventKind::kCongestion;
      e.entity = rng.uniform_u32(4096);
      e.magnitude = rng.uniform(0.05, 0.3);
      auto [s, t] = rand_window(minutes(3), minutes(8));
      e.start = s;
      e.end = t;
      has_heal_kind = true;
    }
    plan.events.push_back(e);
  }
  // Heal-kind plans always run the loop; a slice of the rest does too, so
  // the hunt exercises healing against faults the loop must NOT touch.
  plan.heal = has_heal_kind || rng.chance(0.35);
  return plan;
}

ChaosPlan shrink_plan(const ChaosPlan& plan,
                      const std::function<bool(const ChaosPlan&)>& still_fails) {
  ChaosPlan current = plan;
  bool progressed = true;
  while (progressed && current.events.size() > 1) {
    progressed = false;
    for (std::size_t i = 0; i < current.events.size(); ++i) {
      ChaosPlan candidate = current;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progressed = true;
        break;  // restart the removal pass on the smaller plan
      }
    }
  }
  return current;
}

HuntResult hunt(std::uint64_t start_seed, int attempts, const ChaosRunOptions& options) {
  HuntResult result;
  for (int i = 0; i < attempts; ++i) {
    std::uint64_t seed = start_seed + static_cast<std::uint64_t>(i);
    ChaosPlan plan = generate_random_plan(seed);
    ++result.runs;
    if (run_plan(plan, options).ok()) continue;
    result.found = true;
    result.seed = seed;
    result.minimal = shrink_plan(plan, [&result, &options](const ChaosPlan& candidate) {
      ++result.runs;
      return !run_plan(candidate, options).ok();
    });
    return result;
  }
  return result;
}

}  // namespace pingmesh::chaos
