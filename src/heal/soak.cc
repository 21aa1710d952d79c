#include "heal/soak.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "chaos/injector.h"
#include "common/rng.h"
#include "core/scenarios.h"
#include "topology/topology.h"

namespace pingmesh::heal {

namespace {

/// Salt for deriving per-episode plan seeds from the soak seed.
constexpr std::uint64_t kSoakSalt = 0x50A4C0DEu;

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

chaos::ChaosPlan generate_soak_plan(std::uint64_t seed, SimTime duration) {
  Rng rng(mix_key(seed, kSoakSalt));
  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.duration = duration;
  plan.settle = duration / 3;
  plan.heal = true;

  auto window = [&rng, duration](SimTime earliest, SimTime min_len, SimTime jitter) {
    SimTime start = earliest + seconds(rng.uniform_u32(
                                   static_cast<std::uint32_t>(jitter / kNanosPerSecond)));
    SimTime end = std::min<SimTime>(
        start + min_len + seconds(rng.uniform_u32(6 * 60)), duration);
    return std::pair<SimTime, SimTime>{start, end};
  };

  // Always one catchable partial ToR black-hole: strong enough for the
  // streaming fail-rate rule, active well past the repair deadline, started
  // after the streaming windows have warmed up.
  chaos::ChaosEvent bh;
  bh.kind = chaos::ChaosEventKind::kTorBlackhole;
  bh.entity = rng.uniform_u32(4096);
  bh.magnitude = rng.uniform(0.3, 0.6);
  auto [bs, be] = window(minutes(2), minutes(10), minutes(5));
  bh.start = bs;
  bh.end = be;
  plan.events.push_back(bh);

  if (rng.chance(0.25)) {
    // Occasionally a second black-hole on an independently drawn pod, so
    // soaks exercise multi-incident bookkeeping and the reload budget.
    chaos::ChaosEvent bh2 = bh;
    bh2.entity = rng.uniform_u32(4096);
    bh2.magnitude = rng.uniform(0.3, 0.6);
    auto [s2, e2] = window(minutes(4), minutes(10), minutes(6));
    bh2.start = s2;
    bh2.end = e2;
    plan.events.push_back(bh2);
  }
  if (rng.chance(0.3)) {
    chaos::ChaosEvent e;
    e.kind = chaos::ChaosEventKind::kSpineDrop;
    e.entity = rng.uniform_u32(4096);
    e.magnitude = rng.uniform(0.05, 0.15);
    auto [s, t] = window(minutes(3), minutes(8), minutes(6));
    e.start = s;
    e.end = t;
    plan.events.push_back(e);
  }
  if (rng.chance(0.4)) {
    // Transient congestion: the loop must deliberately do nothing.
    chaos::ChaosEvent e;
    e.kind = chaos::ChaosEventKind::kCongestion;
    e.entity = rng.uniform_u32(4096);
    e.magnitude = rng.uniform(0.05, 0.3);
    auto [s, t] = window(minutes(3), minutes(3), minutes(8));
    e.start = s;
    e.end = t;
    plan.events.push_back(e);
  }
  if (rng.chance(0.3)) {
    // A crashed server must not be blamed on its ToR (liveness exclusion).
    chaos::ChaosEvent e;
    e.kind = chaos::ChaosEventKind::kServerCrash;
    e.entity = rng.uniform_u32(4096);
    auto [s, t] = window(minutes(3), minutes(4), minutes(8));
    e.start = s;
    e.end = t;
    plan.events.push_back(e);
  }
  return plan;
}

SoakReport run_soak(const SoakConfig& config) {
  SoakReport rep;
  rep.seed = config.seed;
  rep.episodes = config.episodes;

  core::SimulationConfig base = config.base_config != nullptr
                                    ? *config.base_config
                                    : core::chaos_test_config(config.seed);
  rep.reload_budget_per_day = base.repair.max_reloads_per_day;
  // The joins below need event -> switch resolution on the episode
  // topology; every episode shares the base topology shape.
  topo::Topology topo = topo::Topology::build(base.dcs);

  chaos::ChaosRunOptions opts;
  opts.worker_threads = config.worker_threads;
  opts.base_config = config.base_config;

  for (int i = 0; i < config.episodes; ++i) {
    std::uint64_t plan_seed = mix_key(config.seed, kSoakSalt,
                                      static_cast<std::uint64_t>(i));
    chaos::ChaosPlan plan = generate_soak_plan(plan_seed, config.episode_duration);
    chaos::ChaosRunResult result = chaos::run_plan(plan, opts);

    SoakEpisode ep;
    ep.plan_seed = plan.seed;
    ep.events = plan.events.size();
    ep.invariants_ok = result.ok();
    rep.invariants_ok = rep.invariants_ok && result.ok();
    rep.sim_time += plan.duration + plan.settle;
    rep.total_probes += result.total_probes;

    const chaos::HealChaosOutcome& heal = result.heal;
    rep.triggers += heal.triggers_seen;
    rep.incidents += static_cast<int>(heal.incidents.size());
    rep.reloads += static_cast<int>(heal.reloads_executed);
    rep.rmas += static_cast<int>(heal.rmas_executed);
    rep.deferred_executed += static_cast<int>(heal.deferred_executed);
    rep.deferred_pending += static_cast<int>(heal.deferred_pending);
    for (const Incident& inc : heal.incidents) {
      if (inc.state == IncidentState::kEscalated) ++rep.escalations;
      if (inc.state == IncidentState::kExpired) ++rep.expired;
      if (inc.state == IncidentState::kRecovered) ++rep.recovered;
      if (inc.sla_before >= 0.0 && inc.sla_after >= 0.0) {
        rep.sla_before_sum += inc.sla_before;
        rep.sla_after_sum += inc.sla_after;
        ++rep.sla_n;
      }
    }

    // Join injected black-holes against the loop's incidents.
    std::set<std::uint32_t> blackholed;
    for (const chaos::ChaosEvent& e : plan.events) {
      if (e.kind != chaos::ChaosEventKind::kTorBlackhole) continue;
      blackholed.insert(chaos::resolve_event_switch(topo, e).value);
    }
    for (const chaos::ChaosEvent& e : plan.events) {
      if (e.kind != chaos::ChaosEventKind::kTorBlackhole) continue;
      ++rep.injected_blackholes;
      ++ep.injected_blackholes;
      SwitchId sw = chaos::resolve_event_switch(topo, e);
      // Prefer the first incident detected at/after this injection; fall
      // back to any incident on the switch (re-injection into a pod whose
      // prior incident is still open folds into that incident).
      const Incident* match = nullptr;
      for (const Incident& inc : heal.incidents) {
        if (inc.sw != sw) continue;
        if (inc.detect >= e.start &&
            (match == nullptr || match->detect < e.start || inc.detect < match->detect)) {
          match = &inc;
        } else if (match == nullptr) {
          match = &inc;
        }
      }
      bool repaired = match != nullptr && match->repair > 0 &&
                      match->repair <= e.start + chaos::kHealRepairDeadline;
      if (repaired) {
        ++ep.repaired_blackholes;
      } else {
        ++rep.unrepaired_blackholes;
      }
      if (match != nullptr && match->detect >= e.start) {
        rep.mttd_sum += match->detect - e.start;
        ++rep.mttd_n;
        if (match->recover > match->detect) {
          rep.mttr_sum += match->recover - e.start;
          ++rep.mttr_n;
        }
      }
    }
    // A reload (including one later escalated to RMA) on a switch the plan
    // never black-holed burned budget and rebooted healthy gear.
    for (const Incident& inc : heal.incidents) {
      bool did_reload = inc.repair > 0 &&
                        (inc.action == IncidentAction::kReload || inc.escalated_rma);
      if (did_reload && !blackholed.contains(inc.sw.value)) ++rep.false_reloads;
    }

    rep.episode_details.push_back(ep);
  }
  return rep;
}

std::string SoakReport::to_text() const {
  std::string out;
  out += "soak seed=" + std::to_string(seed) + " episodes=" + std::to_string(episodes) +
         " sim-minutes=" + fmt3(to_seconds(sim_time) / 60.0) +
         " probes=" + std::to_string(total_probes) + "\n";
  out += "loop: triggers=" + std::to_string(triggers) +
         " incidents=" + std::to_string(incidents) + " reloads=" + std::to_string(reloads) +
         " rmas=" + std::to_string(rmas) + " escalations=" + std::to_string(escalations) +
         " expired=" + std::to_string(expired) + " recovered=" + std::to_string(recovered) +
         "\n";
  out += "blackholes: injected=" + std::to_string(injected_blackholes) +
         " unrepaired=" + std::to_string(unrepaired_blackholes) +
         " false-reloads=" + std::to_string(false_reloads) + " (budget " +
         std::to_string(reload_budget_per_day) + "/day)\n";
  out += "deferred: executed=" + std::to_string(deferred_executed) +
         " pending=" + std::to_string(deferred_pending) + "\n";
  out += "mttd=" + fmt3(mttd_seconds()) + "s (" + std::to_string(mttd_n) + " samples) mttr=" +
         fmt3(mttr_seconds()) + "s (" + std::to_string(mttr_n) + " samples)\n";
  if (sla_n > 0) {
    out += "sla: before=" + fmt3(sla_before_sum / sla_n) +
           " after=" + fmt3(sla_after_sum / sla_n) + " (" + std::to_string(sla_n) +
           " incidents)\n";
  }
  out += std::string("invariants: ") + (invariants_ok ? "OK" : "VIOLATED") + "\n";
  for (const SoakEpisode& ep : episode_details) {
    out += "  episode seed=" + std::to_string(ep.plan_seed) +
           " events=" + std::to_string(ep.events) +
           " blackholes=" + std::to_string(ep.injected_blackholes) + "/" +
           std::to_string(ep.repaired_blackholes) + " repaired invariants=" +
           (ep.invariants_ok ? "OK" : "VIOLATED") + "\n";
  }
  return out;
}

std::string SoakReport::to_json() const {
  std::string out = "{\n";
  auto add_u = [&out](const char* k, std::uint64_t v, bool comma = true) {
    out += std::string("  \"") + k + "\": " + std::to_string(v) + (comma ? ",\n" : "\n");
  };
  auto add_d = [&out](const char* k, double v, bool comma = true) {
    out += std::string("  \"") + k + "\": " + fmt3(v) + (comma ? ",\n" : "\n");
  };
  add_u("seed", seed);
  add_u("episodes", static_cast<std::uint64_t>(episodes));
  add_d("sim_minutes", to_seconds(sim_time) / 60.0);
  add_u("total_probes", total_probes);
  add_u("triggers", triggers);
  add_u("incidents", static_cast<std::uint64_t>(incidents));
  add_u("reloads", static_cast<std::uint64_t>(reloads));
  add_u("rmas", static_cast<std::uint64_t>(rmas));
  add_u("escalations", static_cast<std::uint64_t>(escalations));
  add_u("expired", static_cast<std::uint64_t>(expired));
  add_u("recovered", static_cast<std::uint64_t>(recovered));
  add_u("injected_blackholes", static_cast<std::uint64_t>(injected_blackholes));
  add_u("unrepaired_blackholes", static_cast<std::uint64_t>(unrepaired_blackholes));
  add_u("false_reloads", static_cast<std::uint64_t>(false_reloads));
  add_u("reload_budget_per_day", static_cast<std::uint64_t>(reload_budget_per_day));
  add_u("deferred_executed", static_cast<std::uint64_t>(deferred_executed));
  add_u("deferred_pending", static_cast<std::uint64_t>(deferred_pending));
  add_d("mttd_s", mttd_seconds());
  add_u("mttd_samples", static_cast<std::uint64_t>(mttd_n));
  add_d("mttr_s", mttr_seconds());
  add_u("mttr_samples", static_cast<std::uint64_t>(mttr_n));
  add_d("sla_before", sla_n ? sla_before_sum / sla_n : -1.0);
  add_d("sla_after", sla_n ? sla_after_sum / sla_n : -1.0);
  out += std::string("  \"invariants_ok\": ") + (invariants_ok ? "true" : "false") + "\n";
  out += "}\n";
  return out;
}

}  // namespace pingmesh::heal
