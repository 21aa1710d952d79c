// Closed-loop self-healing tests (DESIGN.md §14): the planted-fault matrix
// (black-hole -> reload, spine silent-drop -> isolate+RMA, transient
// congestion -> deliberate no-action), the soak report's worker-count byte
// identity, the budget-exhaustion and day-rollover paths of the deferred
// reload queue, and the PR-4 / PR-9 chaos scenarios re-run with healing
// enabled to show repairs never fight SLB or serving-tier recovery.
// The upload-cadence case runs a healthy fleet whose uploads are at least
// the silent-pair grace apart: it must stay quiet until its fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "chaos/invariants.h"
#include "chaos/plan.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "heal/loop.h"
#include "heal/soak.h"
#include "netsim/fault.h"
#include "topology/topology.h"

namespace pingmesh::heal {
namespace {

using chaos::ChaosEvent;
using chaos::ChaosEventKind;
using chaos::ChaosPlan;
using chaos::ChaosRunOptions;
using chaos::ChaosRunResult;
using chaos::InvariantFinding;

ChaosPlan heal_plan(std::uint64_t seed, SimTime duration, SimTime settle) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.duration = duration;
  plan.settle = settle;
  plan.heal = true;
  return plan;
}

ChaosEvent blackhole(std::uint32_t pod, double magnitude, SimTime start, SimTime end) {
  ChaosEvent e;
  e.kind = ChaosEventKind::kTorBlackhole;
  e.entity = pod;
  e.magnitude = magnitude;
  e.start = start;
  e.end = end;
  return e;
}

const Incident* find_incident(const ChaosRunResult& r, IncidentAction action) {
  for (const Incident& inc : r.heal.incidents) {
    if (inc.action == action) return &inc;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Plan format: the heal directive and the new fault kinds
// ---------------------------------------------------------------------------

TEST(HealPlan, HealDirectiveAndNewKindsRoundTrip) {
  const std::string text =
      "# pingmesh chaos plan v1\n"
      "seed 7\n"
      "duration 20m\n"
      "settle 8m\n"
      "heal on\n"
      "event blackhole pod=3 prob=0.5 start=4m end=14m\n"
      "event spine-drop switch=1 prob=0.1 start=5m end=12m\n"
      "event congestion switch=9 prob=0.2 start=6m end=9m\n";
  auto plan = chaos::parse_plan(text);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->heal);
  ASSERT_EQ(plan->events.size(), 3u);
  EXPECT_EQ(plan->events[0].kind, ChaosEventKind::kTorBlackhole);
  EXPECT_DOUBLE_EQ(plan->events[0].magnitude, 0.5);
  EXPECT_EQ(plan->events[1].kind, ChaosEventKind::kSpineDrop);
  EXPECT_EQ(plan->events[2].kind, ChaosEventKind::kCongestion);

  auto replayed = chaos::parse_plan(chaos::to_text(*plan));
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, *plan);

  // heal defaults off and `heal off` parses back to the default.
  auto off = chaos::parse_plan("# pingmesh chaos plan v1\nheal off\n");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->heal);
}

// ---------------------------------------------------------------------------
// Planted-fault matrix: one scripted fault per repair path
// ---------------------------------------------------------------------------

TEST(HealLoop, BlackholeIsCorroboratedThenReloadedWithinDeadline) {
  // A partial ToR black-hole: the streaming fail-rate rule must trigger,
  // detect_blackholes must corroborate the same ToR, and the budgeted
  // reload must clear the injected fault — all inside the repair deadline.
  ChaosPlan plan = heal_plan(41, minutes(20), minutes(8));
  plan.events.push_back(blackhole(2, 0.5, minutes(4), minutes(14)));
  ChaosRunResult r = chaos::run_plan(plan);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 1u);
  EXPECT_EQ(r.heal.rmas_executed, 0u);
  const Incident* inc = find_incident(r, IncidentAction::kReload);
  ASSERT_NE(inc, nullptr);
  EXPECT_EQ(inc->state, IncidentState::kRecovered);
  // Timeline ordering: detect -> corroborate -> repair -> recover.
  EXPECT_LE(inc->detect, inc->corroborate);
  EXPECT_LE(inc->corroborate, inc->repair);
  EXPECT_LT(inc->repair, inc->recover);
  // Detection within 2 sim-minutes of injection, repair within the deadline.
  EXPECT_GE(inc->detect, minutes(4));
  EXPECT_LE(inc->detect, minutes(4) + minutes(2));
  EXPECT_LE(inc->repair, minutes(4) + chaos::kHealRepairDeadline);
  // Repair restored the pairs: post-recovery SLA above the pre-repair rate.
  EXPECT_GE(inc->sla_before, 0.0);
  EXPECT_GT(inc->sla_after, inc->sla_before);

  const InvariantFinding* repaired = r.report.find("blackhole-repaired");
  ASSERT_NE(repaired, nullptr);
  EXPECT_TRUE(repaired->applicable);
  EXPECT_TRUE(repaired->ok) << repaired->detail;
  const InvariantFinding* corroborated = r.report.find("corroborated-repair");
  ASSERT_NE(corroborated, nullptr);
  EXPECT_TRUE(corroborated->applicable);
  EXPECT_TRUE(corroborated->ok) << corroborated->detail;
}

TEST(HealLoop, SpineSilentDropIsIsolatedAndRmad) {
  // Silent random drops on a spine: reload cannot fix the fault class, so
  // the corroborated path must go straight to isolate + RMA (§5.1), and no
  // reload budget may be burned on it.
  ChaosPlan plan = heal_plan(43, minutes(20), minutes(8));
  ChaosEvent e;
  e.kind = ChaosEventKind::kSpineDrop;
  e.entity = 1;
  e.magnitude = 0.12;
  e.start = minutes(4);
  e.end = minutes(14);
  plan.events.push_back(e);
  ChaosRunResult r = chaos::run_plan(plan);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 0u);
  ASSERT_GE(r.heal.rmas_executed, 1u);
  const Incident* inc = find_incident(r, IncidentAction::kIsolateRma);
  ASSERT_NE(inc, nullptr);
  // The localizer must blame the injected spine itself.
  core::SimulationConfig base = core::chaos_test_config(plan.seed);
  topo::Topology topo = topo::Topology::build(base.dcs);
  EXPECT_EQ(inc->sw, chaos::resolve_event_switch(topo, e));
  EXPECT_GT(inc->repair, 0);
  const InvariantFinding* corroborated = r.report.find("corroborated-repair");
  ASSERT_NE(corroborated, nullptr);
  EXPECT_TRUE(corroborated->ok) << corroborated->detail;
}

TEST(HealLoop, TransientCongestionGetsNoRepair) {
  // Congestion inflates latency and drops some probes, but it is not a
  // switch fault the loop can fix: triggers must expire uncorroborated and
  // no repair of either kind may fire.
  ChaosPlan plan = heal_plan(47, minutes(20), minutes(8));
  ChaosEvent e;
  e.kind = ChaosEventKind::kCongestion;
  e.entity = 9;
  e.magnitude = 0.2;
  e.start = minutes(4);
  e.end = minutes(8);
  plan.events.push_back(e);
  ChaosRunResult r = chaos::run_plan(plan);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 0u);
  EXPECT_EQ(r.heal.rmas_executed, 0u);
  for (const Incident& inc : r.heal.incidents) {
    EXPECT_TRUE(inc.action == IncidentAction::kNone || inc.action == IncidentAction::kEscalate)
        << "congestion produced repair action " << incident_action_name(inc.action);
  }
}

// ---------------------------------------------------------------------------
// Upload cadence: a healthy fleet between uploads must not page
// ---------------------------------------------------------------------------

struct CadenceRun {
  std::vector<std::string> alerts;     ///< every alert row, in write order
  std::vector<std::string> incidents;  ///< Incident::to_line, in id order
  std::size_t stream_rows_before_fault = 0;
  std::uint64_t triggers_before_fault = 0;
  std::vector<Incident> kept;  ///< incidents that did not expire
  SwitchId tor;
};

/// small_test_config (seed 7) with streaming and heal on, uploading every
/// `upload_interval`, run to 25 min; pod 3's ToR black-holes every pair
/// from 15 min on.
CadenceRun run_cadence(SimTime upload_interval, int workers) {
  core::SimulationConfig cfg = core::small_test_config(7);
  cfg.agent.upload_interval = upload_interval;
  cfg.streaming.enabled = true;
  cfg.worker_threads = workers;
  core::PingmeshSimulation sim(cfg);
  CadenceRun out;
  out.tor = sim.topology().pod(PodId{3}).tor;
  sim.faults().add_blackhole(out.tor, netsim::BlackholeMode::kSrcDstPair, 1.0, minutes(15));
  HealingLoop loop(sim);
  loop.attach();

  sim.run_until(minutes(15) - 1);
  out.triggers_before_fault = loop.triggers_seen();
  sim.run_until(minutes(25));

  for (const dsa::AlertRow& a : sim.db().alerts) {
    if (a.time < minutes(15) && a.rule.rfind("stream:", 0) == 0) ++out.stream_rows_before_fault;
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", a.value);
    out.alerts.push_back(std::to_string(a.time) + " " + a.rule + " " + a.scope + " " + value +
                         " " + a.message);
  }
  for (const Incident& inc : loop.incidents()) {
    out.incidents.push_back(inc.to_line());
    if (inc.state != IncidentState::kExpired) out.kept.push_back(inc);
  }
  return out;
}

class UploadCadenceTest : public ::testing::TestWithParam<int> {};

TEST_P(UploadCadenceTest, HealthyFleetStaysQuietAndBlackholeIsReloaded) {
  // default_config uploads once a minute, twice the silent-pair grace, and
  // small_test_config every 30 s, equal to it. Either way a healthy pair's
  // newest success is often 30 s old or more when an evaluation runs: it is
  // waiting on an upload, not silent. Nothing may page before the fault,
  // and the fault must come out as one reload of the black-holed ToR whose
  // alerts all close again, which needs clean evaluations in a row.
  const SimTime upload = seconds(GetParam());
  CadenceRun serial = run_cadence(upload, 1);
  EXPECT_EQ(serial.stream_rows_before_fault, 0u);
  EXPECT_EQ(serial.triggers_before_fault, 0u);
  ASSERT_EQ(serial.kept.size(), 1u);
  const Incident& inc = serial.kept[0];
  EXPECT_EQ(inc.action, IncidentAction::kReload);
  EXPECT_EQ(inc.sw, serial.tor);
  EXPECT_GE(inc.detect, minutes(15));
  EXPECT_EQ(inc.state, IncidentState::kRecovered) << inc.to_line();

  CadenceRun sharded = run_cadence(upload, 4);
  EXPECT_EQ(serial.alerts, sharded.alerts);
  EXPECT_EQ(serial.incidents, sharded.incidents);
}

INSTANTIATE_TEST_SUITE_P(UploadSeconds, UploadCadenceTest, ::testing::Values(60, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Every" + std::to_string(info.param) + "s";
                         });

// ---------------------------------------------------------------------------
// Reload budget: exhaustion surfaces deferred repairs, rollover executes them
// ---------------------------------------------------------------------------

TEST(HealLoop, BudgetExhaustionSurfacesDeferredRepairInReport) {
  // With a zero reload budget the corroborated blame must be parked, never
  // silently dropped: the incident stays deferred, the outcome counts the
  // parked request, and the blackhole-repaired invariant flags the miss.
  core::SimulationConfig base = core::chaos_test_config(53);
  base.repair.max_reloads_per_day = 0;
  ChaosRunOptions opts;
  opts.base_config = &base;
  ChaosPlan plan = heal_plan(53, minutes(20), minutes(8));
  plan.events.push_back(blackhole(1, 0.5, minutes(4), minutes(14)));
  ChaosRunResult r = chaos::run_plan(plan, opts);

  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 0u);
  EXPECT_EQ(r.heal.deferred_pending, 1u);
  ASSERT_EQ(r.heal.incidents.size(), 1u);
  EXPECT_TRUE(r.heal.incidents[0].deferred);
  EXPECT_EQ(r.heal.incidents[0].state, IncidentState::kCorroborated);
  // The miss is surfaced, not hidden: the repair invariant must fail.
  const InvariantFinding* repaired = r.report.find("blackhole-repaired");
  ASSERT_NE(repaired, nullptr);
  EXPECT_TRUE(repaired->applicable);
  EXPECT_FALSE(repaired->ok);
}

TEST(HealLoop, DeferredReloadExecutesAtDayRolloverMidSoak) {
  // Two black-holes, budget of one reload per (shrunk) day: the second
  // blame is parked behind the budget and must execute the moment the day
  // rolls over mid-run — still inside its repair deadline.
  core::SimulationConfig base = core::chaos_test_config(59);
  base.repair.max_reloads_per_day = 1;
  base.repair.day_length = minutes(10);
  ChaosRunOptions opts;
  opts.base_config = &base;
  ChaosPlan plan = heal_plan(59, minutes(18), minutes(8));
  plan.events.push_back(blackhole(1, 0.5, minutes(2), minutes(8)));
  plan.events.push_back(blackhole(5, 0.5, minutes(5), minutes(16)));
  ChaosRunResult r = chaos::run_plan(plan, opts);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 2u);
  EXPECT_EQ(r.heal.deferred_executed, 1u);
  EXPECT_EQ(r.heal.deferred_pending, 0u);
  const Incident* parked = nullptr;
  for (const Incident& inc : r.heal.incidents) {
    if (inc.deferred) parked = &inc;
  }
  ASSERT_NE(parked, nullptr);
  EXPECT_EQ(parked->state, IncidentState::kRecovered);
  // Parked within day 0, executed at the first tick of day 1.
  EXPECT_LT(parked->corroborate, minutes(10));
  EXPECT_GE(parked->repair, minutes(10));
  EXPECT_LE(parked->repair, minutes(5) + chaos::kHealRepairDeadline);
}

// ---------------------------------------------------------------------------
// Healing must not fight other recovery machinery (PR-4 / PR-9 scenarios)
// ---------------------------------------------------------------------------

TEST(HealLoop, SlbHalfOpenRecoveryUnaffectedByHealing) {
  // The PR-4 SLB chaos scenario with the loop attached: a flapping
  // controller replica is the SLB's problem, not a switch fault — the loop
  // must execute zero repairs while the VIP walks its half-open path and
  // re-admits the replica.
  ChaosPlan plan = heal_plan(13, minutes(24), minutes(10));
  ChaosEvent flap;
  flap.kind = ChaosEventKind::kSlbFlap;
  flap.entity = 0;
  flap.param = minutes(2);
  flap.start = minutes(3);
  flap.end = minutes(20);
  plan.events.push_back(flap);
  ChaosRunResult r = chaos::run_plan(plan);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  EXPECT_GT(r.totals.slb_half_open_trials, 0u)
      << "flap never drove the VIP through its half-open path";
  EXPECT_EQ(r.totals.slb_healthy, r.totals.slb_backends)
      << "replica not re-admitted after the flap window closed";
  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 0u);
  EXPECT_EQ(r.heal.rmas_executed, 0u);
}

TEST(HealLoop, ServeRestartRecoveryUnaffectedByHealing) {
  // The PR-9 serving-tier chaos scenario with the loop attached: replica
  // kills and recoveries must still rebuild digest-identical, and the loop
  // must not mistake the restart churn for a network fault.
  ChaosPlan plan = heal_plan(29, minutes(30), minutes(10));
  plan.events.push_back({ChaosEventKind::kServeRestart, minutes(5), minutes(12), 0});
  plan.events.push_back({ChaosEventKind::kServeRestart, minutes(14), minutes(21), 1});
  ChaosRunResult r = chaos::run_plan(plan);
  EXPECT_TRUE(r.ok()) << r.report.to_text();

  ASSERT_TRUE(r.serve.ran);
  EXPECT_EQ(r.serve.restarts, 2u);
  EXPECT_EQ(r.serve.digest_mismatches, 0u);
  EXPECT_TRUE(r.serve.final_digests_equal);
  EXPECT_TRUE(r.serve.conservation_ok);
  EXPECT_EQ(r.serve.failed_with_replicas, 0u);
  ASSERT_TRUE(r.heal.ran);
  EXPECT_EQ(r.heal.reloads_executed, 0u);
  EXPECT_EQ(r.heal.rmas_executed, 0u);
}

// ---------------------------------------------------------------------------
// Soak runner: determinism and report integrity
// ---------------------------------------------------------------------------

TEST(SoakRunner, ReportIsByteIdenticalAtOneAndFourWorkers) {
  SoakConfig cfg;
  cfg.seed = 7;
  cfg.episodes = 2;
  cfg.episode_duration = minutes(20);

  cfg.worker_threads = 1;
  SoakReport serial = run_soak(cfg);
  cfg.worker_threads = 4;
  SoakReport sharded = run_soak(cfg);

  EXPECT_EQ(serial.to_json(), sharded.to_json());
  EXPECT_EQ(serial.to_text(), sharded.to_text());
  // And the fixed CI seed's gates hold at this smaller scale too.
  EXPECT_TRUE(serial.invariants_ok);
  EXPECT_EQ(serial.false_reloads, 0);
  EXPECT_EQ(serial.unrepaired_blackholes, 0);
  EXPECT_GT(serial.injected_blackholes, 0);
  EXPECT_GT(serial.mttd_n, 0);
  EXPECT_LE(serial.mttd_seconds(), 120.0);
}

TEST(SoakRunner, GeneratedPlansAreValidHealFocusedAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    chaos::ChaosPlan plan = generate_soak_plan(seed, minutes(30));
    EXPECT_TRUE(plan.heal);
    EXPECT_EQ(chaos::validate_plan(plan), std::nullopt);
    bool has_blackhole = false;
    for (const ChaosEvent& e : plan.events) {
      if (e.kind == ChaosEventKind::kTorBlackhole) {
        has_blackhole = true;
        EXPECT_GE(e.magnitude, 0.3);
        EXPECT_GE(e.end - e.start, minutes(10));
      }
    }
    EXPECT_TRUE(has_blackhole) << "soak plan " << seed << " has no black-hole to repair";
    EXPECT_EQ(chaos::to_text(plan), chaos::to_text(generate_soak_plan(seed, minutes(30))));
  }
}

TEST(SoakRunner, ZeroBudgetSoakSurfacesDeferralsInReport) {
  core::SimulationConfig base = core::chaos_test_config(7);
  base.repair.max_reloads_per_day = 0;
  SoakConfig cfg;
  cfg.seed = 7;
  cfg.episodes = 1;
  cfg.episode_duration = minutes(20);
  cfg.base_config = &base;
  SoakReport rep = run_soak(cfg);

  EXPECT_EQ(rep.reload_budget_per_day, 0);
  EXPECT_EQ(rep.reloads, 0);
  EXPECT_GE(rep.deferred_pending, 1);
  EXPECT_GE(rep.unrepaired_blackholes, 1);
  // The miss shows up as a violated invariant, never as a silent pass.
  EXPECT_FALSE(rep.invariants_ok);
}

}  // namespace
}  // namespace pingmesh::heal
