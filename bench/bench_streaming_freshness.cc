// Detection-latency comparison of the three data paths (DESIGN.md §8):
//
//   streaming  — upload-time tap -> sliding windows -> alert rules
//   PA         — 5-minute Perfcounter Aggregator fast path (§3.5)
//   batch      — 10-min SCOPE pod-pair job behind the Cosmos ingestion
//                delay (paper end-to-end freshness "around 20 minutes")
//
// Two injected faults, one per failure shape:
//   1. full ToR blackhole (TCAM corruption): deterministic SYN loss ->
//      failures, no 3s/9s signatures. The PA path is structurally blind to
//      it (its estimator counts signatures over successes); only the
//      streaming silent-pair rule and the batch failure counters see it.
//   2. spine silent random drop: lost SYNs retransmit -> 3s signatures ->
//      all three paths detect, at their respective cadences.
//
// Detection latency = fault start -> first alert (streaming/PA) or -> the
// instant the first breaching pod-pair row becomes available to SCOPE
// (window end + ingestion delay; rows cannot exist earlier by construction).
//
// Exit code is 0 iff the blackhole scenario meets the headline claim:
// streaming under one simulated minute, batch at ten minutes or more.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/database.h"
#include "netsim/fault.h"
#include "topology/topology.h"

namespace {

using namespace pingmesh;

struct Detection {
  std::optional<SimTime> streaming;
  std::optional<SimTime> pa;
  std::optional<SimTime> batch;
};

std::string fmt(std::optional<SimTime> d) {
  if (!d) return "never";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f s", to_seconds(*d));
  return buf;
}

double metric(std::optional<SimTime> d) { return d ? to_seconds(*d) : -1.0; }

/// Latency from t0 to the first alert after t0 whose rule starts with
/// `prefix` (alerts opening at exactly t0 reflect pre-fault state).
std::optional<SimTime> first_alert(const dsa::Database& db, SimTime t0,
                                   const std::string& prefix) {
  std::optional<SimTime> best;
  for (const dsa::AlertRow& a : db.alerts) {
    if (a.time <= t0 || a.rule.rfind(prefix, 0) != 0) continue;
    if (!best || a.time - t0 < *best) best = a.time - t0;
  }
  return best;
}

/// Earliest availability of a breaching batch row covering the fault: the
/// pod-pair window must close AND clear the Cosmos ingestion delay before
/// SCOPE can scan it.
template <typename Breach>
std::optional<SimTime> first_batch_row(const dsa::Database& db, SimTime t0,
                                       SimTime ingestion_delay, Breach breach) {
  std::optional<SimTime> best;
  for (const dsa::PodPairStatRow& row : db.pod_pair_stats) {
    if (row.window_end <= t0 || !breach(row)) continue;
    SimTime avail = row.window_end + ingestion_delay - t0;
    if (!best || avail < *best) best = avail;
  }
  return best;
}

core::SimulationConfig scenario_config(std::uint64_t seed) {
  core::SimulationConfig cfg = core::streaming_test_config(seed);
  // The paper's production ingestion delay (§3.3 gives batch end-to-end
  // freshness of ~20 min for a 10-min job); the test config shortens it.
  cfg.ingestion_delay = minutes(10);
  return cfg;
}

Detection run_blackhole() {
  core::SimulationConfig cfg = scenario_config(21);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(40));
  SimTime t0 = sim.now();
  SwitchId tor = sim.topology().pod(PodId{0}).tor;
  sim.faults().add_blackhole(tor, netsim::BlackholeMode::kSrcDstPair, 1.0, t0);
  sim.run_for(minutes(40));

  Detection d;
  d.streaming = first_alert(sim.db(), t0, "stream:");
  d.pa = first_alert(sim.db(), t0, "pa:");
  d.batch = first_batch_row(sim.db(), t0, cfg.ingestion_delay,
                            [](const dsa::PodPairStatRow& r) {
                              return r.probes > 0 && r.failures > 0 &&
                                     static_cast<double>(r.failures) >
                                         0.25 * static_cast<double>(r.probes);
                            });
  return d;
}

Detection run_silent_drops() {
  core::SimulationConfig cfg = scenario_config(22);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(40));
  SimTime t0 = sim.now();
  SwitchId spine = sim.topology().dc(DcId{0}).spines[0];
  sim.faults().add_silent_random_drop(spine, 0.15, t0);
  sim.run_for(minutes(40));

  Detection d;
  d.streaming = first_alert(sim.db(), t0, "stream:");
  d.pa = first_alert(sim.db(), t0, "pa:");
  d.batch = first_batch_row(sim.db(), t0, cfg.ingestion_delay,
                            [](const dsa::PodPairStatRow& r) {
                              return r.drop_signatures >= 3 && r.drop_rate() > 1e-3;
                            });
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);

  bench::heading("Detection freshness: streaming vs PA (5 min) vs SCOPE batch (10 min)");
  bench::note("fault injected after 40 min warm-up; latency = fault start -> first");
  bench::note("alert (streaming/PA) or first breaching row available to SCOPE (batch)");

  Detection bh = run_blackhole();
  bench::heading("Scenario 1: full ToR blackhole (failures, no SYN-loss signatures)");
  bench::compare_row("streaming silent-pair detection", "< 1 min goal", fmt(bh.streaming));
  bench::compare_row("PA 5-min path", "blind (no signatures)", fmt(bh.pa));
  bench::compare_row("batch pod-pair path", ">= 10 min", fmt(bh.batch));
  bench::json_metric("blackhole_streaming_detection_s", metric(bh.streaming), "s");
  bench::json_metric("blackhole_pa_detection_s", metric(bh.pa), "s");
  bench::json_metric("blackhole_batch_detection_s", metric(bh.batch), "s");

  Detection sd = run_silent_drops();
  bench::heading("Scenario 2: spine silent random drops (3s SYN-loss signatures)");
  bench::compare_row("streaming drop-spike detection", "< 1 min goal", fmt(sd.streaming));
  bench::compare_row("PA 5-min path", "<= 2 periods (10 min)", fmt(sd.pa));
  bench::compare_row("batch pod-pair path", ">= 10 min", fmt(sd.batch));
  bench::json_metric("silent_drop_streaming_detection_s", metric(sd.streaming), "s");
  bench::json_metric("silent_drop_pa_detection_s", metric(sd.pa), "s");
  bench::json_metric("silent_drop_batch_detection_s", metric(sd.batch), "s");

  if (bh.streaming && bh.batch) {
    bench::json_metric("blackhole_freshness_ratio",
                       to_seconds(*bh.batch) / to_seconds(*bh.streaming), "x");
  }

  bool ok = bh.streaming && to_seconds(*bh.streaming) < 60.0 && bh.batch &&
            to_seconds(*bh.batch) >= 600.0;
  bench::heading(ok ? "PASS: sub-minute streaming detection, >= 10 min batch"
                    : "FAIL: detection-latency targets missed");
  return ok ? 0 : 1;
}
