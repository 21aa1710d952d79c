// Quickstart: stand up a complete Pingmesh deployment on the simulator,
// let it run for a virtual hour, and look at what the system produces —
// latency SLAs, the pod-pair heatmap, and the "is it a network issue?"
// answer (paper §4.3).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "analysis/heatmap.h"
#include "analysis/sla.h"
#include "common/stats.h"
#include "core/scenarios.h"
#include "core/simulation.h"

int main() {
  using namespace pingmesh;

  // 1. A deployment: one small data center, every server runs an agent,
  //    the controller generates pinglists from the topology, the DSA
  //    pipeline aggregates on virtual time.
  core::SimulationConfig cfg = core::small_test_config(/*seed=*/2026);
  core::PingmeshSimulation sim(cfg);
  std::printf("Pingmesh quickstart: %zu servers, %zu switches, %zu pods\n",
              sim.topology().server_count(), sim.topology().switch_count(),
              sim.topology().pods().size());

  // 2. Track a service: SLA is computed per service by mapping it to the
  //    servers it runs on.
  const auto& pod0 = sim.topology().pods()[0];
  ServiceId search = sim.services().add_service("Search", pod0.servers);

  // 3. Run ~75 virtual minutes of always-on probing (enough for the hourly
  //    SCOPE job to land in the database).
  sim.run_for(minutes(75));
  std::printf("probes fired: %lu, records stored: %lu, db rows: %zu\n",
              static_cast<unsigned long>(sim.total_probes()),
              static_cast<unsigned long>(sim.cosmos().total_records()),
              sim.db().total_rows());

  // 4. Network SLA of the data center (drop rate + P50/P99, §4.3).
  for (const auto& row : sim.db().sla_rows) {
    if (row.scope == dsa::SlaScope::kDc) {
      std::printf("DC SLA   window@%4.0fmin: P50 %8s  P99 %8s  drop %s  (%lu probes)\n",
                  to_seconds(row.window_start) / 60.0,
                  format_latency_ns(row.p50_ns).c_str(),
                  format_latency_ns(row.p99_ns).c_str(),
                  format_rate(row.drop_rate()).c_str(),
                  static_cast<unsigned long>(row.probes));
    }
  }

  // 5. The question the system exists to answer: is the Search slowdown a
  //    network issue?
  analysis::IssueVerdict verdict = analysis::judge_network_issue(
      sim.db(), dsa::SlaScope::kService, search.value, 0, sim.now());
  std::printf("\n\"Is it a network issue?\" for Search: %s\n  evidence: %s\n",
              verdict.network_issue ? "YES" : "no", verdict.evidence.c_str());

  // 6. The visualization everyone keeps open (§6.3): pod-pair P99 heatmap.
  analysis::Heatmap map(sim.topology(), DcId{0});
  map.load(sim.db().latest_pod_pair_window());
  analysis::PatternResult pattern = analysis::classify_pattern(map);
  std::printf("\npod-pair heatmap (G green, Y yellow, R red, . no data):\n%s",
              map.ascii().c_str());
  std::printf("pattern: %s (green %.0f%%)\n",
              analysis::latency_pattern_name(pattern.pattern),
              pattern.green_fraction * 100);

  // 7. Watchdogs (Autopilot keeps Pingmesh itself honest, §3.5).
  std::printf("\nwatchdogs:\n");
  for (const auto& check : sim.watchdogs().run_checks(sim.now())) {
    std::printf("  [%s] %s: %s\n", autopilot::health_name(check.health),
                check.name.c_str(), check.message.c_str());
  }
  return 0;
}
