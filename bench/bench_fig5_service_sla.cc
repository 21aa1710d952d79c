// Figure 5 reproduction: the two network-SLA metrics of one service over a
// normal period — P99 latency and packet drop rate.
//
// Paper: "Figure 5 shows these two metrics for a service in one normal
// week. The packet drop rate is around 4e-5 and the 99th percentile latency
// in a data center is 500-560us. (The latency shows a periodical pattern.
// This is because this service performs high throughput data sync
// periodically which increases the 99th percentile latency.)"
//
// Reproduction: a full-loop simulation over three days; the service's pods
// run a data-sync burst for one hour every six hours (extra queueing on
// their ToRs, no extra loss). Shape targets: flat drop rate in the
// 1e-4..1e-5 band, P99 with clear periodic peaks, neither metric crossing
// the alert thresholds (it is a *normal* week).
#include <cstdio>

#include "analysis/sla.h"
#include "bench_util.h"
#include "common/ascii_chart.h"
#include "core/scenarios.h"
#include "core/simulation.h"

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  using namespace pingmesh;
  bench::heading("Figure 5: per-service network SLA over a normal period");

  core::SimulationConfig cfg = core::small_test_config(505);
  cfg.ingestion_delay = minutes(5);
  core::PingmeshSimulation sim(cfg);

  // The service spans the first two pods.
  std::vector<ServerId> members = sim.topology().pods()[0].servers;
  const auto& pod1 = sim.topology().pods()[1].servers;
  members.insert(members.end(), pod1.begin(), pod1.end());
  ServiceId service = sim.services().add_service("Search", members);

  // Periodic data sync: one hour of ToR queue build-up every six hours.
  const SimTime kTotal = days(3);
  for (SimTime start = hours(5); start < kTotal; start += hours(6)) {
    for (std::size_t pod = 0; pod < 2; ++pod) {
      sim.faults().add_congestion(sim.topology().pods()[pod].tor, /*queue_scale=*/2.5,
                                  /*drop_prob=*/0.0, start, start + hours(1));
    }
  }

  sim.run_for(kTotal + hours(2));

  auto series = analysis::sla_time_series(sim.db(), dsa::SlaScope::kService, service.value);
  std::printf("  hourly windows: %zu\n\n", series.size());
  std::printf("  the 99th percentile latency (Figure 5(a) shape):\n");
  double peak_p99 = 0, base_p99 = 1e18;
  double drop_min = 1e18, drop_max = 0;
  std::vector<std::pair<std::string, double>> p99_series;
  std::vector<std::pair<std::string, double>> drop_series;
  for (const auto& point : series) {
    if (point.probes < 100) continue;
    char label[24];
    std::snprintf(label, sizeof(label), "h%02.0f", to_seconds(point.window_start) / 3600.0);
    p99_series.emplace_back(label, to_micros(point.p99_ns));
    drop_series.emplace_back(label, point.drop_rate);
    peak_p99 = std::max(peak_p99, static_cast<double>(point.p99_ns));
    base_p99 = std::min(base_p99, static_cast<double>(point.p99_ns));
    drop_min = std::min(drop_min, point.drop_rate);
    drop_max = std::max(drop_max, point.drop_rate);
  }
  std::fputs(ascii_chart(p99_series, AsciiChartOptions{.width = 50, .unit = "us"}).c_str(),
             stdout);
  std::printf("\n  packet drop rate (Figure 5(b) shape):\n");
  std::fputs(
      ascii_chart(drop_series, AsciiChartOptions{.width = 50, .log_scale = true, .unit = ""}).c_str(),
      stdout);

  bench::heading("summary vs paper");
  bench::compare_row("baseline P99 (per-DC value)", "500-560us",
                     format_latency_ns(static_cast<std::int64_t>(base_p99)));
  bench::compare_row("P99 shows periodic data-sync peaks", "yes",
                     peak_p99 > 1.5 * base_p99 ? "yes" : "no");
  bench::compare_row("drop rate band", "~4e-5",
                     format_rate(drop_max > 0 ? drop_max : drop_min));

  // No alerts in a normal week.
  std::size_t alerts = sim.db().alerts.size();
  std::printf("  alerts fired (normal period => none expected): %zu\n", alerts);

  bench::heading("shape checks");
  bool periodic = peak_p99 > 1.5 * base_p99;
  bool drop_in_band = drop_max < 5e-4;
  bool quiet = alerts == 0;
  bench::note(std::string("periodic P99 pattern:      ") + (periodic ? "yes" : "NO"));
  bench::note(std::string("drop rate in normal band:  ") + (drop_in_band ? "yes" : "NO"));
  bench::note(std::string("no SLA alerts:             ") + (quiet ? "yes" : "NO"));
  return (periodic && drop_in_band && quiet) ? 0 : 1;
}
