// Figure 7 reproduction: silent random packet drops of a Spine switch.
//
// Paper: "Under normal condition, the percentage of latency should be at
// around 1e-4..1e-5. But it suddenly jumped up to around 2e-3." The
// incident was confirmed DC-wide, the pattern pointed at the Spine layer,
// TCP traceroute against affected pairs pinpointed one Spine switch, and
// "the silent random packet drops were gone after we isolated the switch
// from serving live traffic".
//
// Reproduction timeline (hours of one virtual day, hourly measurement
// windows): a spine develops fabric bit-flip drops at hour 16; the hourly
// drop-rate series jumps from baseline to ~1e-3..1e-2 /, the localizer
// fingers the right spine, the repair service isolates it, and the series
// returns to baseline.
#include <cstdio>

#include "analysis/droprate.h"
#include "analysis/silentdrop.h"
#include "autopilot/repair.h"
#include "bench_util.h"
#include "common/ascii_chart.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  using namespace pingmesh;
  bench::heading("Figure 7: silent random packet drops of a Spine switch");

  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 707);
  SwitchId bad_spine = topo.dcs()[0].spines[5];
  const SimTime kFaultStart = hours(16);
  net.faults().add_silent_random_drop(bad_spine, 0.015, kFaultStart,
                                      netsim::FaultInjector::kForever);

  autopilot::RepairService repair(
      autopilot::RepairConfig{}, nullptr,
      [&](SwitchId sw) { net.faults().clear_all_on(sw); });

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.payload_every_kth = 0;
  controller::PinglistGenerator gen(topo, gcfg);

  const int kHours = 30;
  std::printf("\n  %-5s %12s  %s\n", "hour", "drop rate", "event");
  double baseline_max = 0, incident_max = 0, post_max = 0;
  bool isolated = false;
  SwitchId pinpointed;
  int isolation_hour = -1;
  std::vector<std::pair<std::string, double>> rate_series;

  for (int hour = 0; hour < kHours; ++hour) {
    SimTime window_start = hours(hour);
    core::FleetProbeDriver driver(topo, net, gen);
    agent::RecordColumns records;
    driver.run_dense(window_start, 4, minutes(1), [&](const core::FleetProbe& p) {
      records.push_back(bench::to_record(topo, p));
    });

    agent::ProbeCounts est = analysis::estimate_drop_rate(records);
    std::string event;
    if (!isolated) {
      auto affected = analysis::detect_affected_dc(records, topo);
      if (affected) {
        analysis::SilentDropReport report =
            analysis::localize_silent_drops(records, topo, net, window_start + minutes(30));
        event = "INCIDENT dc=" + topo.dc(report.affected_dc).name +
                " tier=" + analysis::suspect_tier_name(report.tier);
        if (report.culprit.valid()) {
          pinpointed = report.culprit;
          repair.isolate_and_rma(report.culprit, "silent random packet drops",
                                 window_start + minutes(45));
          isolated = true;
          isolation_hour = hour;
          event += " -> isolated " + topo.sw(report.culprit).name + " for RMA";
        }
      }
    }
    std::printf("  %-5d %12s  %s\n", hour, format_rate(est.drop_rate()).c_str(), event.c_str());
    char label[16];
    std::snprintf(label, sizeof(label), "h%02d", hour);
    rate_series.emplace_back(label, est.drop_rate());

    if (hour < 16) {
      baseline_max = std::max(baseline_max, est.drop_rate());
    } else if (!isolated || hour <= isolation_hour) {
      incident_max = std::max(incident_max, est.drop_rate());
    } else {
      post_max = std::max(post_max, est.drop_rate());
    }
  }

  bench::heading("the Figure 7 shape (log-scale drop rate)");
  std::fputs(
      ascii_chart(rate_series, AsciiChartOptions{.width = 50, .log_scale = true, .unit = ""}).c_str(),
      stdout);

  bench::heading("summary vs paper");
  bench::compare_row("baseline drop rate", "1e-4..1e-5", format_rate(baseline_max));
  bench::compare_row("incident drop rate", "~2e-3", format_rate(incident_max));
  bench::compare_row("pinpointed switch", "one Spine switch",
                     pinpointed.valid() ? topo.sw(pinpointed).name : "(none)");
  bench::compare_row("post-isolation drop rate", "back to baseline",
                     format_rate(post_max));

  bench::heading("shape checks");
  bool jump = incident_max > 10 * std::max(baseline_max, 1e-6);
  bool right_switch = pinpointed == bad_spine;
  bool recovered = post_max < incident_max / 10;
  bench::note(std::string("drop rate steps up >=10x:     ") + (jump ? "yes" : "NO"));
  bench::note(std::string("correct spine pinpointed:     ") + (right_switch ? "yes" : "NO"));
  bench::note(std::string("recovery after isolation:     ") + (recovered ? "yes" : "NO"));
  return (jump && right_switch && recovered) ? 0 : 1;
}
