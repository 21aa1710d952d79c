// Figure 6 reproduction: ToR black-hole detection and repair over time.
//
// Paper: "Figure 6 shows the number of ToR switches with black-holes the
// algorithm detected. As we can see from the figure, the number of the
// switches with packet black-holes decreases once algorithm began to run.
// In our algorithm, we limit the algorithm to reload at most 20 switches
// per day. ... after a period of time, the number of switches detected
// dropped to only several per day."
//
// Reproduction: a medium DC starts with a backlog of black-holed ToRs (the
// situation before the detector existed); a couple more develop each day.
// Every day: probe the fleet, run the detection algorithm on the day's
// records, reload candidates within the 20/day budget. The detected count
// must decay from budget-limited down to the daily arrival rate.
#include <cstdio>

#include "analysis/blackhole.h"
#include "autopilot/repair.h"
#include "bench_util.h"
#include "common/rng.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "netsim/simnet.h"

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  using namespace pingmesh;
  bench::heading("Figure 6: number of ToR switches with packet black-holes detected");

  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 606);
  Rng rng(606);

  auto seed_blackhole = [&](SwitchId tor, SimTime from) {
    auto mode = rng.chance(0.6) ? netsim::BlackholeMode::kSrcDstPair
                                : netsim::BlackholeMode::kFiveTuple;
    double fraction = rng.uniform(0.04, 0.30);
    net.faults().add_blackhole(tor, mode, fraction, from, netsim::FaultInjector::kForever,
                               rng.next_u64());
  };

  // Backlog: 26 of the 40 ToRs are black-holing when the detector comes
  // online; afterwards ~2 new ones appear per day.
  std::vector<SwitchId> tors = topo.switches_in_dc(DcId{0}, topo::SwitchKind::kTor);
  {
    std::vector<SwitchId> shuffled = tors;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (int i = 0; i < 26; ++i) seed_blackhole(shuffled[static_cast<std::size_t>(i)], 0);
  }

  autopilot::RepairService repair(
      autopilot::RepairConfig{.max_reloads_per_day = 20},
      [&](SwitchId sw) { net.faults().clear_blackholes_on(sw); }, nullptr);

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.payload_every_kth = 0;
  controller::PinglistGenerator gen(topo, gcfg);

  const int kDays = 18;
  std::printf("\n  %-5s %10s %10s %12s %12s\n", "day", "detected", "reloaded",
              "escalations", "active(truth)");
  std::vector<int> detected_series;
  for (int day = 0; day < kDays; ++day) {
    SimTime day_start = day * kNanosPerDay;
    // ~2 new black-holes per day after day 0.
    if (day > 0) {
      int arrivals = static_cast<int>(rng.uniform_u32(3));  // 0..2
      for (int a = 0; a < arrivals; ++a) {
        seed_blackhole(tors[rng.uniform_u32(static_cast<std::uint32_t>(tors.size()))],
                       day_start);
      }
    }

    // The day's measurement window.
    core::FleetProbeDriver driver(topo, net, gen);
    agent::RecordColumns records;
    driver.run_dense(day_start, 6, seconds(10),
                     [&](const core::FleetProbe& p) { records.push_back(bench::to_record(topo, p)); });

    analysis::BlackholeReport report = analysis::detect_blackholes(records, topo);
    int reloaded = 0;
    for (const analysis::TorScore& candidate : report.candidates) {
      if (repair.request_reload(candidate.tor, "pingmesh black-hole score", day_start)) {
        ++reloaded;
      }
    }
    std::size_t active = net.faults().blackholed_switches(day_start + hours(23)).size();
    detected_series.push_back(static_cast<int>(report.candidates.size()));
    std::printf("  %-5d %10zu %10d %12zu %12zu\n", day, report.candidates.size(), reloaded,
                report.escalations.size(), active);
  }

  bench::heading("summary vs paper");
  int first_days = detected_series[0];
  int tail_max = 0;
  for (std::size_t d = detected_series.size() - 5; d < detected_series.size(); ++d) {
    tail_max = std::max(tail_max, detected_series[d]);
  }
  bench::compare_row("day-0 detections (budget-limited)", "~20 (cap)",
                     std::to_string(first_days));
  bench::compare_row("steady state detections/day", "\"only several\"",
                     std::to_string(tail_max) + " (max of last 5 days)");

  bench::heading("shape checks");
  bool starts_high = first_days >= 15;
  bool decays = tail_max <= 6 && tail_max < first_days / 2;
  bench::note(std::string("initial backlog saturates the budget: ") +
              (starts_high ? "yes" : "NO"));
  bench::note(std::string("decays to a few per day:              ") +
              (decays ? "yes" : "NO"));
  return (starts_high && decays) ? 0 : 1;
}
