// Black-hole hunt: seed switch black-holes of both kinds into a data
// center, let Pingmesh find them from latency data alone, and repair them
// through the budgeted reload service (paper §5.1).
//
// Demonstrates: fault injection, the detection algorithm, the podset
// escalation rule, and the repair loop.
#include <cstdio>

#include "analysis/blackhole.h"
#include "autopilot/repair.h"
#include "controller/generator.h"
#include "core/fleet.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

int main() {
  using namespace pingmesh;

  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 1337);

  // Inject: one type-1 black-hole (corrupted TCAM src/dst entries) and one
  // type-2 (five-tuple / ECMP-related) on two different ToRs.
  SwitchId tor_a = topo.pods()[7].tor;
  SwitchId tor_b = topo.pods()[23].tor;
  net.faults().add_blackhole(tor_a, netsim::BlackholeMode::kSrcDstPair, 0.08);
  net.faults().add_blackhole(tor_b, netsim::BlackholeMode::kFiveTuple, 0.30);
  std::printf("injected: type-1 black-hole on %s, type-2 on %s\n",
              topo.sw(tor_a).name.c_str(), topo.sw(tor_b).name.c_str());

  // Probe the fleet the way the controller's pinglists prescribe.
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);
  agent::RecordColumns records;
  driver.run_dense(0, 8, seconds(10), [&](const core::FleetProbe& p) {
    agent::LatencyRecord r;
    r.timestamp = p.time;
    r.src_ip = topo.server(p.src).ip;
    r.dst_ip = p.target->ip;
    r.src_port = p.src_port;
    r.dst_port = p.target->port;
    r.success = p.outcome.success;
    r.rtt = p.outcome.rtt;
    records.push_back(r);
  });
  std::printf("probed: %lu probes -> %zu latency records\n\n",
              static_cast<unsigned long>(driver.probes_fired()), records.size());

  // Detect from the records alone — no switch counters, no ground truth
  // (§6: "simply using switch SNMP and syslog data does not work since they
  // do not tell us about packet black-holes").
  analysis::BlackholeReport report = analysis::detect_blackholes(records, topo);

  std::printf("detection report:\n");
  for (const analysis::TorScore& candidate : report.candidates) {
    std::printf("  candidate %s: %lu/%lu pairs black (score %.3f)\n",
                topo.sw(candidate.tor).name.c_str(),
                static_cast<unsigned long>(candidate.pairs_black),
                static_cast<unsigned long>(candidate.pairs_total), candidate.score());
  }
  for (PodsetId podset : report.escalations) {
    std::printf("  escalation: podset %u — all ToRs symptomatic, investigate Leaf/Spine\n",
                podset.value);
  }

  // Repair: budgeted reloads clear the TCAM corruption.
  autopilot::RepairService repair(
      autopilot::RepairConfig{.max_reloads_per_day = 20},
      [&](SwitchId sw) { net.faults().clear_blackholes_on(sw); }, nullptr);
  for (const analysis::TorScore& candidate : report.candidates) {
    bool executed = repair.request_reload(candidate.tor, "pingmesh black-hole detection",
                                          hours(1));
    std::printf("reload %s: %s\n", topo.sw(candidate.tor).name.c_str(),
                executed ? "executed" : "deferred (daily budget)");
  }

  // Verify the network is clean again.
  std::size_t still_active = net.faults().blackholed_switches(hours(2)).size();
  std::printf("\nblack-holes still active after repair: %zu\n", still_active);
  std::printf("reloads remaining today: %d\n", repair.reloads_remaining_today(hours(2)));
  return still_active == 0 ? 0 : 1;
}
