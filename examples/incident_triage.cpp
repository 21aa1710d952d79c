// Incident triage: the full §5.2 war story as a runnable scenario.
//
//  1. A fleet runs normally; the on-call dashboard is green.
//  2. A spine switch starts dropping packets silently (fabric bit flips) —
//     no SNMP counter, no syslog line, the switch "seems innocent".
//  3. Customers complain; Pingmesh data answers "yes, it IS the network",
//     the pattern points at the Spine tier, traceroute pinpoints the
//     switch, the repair service isolates it for RMA.
//  4. The dashboard goes green again.
#include <cstdio>

#include "analysis/droprate.h"
#include "analysis/heatmap.h"
#include "analysis/silentdrop.h"
#include "autopilot/repair.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/fleet.h"
#include "dsa/jobs.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

namespace {

using namespace pingmesh;

agent::RecordColumns probe_window(const topo::Topology& topo, netsim::SimNetwork& net,
                                  const controller::PinglistGenerator& gen, SimTime start) {
  core::FleetProbeDriver driver(topo, net, gen);
  agent::RecordColumns records;
  driver.run_dense(start, 6, seconds(10), [&](const core::FleetProbe& p) {
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
  return records;
}

void show_health(const char* when, const agent::RecordColumns& records) {
  agent::ProbeCounts est = analysis::estimate_drop_rate(records);
  std::printf("%-22s drop rate %s over %lu probes\n", when,
              format_rate(est.drop_rate()).c_str(),
              static_cast<unsigned long>(est.probes));
}

}  // namespace

int main() {
  using namespace pingmesh;

  topo::Topology topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 52);
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  controller::PinglistGenerator gen(topo, gcfg);

  // 1. Normal operations.
  auto baseline = probe_window(topo, net, gen, 0);
  show_health("baseline:", baseline);

  // 2. The silent fault. Nothing in this process will ever read it back —
  //    detection below works purely from probe data.
  SwitchId culprit_truth = topo.dcs()[0].spines[5];
  net.faults().add_silent_random_drop(culprit_truth, 0.018, hours(1));
  auto incident = probe_window(topo, net, gen, hours(1));
  show_health("incident window:", incident);

  // 3a. Is it the network?
  agent::ProbeCounts est = analysis::estimate_drop_rate(incident);
  std::printf("\n'network problem?' -> %s (drop rate %s vs 1e-3 threshold)\n",
              est.drop_rate() > agent::kAlertDropRate ? "YES, the network is guilty" : "no",
              format_rate(est.drop_rate()).c_str());

  // 3b. Which tier? Which switch?
  analysis::SilentDropReport report =
      analysis::localize_silent_drops(incident, topo, net, hours(1) + minutes(30));
  std::printf("localizer: dc=%s tier=%s  (intra-podset %s vs cross-podset %s)\n",
              topo.dc(report.affected_dc).name.c_str(),
              analysis::suspect_tier_name(report.tier),
              format_rate(report.intra_podset_rate).c_str(),
              format_rate(report.cross_podset_rate).c_str());
  std::printf("per-spine loss from traceroute-guided probing (top 4):\n");
  for (std::size_t i = 0; i < report.spine_losses.size() && i < 4; ++i) {
    const analysis::SpineLoss& loss = report.spine_losses[i];
    std::printf("  %-12s %8.3f%%  (%lu probes)\n", topo.sw(loss.spine).name.c_str(),
                loss.loss_rate() * 100, static_cast<unsigned long>(loss.probes));
  }
  if (!report.culprit.valid()) {
    std::printf("no culprit pinpointed — triage failed\n");
    return 1;
  }
  std::printf("culprit: %s (ground truth: %s) %s\n", topo.sw(report.culprit).name.c_str(),
              topo.sw(culprit_truth).name.c_str(),
              report.culprit == culprit_truth ? "-- MATCH" : "-- MISMATCH");

  // 3c. Isolate for RMA (silent drops are not fixed by reloads, §5.2).
  autopilot::RepairService repair(
      autopilot::RepairConfig{}, nullptr,
      [&](SwitchId sw) { net.faults().clear_all_on(sw); });
  repair.isolate_and_rma(report.culprit, "silent random packet drops (fabric bit flips)",
                         hours(1) + minutes(45));
  std::printf("\nisolated %s from live traffic; RMA queue length: %zu\n",
              topo.sw(report.culprit).name.c_str(), repair.rma_queue().size());

  // 4. Green again.
  auto after = probe_window(topo, net, gen, hours(2));
  show_health("after isolation:", after);

  agent::ProbeCounts post = analysis::estimate_drop_rate(after);
  return (report.culprit == culprit_truth && post.drop_rate() < 2e-4) ? 0 : 1;
}
