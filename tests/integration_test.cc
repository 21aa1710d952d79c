// End-to-end integration tests over the full closed loop:
// controller -> agents -> simulated network -> Cosmos -> SCOPE jobs ->
// database -> alerts/analyses, all on virtual time.
#include <gtest/gtest.h>

#include "analysis/heatmap.h"
#include "analysis/sla.h"
#include "chaos/injector.h"
#include "chaos/invariants.h"
#include "chaos/plan.h"
#include "core/scenarios.h"
#include "core/simulation.h"

namespace pingmesh::core {
namespace {

TEST(Integration, FullLoopProducesDataEverywhere) {
  PingmeshSimulation sim(small_test_config(1));
  sim.run_for(hours(1));

  // Agents probed.
  EXPECT_GT(sim.total_probes(), 10'000u);
  // Records reached Cosmos.
  const dsa::CosmosStream* stream = sim.cosmos().find(dsa::kLatencyStream);
  ASSERT_NE(stream, nullptr);
  EXPECT_GT(stream->total_records(), 0u);
  // 10-min jobs produced pod-pair rows; PA produced counter rows.
  EXPECT_FALSE(sim.db().pod_pair_stats.empty());
  EXPECT_FALSE(sim.db().pa_counters.empty());
  // No alerts on a healthy network.
  EXPECT_TRUE(sim.db().alerts.empty());
  // Watchdogs healthy.
  sim.watchdogs().run_checks(sim.now());
  EXPECT_TRUE(sim.watchdogs().all_healthy());
}

TEST(Integration, AgentsAdoptPinglistsAndStayActive) {
  PingmeshSimulation sim(small_test_config(2));
  sim.run_for(minutes(30));
  const auto& topo = sim.topology();
  for (const auto& server : topo.servers()) {
    const agent::PingmeshAgent& ag = sim.agent(server.id);
    EXPECT_TRUE(ag.probing_active()) << server.name;
    EXPECT_GT(ag.probes_launched(), 0u) << server.name;
    EXPECT_GT(ag.target_count(), 0u);
  }
}

TEST(Integration, SlaRowsCoverScopes) {
  SimulationConfig cfg = small_test_config(3);
  PingmeshSimulation sim(cfg);
  // Register a service over the first pod.
  const auto& pod = sim.topology().pods()[0];
  sim.services().add_service("Search", pod.servers);
  // A tapped batch is exactly a stored batch: count the records of hour 0.
  struct HourZeroRecords final : dsa::RecordTap {
    std::uint64_t count = 0;
    void on_records(const agent::RecordColumns& batch, SimTime) override {
      for (std::size_t i = 0; i < batch.size(); ++i) count += batch.timestamp(i) < hours(1);
    }
  } stored;
  sim.add_record_tap(&stored);
  sim.run_for(hours(2));
  bool has_pod = false, has_dc = false, has_service = false;
  std::uint64_t dc_probes = 0, pod_probes = 0;  // window [0, 1 h)
  for (const auto& row : sim.db().sla_rows) {
    if (row.scope == dsa::SlaScope::kPod) has_pod = true;
    if (row.scope == dsa::SlaScope::kDc) has_dc = true;
    if (row.scope == dsa::SlaScope::kService) has_service = true;
    if (row.window_start != 0) continue;
    if (row.scope == dsa::SlaScope::kDc) dc_probes += row.probes;
    if (row.scope == dsa::SlaScope::kPod) pod_probes += row.probes;
  }
  EXPECT_TRUE(has_pod);
  EXPECT_TRUE(has_dc);
  EXPECT_TRUE(has_service);
  // The hourly job counted every stored record of its hour, in each scope.
  EXPECT_GT(stored.count, 0u);
  EXPECT_EQ(dc_probes, stored.count);
  EXPECT_EQ(pod_probes, stored.count);

  // The network-issue judge says "not the network" on a healthy run.
  analysis::IssueVerdict v = analysis::judge_network_issue(
      sim.db(), dsa::SlaScope::kService, 0, 0, sim.now());
  EXPECT_FALSE(v.network_issue);
  EXPECT_GT(v.probes, 0u);
}

TEST(Integration, CongestionFiresAlerts) {
  SimulationConfig cfg = small_test_config(4);
  PingmeshSimulation sim(cfg);
  // Congest every spine: queueing x50 and 2% drops — a real incident.
  for (SwitchId spine : sim.topology().dcs()[0].spines) {
    sim.faults().add_congestion(spine, 50.0, 0.02, minutes(10));
  }
  sim.run_for(hours(2));
  EXPECT_FALSE(sim.db().alerts.empty());
}

TEST(Integration, FailClosedWhenControllerWithdraws) {
  SimulationConfig cfg = small_test_config(5);
  cfg.agent.pinglist_refresh = minutes(2);
  PingmeshSimulation sim(cfg);
  sim.run_for(minutes(10));
  ServerId probe_server = sim.topology().servers()[0].id;
  EXPECT_TRUE(sim.agent(probe_server).probing_active());

  // Operator kill switch: withdraw all pinglists.
  sim.pinglist_source().set_serving(false);
  sim.run_for(minutes(10));
  for (const auto& server : sim.topology().servers()) {
    EXPECT_FALSE(sim.agent(server.id).probing_active()) << server.name;
  }

  // Re-serve: the fleet resumes on its own.
  sim.pinglist_source().set_serving(true);
  sim.run_for(minutes(10));
  EXPECT_TRUE(sim.agent(probe_server).probing_active());
}

TEST(Integration, PodsetDownShowsWhiteCrossPattern) {
  SimulationConfig cfg = small_test_config(6);
  PingmeshSimulation sim(cfg);
  sim.run_for(minutes(30));
  PodsetId down = sim.topology().podsets()[0].id;
  sim.faults().add_podset_down(down, sim.now(), netsim::FaultInjector::kForever);
  sim.run_for(minutes(40));

  // Build the heatmap from the latest complete 10-min window.
  analysis::Heatmap map(sim.topology(), DcId{0});
  map.load(sim.db().latest_pod_pair_window());
  analysis::PatternResult pattern = analysis::classify_pattern(map);
  EXPECT_EQ(pattern.pattern, analysis::LatencyPattern::kPodsetDown);
  EXPECT_EQ(pattern.podset, down);
}

TEST(Integration, VipMonitoringProbesDips) {
  SimulationConfig cfg = small_test_config(7);
  cfg.agent.pinglist_refresh = minutes(2);
  PingmeshSimulation sim(cfg);
  // VIP fronting two servers of pod 1.
  IpAddr vip(172, 16, 0, 1);
  const auto& pod1 = sim.topology().pods()[1];
  sim.register_vip(vip, {pod1.servers[0], pod1.servers[1]});
  sim.run_for(minutes(20));

  // Some records must target the VIP and succeed (delivered to a DIP).
  const agent::RecordColumns records = sim.records_between(0, sim.now());
  std::uint64_t vip_probes = 0, vip_ok = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records.dst_ip(i) == vip) {
      ++vip_probes;
      if (records.success(i)) ++vip_ok;
    }
  }
  EXPECT_GT(vip_probes, 0u);
  EXPECT_GT(vip_ok, vip_probes * 9 / 10);
}

TEST(Integration, CosmosRetentionBoundsMemory) {
  SimulationConfig cfg = small_test_config(8);
  cfg.cosmos_retention = minutes(30);
  PingmeshSimulation sim(cfg);
  sim.run_for(hours(2));
  const dsa::CosmosStream* stream = sim.cosmos().find(dsa::kLatencyStream);
  ASSERT_NE(stream, nullptr);
  // Oldest retained extent is no older than retention + slack.
  for (const auto& extent : stream->extents()) {
    EXPECT_GE(extent.last_ts, sim.now() - cfg.cosmos_retention - minutes(10));
  }
}

TEST(Integration, DeterministicForSeed) {
  PingmeshSimulation a(small_test_config(99));
  PingmeshSimulation b(small_test_config(99));
  a.run_for(minutes(30));
  b.run_for(minutes(30));
  EXPECT_EQ(a.total_probes(), b.total_probes());
  ASSERT_EQ(a.db().pod_pair_stats.size(), b.db().pod_pair_stats.size());
  for (std::size_t i = 0; i < a.db().pod_pair_stats.size(); ++i) {
    EXPECT_EQ(a.db().pod_pair_stats[i].p99_ns, b.db().pod_pair_stats[i].p99_ns);
    EXPECT_EQ(a.db().pod_pair_stats[i].probes, b.db().pod_pair_stats[i].probes);
  }
}

TEST(Integration, UploaderOutageDiscardsButRecovers) {
  // Cosmos front-end outage: agents retry-then-discard (bounded memory,
  // §3.4.2) and the pipeline resumes once the store is back.
  SimulationConfig cfg = small_test_config(11);
  cfg.agent.upload_interval = seconds(30);
  cfg.agent.upload_max_retries = 2;
  PingmeshSimulation sim(cfg);
  sim.run_for(minutes(20));
  std::uint64_t records_before = sim.cosmos().total_records();
  ASSERT_GT(records_before, 0u);

  // Outage: uploads fail for 20 minutes.
  sim.uploader_for_test().set_available(false);
  sim.run_for(minutes(20));
  std::uint64_t discarded = 0;
  std::size_t max_buffered = 0;
  for (const auto& server : sim.topology().servers()) {
    discarded += sim.agent(server.id).records_discarded();
    max_buffered = std::max(max_buffered, sim.agent(server.id).buffered_records());
  }
  EXPECT_GT(discarded, 0u);  // retry-then-discard kicked in
  EXPECT_LE(max_buffered, cfg.agent.max_buffered_records);

  // Recovery.
  sim.uploader_for_test().set_available(true);
  sim.run_for(minutes(10));
  EXPECT_GT(sim.cosmos().total_records(), records_before);
}

TEST(Integration, PaPathAlertsWhileCosmosIsDown) {
  // §3.5 availability story: kill the Cosmos path entirely, inject a real
  // incident — alerts still fire through the 5-minute PA counter path.
  SimulationConfig cfg = small_test_config(13);
  PingmeshSimulation sim(cfg);
  sim.uploader_for_test().set_available(false);  // SCOPE path starved from t=0
  for (SwitchId spine : sim.topology().dcs()[0].spines) {
    sim.faults().add_congestion(spine, 50.0, 0.02, minutes(10));
  }
  sim.run_for(hours(1));
  ASSERT_EQ(sim.cosmos().total_records(), 0u);  // Cosmos really is down
  bool pa_alert = false;
  for (const auto& alert : sim.db().alerts) {
    if (alert.rule.rfind("pa:", 0) == 0) pa_alert = true;
  }
  EXPECT_TRUE(pa_alert);
}

TEST(Integration, PinglistVersionPropagatesOnRefresh) {
  // "a full fledged Pingmesh Controller which automatically updates
  // pinglists once network topology is updated or configuration is
  // adjusted" — agents pick up the new generation on their periodic fetch.
  SimulationConfig cfg = small_test_config(12);
  cfg.agent.pinglist_refresh = minutes(3);
  PingmeshSimulation sim(cfg);
  sim.run_for(minutes(5));
  ServerId probe_server = sim.topology().servers()[0].id;
  std::uint64_t v1 = sim.agent(probe_server).pinglist_version();

  // Configuration change: register a VIP (bumps the generator version).
  sim.register_vip(IpAddr(172, 16, 1, 1), {sim.topology().pods()[1].servers[0]});
  sim.run_for(minutes(5));
  std::uint64_t v2 = sim.agent(probe_server).pinglist_version();
  EXPECT_GT(v2, v1);
}

TEST(Integration, JobFreshnessMatchesPaperShape) {
  // 10-min jobs consume data ~20 minutes after generation (§3.5).
  SimulationConfig cfg = small_test_config(10);
  cfg.ingestion_delay = minutes(10);
  PingmeshSimulation sim(cfg);
  sim.run_for(hours(1));
  for (const auto& job : sim.jobs().stats()) {
    if (job.name == "pod-pair-10min") {
      EXPECT_GT(job.runs, 0u);
      EXPECT_GE(job.last_e2e_delay(), minutes(20));
      EXPECT_LE(job.last_e2e_delay(), minutes(35));
    }
  }
}

TEST(Integration, DailyDropRowsSumTheDaysPodPairRows) {
  // The daily Table-1 job must cover the whole day. Cosmos keeps one hour of
  // raw records, so a rescan at day end would see only the last of it; the
  // day's 10-min pod-pair rows hold every probe of the day.
  SimulationConfig cfg = small_test_config(7);
  PingmeshSimulation sim(cfg);
  sim.run_for(days(1) + cfg.ingestion_delay);

  const topo::Topology& topo = sim.topology();
  std::uint64_t probes[2] = {0, 0};  // intra-pod, inter-pod
  std::uint64_t successes[2] = {0, 0};
  std::uint64_t signatures[2] = {0, 0};
  for (const dsa::PodPairStatRow& r : sim.db().pod_pairs_between(0, days(1))) {
    ASSERT_EQ(topo.pod(r.src_pod).dc, topo.pod(r.dst_pod).dc);  // one DC, no inter-DC
    const int k = r.src_pod == r.dst_pod ? 0 : 1;
    probes[k] += r.probes;
    successes[k] += r.successes;
    signatures[k] += r.drop_signatures;
  }
  ASSERT_GT(probes[0], 0u);
  ASSERT_GT(probes[1], 0u);
  ASSERT_EQ(sim.db().dc_drop_rows.size(), 1u);
  const dsa::DcDropRow& row = sim.db().dc_drop_rows[0];
  EXPECT_EQ(row.window_start, 0);
  EXPECT_EQ(row.window_end, days(1));
  EXPECT_EQ(row.intra_pod_probes, probes[0]);
  EXPECT_EQ(row.inter_pod_probes, probes[1]);
  EXPECT_EQ(row.intra_pod_drop_rate,
            static_cast<double>(signatures[0]) / static_cast<double>(successes[0]));
  EXPECT_EQ(row.inter_pod_drop_rate,
            static_cast<double>(signatures[1]) / static_cast<double>(successes[1]));
}

TEST(Integration, ChaosPodsetPacketDropCaseStudy) {
  // The paper's §5.2 case study, replayed as a chaos schedule: every switch
  // of one podset silently drops ~1% of packets mid-run. All three
  // detection surfaces must see it — drop-rate inference from the 10-minute
  // SCOPE windows, the Figure-8 heatmap pattern, and the streaming detector
  // within about one window of onset.
  SimulationConfig cfg = chaos_test_config(77);
  PingmeshSimulation sim(cfg);
  const topo::Topology& topo = sim.topology();
  const topo::Podset& podset0 = topo.podsets()[0];

  chaos::ChaosPlan plan;
  plan.seed = 77;
  plan.duration = minutes(50);
  plan.settle = minutes(5);
  auto add_loss = [&plan](SwitchId sw) {
    chaos::ChaosEvent e;
    e.kind = chaos::ChaosEventKind::kLinkLoss;
    e.entity = sw.value;
    e.magnitude = 0.01;
    e.start = minutes(20);
    e.end = minutes(50);
    plan.events.push_back(e);
  };
  for (PodId pod : podset0.pods) add_loss(topo.pod(pod).tor);
  for (SwitchId leaf : podset0.leaves) add_loss(leaf);

  chaos::ChaosInjector injector(sim);
  injector.arm(plan);
  sim.run_for(minutes(55));

  // Surface 1: drop-rate inference over the 10-minute pod-pair windows.
  // Pairs touching the faulted podset must sit far above the 1e-3 SLA line
  // while the rest of the DC stays near the floor.
  auto in_podset0 = [&topo, &podset0](PodId pod) {
    return topo.pod(pod).podset == podset0.id;
  };
  std::uint64_t bad_sig = 0, bad_probes = 0, clean_sig = 0, clean_probes = 0;
  for (const auto& row : sim.db().pod_pairs_between(minutes(30), minutes(40))) {
    if (in_podset0(row.src_pod) || in_podset0(row.dst_pod)) {
      bad_sig += row.drop_signatures;
      bad_probes += row.probes;
    } else {
      clean_sig += row.drop_signatures;
      clean_probes += row.probes;
    }
  }
  ASSERT_GT(bad_probes, 0u);
  ASSERT_GT(clean_probes, 0u);
  double bad_rate = static_cast<double>(bad_sig) / static_cast<double>(bad_probes);
  double clean_rate =
      static_cast<double>(clean_sig) / static_cast<double>(clean_probes);
  EXPECT_GT(bad_rate, 1e-3) << "faulted podset under the SLA line";
  EXPECT_GT(bad_rate, 10 * clean_rate + 1e-9)
      << "bad=" << bad_rate << " clean=" << clean_rate;

  // Surface 2: the heatmap shows the Figure-8(c) red cross on podset 0.
  analysis::Heatmap map(topo, DcId{0});
  map.load(sim.db().pod_pairs_between(minutes(30), minutes(40)));
  EXPECT_GT(map.fraction(analysis::CellColor::kRed), 0.0);
  analysis::PatternResult pattern = analysis::classify_pattern(map);
  EXPECT_EQ(pattern.pattern, analysis::LatencyPattern::kPodsetFailure);
  EXPECT_EQ(pattern.podset, podset0.id);

  // Surface 3: the streaming detector opens a drop-spike alert within about
  // one sliding window of fault onset — not after the next 10-minute job.
  SimTime first_alert = 0;
  for (const auto& alert : sim.db().alerts) {
    if (alert.rule == "stream:drop_spike" &&
        (first_alert == 0 || alert.time < first_alert)) {
      first_alert = alert.time;
    }
  }
  ASSERT_GT(first_alert, 0) << "streaming detector never fired";
  EXPECT_GE(first_alert, minutes(20));
  EXPECT_LE(first_alert, minutes(23)) << "alert latency beyond one window";

  // And the run as a whole still satisfies the system invariants.
  chaos::InvariantReport report = chaos::check_invariants(sim, plan);
  EXPECT_TRUE(report.all_ok()) << report.to_text();
}

}  // namespace
}  // namespace pingmesh::core
