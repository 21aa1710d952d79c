// Tests for the analysis layer: drop-rate inference validated against
// simulator ground truth (the paper validated against NIC/ToR counters),
// black-hole detection, silent-drop localization, heatmaps and pattern
// classification, and the network-issue judgement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "agent/record_columns.h"
#include "analysis/blackhole.h"
#include "analysis/droprate.h"
#include "analysis/heatmap.h"
#include "analysis/silentdrop.h"
#include "analysis/sla.h"
#include "common/rng.h"
#include "core/fleet.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

namespace pingmesh::analysis {
namespace {

using agent::LatencyRecord;

topo::Topology one_small_dc() {
  return topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
}

controller::GeneratorConfig fleet_config() {
  controller::GeneratorConfig cfg;
  cfg.intra_pod_interval = seconds(10);
  cfg.intra_dc_interval = seconds(10);
  cfg.enable_inter_dc = false;
  cfg.payload_every_kth = 0;  // keep it to connect probes
  return cfg;
}

/// Drive the fleet and collect its records (plus ground-truth drops).
struct FleetRun {
  agent::RecordColumns records;
  std::uint64_t ground_truth_probes_with_drops = 0;
  std::uint64_t successful_probes = 0;
};

FleetRun run_fleet(const topo::Topology& topo, netsim::SimNetwork& net, int rounds,
                   controller::GeneratorConfig cfg = fleet_config()) {
  controller::PinglistGenerator gen(topo, cfg);
  core::FleetProbeDriver driver(topo, net, gen);
  FleetRun out;
  driver.run_dense(0, rounds, seconds(10), [&](const core::FleetProbe& p) {
    LatencyRecord r;
    r.timestamp = p.time;
    r.src_ip = topo.server(p.src).ip;
    r.dst_ip = p.target->ip;
    r.src_port = p.src_port;
    r.dst_port = p.target->port;
    r.success = p.outcome.success;
    r.rtt = p.outcome.rtt;
    out.records.push_back(r);
    if (p.outcome.success) {
      ++out.successful_probes;
      if (p.outcome.packets_dropped > 0) ++out.ground_truth_probes_with_drops;
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Drop-rate inference (§4.2)
// ---------------------------------------------------------------------------

TEST(DropRate, HeuristicCountsSignatures) {
  auto probe = [](bool success, SimTime rtt) {
    LatencyRecord r;
    r.success = success;
    r.rtt = rtt;
    return r;
  };
  agent::RecordColumns records;
  records.push_back(probe(true, seconds(3) + micros(300)));  // one SYN drop
  records.push_back(probe(true, seconds(9) + micros(300)));  // two SYN drops, counted once
  records.push_back(probe(false, micros(300)));              // excluded from denominator
  for (int i = 3; i < 10; ++i) records.push_back(probe(true, micros(300)));
  agent::ProbeCounts e = estimate_drop_rate(records);
  EXPECT_EQ(e.successes, 9u);
  EXPECT_EQ(e.failures, 1u);
  EXPECT_EQ(e.probes_3s, 1u);
  EXPECT_EQ(e.probes_9s, 1u);
  EXPECT_NEAR(e.drop_rate(), 2.0 / 9.0, 1e-12);
}

TEST(DropRate, ValidatedAgainstGroundTruthSingleTor) {
  // The paper: "We have verified the accuracy of the heuristic for a single
  // ToR network by counting the NIC and ToR packet drops." Same experiment:
  // elevated ToR loss, heuristic estimate vs simulator ground truth.
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 42);
  netsim::DcProfile profile;
  profile.tor_drop = 2e-3;  // elevated so a short run has signal
  profile.host_stall_prob = 0;  // keep RTTs clean for signature bands
  net.set_dc_profile(DcId{0}, profile);

  controller::GeneratorConfig cfg = fleet_config();
  cfg.intra_dc_interval = hours(10);  // only intra-pod (single-ToR) traffic
  FleetRun run = run_fleet(topo, net, 120, cfg);

  agent::ProbeCounts est = estimate_drop_rate(run.records);
  double truth = static_cast<double>(run.ground_truth_probes_with_drops) /
                 static_cast<double>(run.successful_probes);
  ASSERT_GT(run.successful_probes, 10000u);
  ASSERT_GT(est.probes_3s, 10u);
  EXPECT_NEAR(est.drop_rate(), truth, truth * 0.35 + 1e-4);
}

TEST(DropRate, PerPairStats) {
  agent::RecordColumns records;
  LatencyRecord r;
  r.src_ip = IpAddr(10, 0, 0, 1);
  r.dst_ip = IpAddr(10, 0, 0, 2);
  r.success = true;
  r.rtt = micros(200);
  records.push_back(r);
  r.success = false;
  records.push_back(r);
  r.dst_ip = IpAddr(10, 0, 0, 3);
  records.push_back(r);
  auto pairs = per_pair_stats(records);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, (PairKey{IpAddr(10, 0, 0, 1), IpAddr(10, 0, 0, 2)}));
  EXPECT_EQ(pairs[0].second.probes, 2u);
  EXPECT_EQ(pairs[0].second.failures, 1u);
  EXPECT_DOUBLE_EQ(pairs[0].second.failure_rate(), 0.5);

  // A shuffled batch over many pairs, addresses above 128.0.0.0 included:
  // the pairs come out in ascending (src, dst) order, each with the counts
  // of a per-pair reference.
  const IpAddr ips[] = {IpAddr(10, 0, 0, 2), IpAddr(10, 0, 0, 1), IpAddr(255, 255, 255, 254),
                        IpAddr(1, 2, 3, 4), IpAddr(192, 168, 1, 1)};
  const SimTime rtts[] = {micros(200), seconds(3) + micros(200), seconds(9) + micros(200)};
  std::vector<LatencyRecord> rows;
  std::map<PairKey, agent::ProbeCounts> want;
  int n = 0;  // rows so far; picks each row's outcome
  for (IpAddr src : ips) {
    for (IpAddr dst : ips) {
      const int probes = 1 + n % 7;
      for (int k = 0; k < probes; ++k, ++n) {
        LatencyRecord x;
        x.src_ip = src;
        x.dst_ip = dst;
        x.success = n % 5 != 0;
        x.rtt = rtts[n % 3];
        rows.push_back(x);
        want[PairKey{src, dst}].add(x.success, x.rtt);
      }
    }
  }
  Rng rng(7);
  std::shuffle(rows.begin(), rows.end(), rng);
  agent::RecordColumns batch;
  for (const LatencyRecord& x : rows) batch.push_back(x);
  auto got = per_pair_stats(batch);
  ASSERT_EQ(got.size(), want.size());
  auto expected = want.begin();
  for (const auto& [key, counts] : got) {
    EXPECT_EQ(key, expected->first);
    EXPECT_EQ(counts, expected->second);
    ++expected;
  }
}

// ---------------------------------------------------------------------------
// Black-hole detection (§5.1)
// ---------------------------------------------------------------------------

TEST(Blackhole, DetectsSingleBadTor) {
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 7);
  SwitchId bad_tor = topo.pods()[2].tor;
  net.faults().add_blackhole(bad_tor, netsim::BlackholeMode::kSrcDstPair, 0.05);

  FleetRun run = run_fleet(topo, net, 5);
  BlackholeReport report = detect_blackholes(run.records, topo);

  ASSERT_EQ(report.candidates.size(), 1u) << "expected exactly the seeded ToR";
  EXPECT_EQ(report.candidates[0].tor, bad_tor);
  EXPECT_GT(report.candidates[0].score(), 0.02);
  EXPECT_TRUE(report.escalations.empty());
}

TEST(Blackhole, FiveTupleModeAlsoDetected) {
  // Type-2 black-holes need the fresh-port-per-probe behaviour to show as
  // partial pair failure; with entry fraction 0.5 a pair fails ~half its
  // probes, above the 0.4 symptom threshold.
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 8);
  SwitchId bad_tor = topo.pods()[5].tor;
  net.faults().add_blackhole(bad_tor, netsim::BlackholeMode::kFiveTuple, 0.5);

  FleetRun run = run_fleet(topo, net, 8);
  BlackholeReport report = detect_blackholes(run.records, topo);
  bool found = false;
  for (const TorScore& c : report.candidates) {
    if (c.tor == bad_tor) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Blackhole, CleanNetworkHasNoCandidates) {
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 9);
  FleetRun run = run_fleet(topo, net, 5);
  BlackholeReport report = detect_blackholes(run.records, topo);
  EXPECT_TRUE(report.candidates.empty());
  EXPECT_TRUE(report.escalations.empty());
}

TEST(Blackhole, PodsetWideSymptomEscalates) {
  // All ToRs of podset 0 black-holing: not a ToR problem — Leaf/Spine
  // investigation is escalated instead of auto-reloading.
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 10);
  for (PodId pod : topo.podsets()[0].pods) {
    net.faults().add_blackhole(topo.pod(pod).tor, netsim::BlackholeMode::kSrcDstPair, 0.06,
                               0, netsim::FaultInjector::kForever,
                               /*salt=*/pod.value);
  }
  FleetRun run = run_fleet(topo, net, 6);
  BlackholeReport report = detect_blackholes(run.records, topo);
  ASSERT_EQ(report.escalations.size(), 1u);
  EXPECT_EQ(report.escalations[0], topo.podsets()[0].id);
  for (const TorScore& c : report.candidates) {
    EXPECT_FALSE(c.podset == topo.podsets()[0].id)
        << "escalated podset must not also be auto-reloaded";
  }
}

// Property sweep: the detector finds the seeded ToR across black-hole
// modes, corruption fractions and placements, without false escalations.
struct BlackholeSweepCase {
  netsim::BlackholeMode mode;
  double fraction;
  int pod_index;
  int rounds;
};

// Names each case after its parameters ("SrcDstPair_0.04_pod1_6rounds").
// Without it gtest prints the struct's raw bytes, padding included, so the
// case names (and the ctest names derived from them) changed from build to
// build.
void PrintTo(const BlackholeSweepCase& c, std::ostream* os) {
  *os << (c.mode == netsim::BlackholeMode::kSrcDstPair ? "SrcDstPair" : "FiveTuple") << '_'
      << c.fraction << "_pod" << c.pod_index << '_' << c.rounds << "rounds";
}

class BlackholeSweepTest : public ::testing::TestWithParam<BlackholeSweepCase> {};

TEST_P(BlackholeSweepTest, SeededTorIsFound) {
  const BlackholeSweepCase& c = GetParam();
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 40 + static_cast<std::uint64_t>(c.pod_index));
  SwitchId bad_tor = topo.pods()[static_cast<std::size_t>(c.pod_index)].tor;
  net.faults().add_blackhole(bad_tor, c.mode, c.fraction);

  FleetRun run = run_fleet(topo, net, c.rounds);
  BlackholeReport report = detect_blackholes(run.records, topo);
  bool found = false;
  for (const TorScore& candidate : report.candidates) {
    if (candidate.tor == bad_tor) found = true;
  }
  EXPECT_TRUE(found) << "mode=" << static_cast<int>(c.mode) << " fraction=" << c.fraction
                     << " pod=" << c.pod_index;
  EXPECT_LE(report.candidates.size(), 2u) << "too many false candidates";
  EXPECT_TRUE(report.escalations.empty());
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndFractions, BlackholeSweepTest,
    ::testing::Values(
        BlackholeSweepCase{netsim::BlackholeMode::kSrcDstPair, 0.04, 1, 6},
        BlackholeSweepCase{netsim::BlackholeMode::kSrcDstPair, 0.10, 3, 6},
        BlackholeSweepCase{netsim::BlackholeMode::kSrcDstPair, 0.20, 6, 6},
        BlackholeSweepCase{netsim::BlackholeMode::kFiveTuple, 0.30, 0, 12},
        BlackholeSweepCase{netsim::BlackholeMode::kFiveTuple, 0.50, 4, 10},
        BlackholeSweepCase{netsim::BlackholeMode::kFiveTuple, 0.75, 7, 8}));

// ---------------------------------------------------------------------------
// Silent random packet drops (§5.2)
// ---------------------------------------------------------------------------

TEST(SilentDrop, LocalizesFaultySpine) {
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 11);
  SwitchId bad_spine = topo.dcs()[0].spines[2];
  net.faults().add_silent_random_drop(bad_spine, 0.02);

  FleetRun run = run_fleet(topo, net, 30);
  SilentDropReport report = localize_silent_drops(run.records, topo, net, 0);

  ASSERT_TRUE(report.incident);
  EXPECT_EQ(report.affected_dc, DcId{0});
  EXPECT_EQ(report.tier, SuspectTier::kSpine);
  EXPECT_GT(report.cross_podset_rate, report.intra_podset_rate * 3);
  ASSERT_TRUE(report.culprit.valid());
  EXPECT_EQ(report.culprit, bad_spine);
  EXPECT_GT(report.culprit_loss, 0.005);
}

TEST(SilentDrop, NoIncidentOnCleanNetwork) {
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 12);
  FleetRun run = run_fleet(topo, net, 10);
  EXPECT_FALSE(detect_affected_dc(run.records, topo).has_value());
  EXPECT_FALSE(localize_silent_drops(run.records, topo, net, 0).incident);
}

TEST(SilentDrop, TracerouteDiscoversFullPath) {
  topo::Topology topo = one_small_dc();
  netsim::SimNetwork net(topo, 13);
  ServerId a = topo.podsets()[0].pods[0].value == 0 ? topo.pods()[0].servers[0]
                                                    : topo.pods()[0].servers[0];
  ServerId b = topo.pods()[4].servers[0];  // other podset
  FiveTuple tup{topo.server(a).ip, topo.server(b).ip, 40321, 33100, 6};
  auto hops = tcp_traceroute(net, tup, 0);
  ASSERT_EQ(hops.size(), 5u);  // tor-leaf-spine-leaf-tor
  EXPECT_EQ(topo.sw(hops[2]).kind, topo::SwitchKind::kSpine);
}

// ---------------------------------------------------------------------------
// Heatmap + pattern classification (§6.3)
// ---------------------------------------------------------------------------

class HeatmapTest : public ::testing::Test {
 protected:
  HeatmapTest() : topo_(one_small_dc()), map_(topo_, DcId{0}) {}

  dsa::PodPairStatRow row(PodId src, PodId dst, SimTime p99, std::uint64_t successes = 100,
                          std::uint64_t signatures = 0) {
    dsa::PodPairStatRow r;
    r.src_pod = src;
    r.dst_pod = dst;
    r.probes = successes;
    r.successes = successes;
    r.drop_signatures = signatures;
    r.p99_ns = p99;
    return r;
  }

  /// All pod pairs with a painter function deciding the P99.
  std::vector<dsa::PodPairStatRow> paint(
      const std::function<dsa::PodPairStatRow(PodId, PodId)>& painter) {
    std::vector<dsa::PodPairStatRow> rows;
    for (const topo::Pod& a : topo_.pods()) {
      for (const topo::Pod& b : topo_.pods()) rows.push_back(painter(a.id, b.id));
    }
    return rows;
  }

  topo::Topology topo_;
  Heatmap map_;
};

TEST_F(HeatmapTest, ColorThresholds) {
  map_.load({row(PodId{0}, PodId{1}, millis(1)), row(PodId{0}, PodId{2}, millis(4) + 1),
             row(PodId{0}, PodId{3}, millis(6)),
             row(PodId{0}, PodId{4}, millis(1), /*successes=*/0)});
  EXPECT_EQ(map_.cell(0, 1), CellColor::kGreen);
  EXPECT_EQ(map_.cell(0, 2), CellColor::kYellow);
  EXPECT_EQ(map_.cell(0, 3), CellColor::kRed);
  EXPECT_EQ(map_.cell(0, 4), CellColor::kWhite);
  EXPECT_EQ(map_.cell(1, 0), CellColor::kWhite);  // no data loaded
}

TEST_F(HeatmapTest, HighDropRateIsRedEvenIfFast) {
  map_.load({row(PodId{0}, PodId{1}, millis(1), 1000, 10)});  // 1% drops
  EXPECT_EQ(map_.cell(0, 1), CellColor::kRed);
}

TEST_F(HeatmapTest, NormalPattern) {
  map_.load(paint([&](PodId a, PodId b) { return row(a, b, millis(1)); }));
  PatternResult r = classify_pattern(map_);
  EXPECT_EQ(r.pattern, LatencyPattern::kNormal);
  EXPECT_GE(r.green_fraction, 0.95);
}

TEST_F(HeatmapTest, PodsetDownPattern) {
  PodsetId down = topo_.podsets()[0].id;
  map_.load(paint([&](PodId a, PodId b) {
    bool involved = topo_.pod(a).podset == down || topo_.pod(b).podset == down;
    return involved ? row(a, b, millis(1), /*successes=*/0) : row(a, b, millis(1));
  }));
  PatternResult r = classify_pattern(map_);
  EXPECT_EQ(r.pattern, LatencyPattern::kPodsetDown);
  EXPECT_EQ(r.podset, down);
}

TEST_F(HeatmapTest, PodsetFailurePattern) {
  PodsetId bad = topo_.podsets()[1].id;
  map_.load(paint([&](PodId a, PodId b) {
    bool involved = topo_.pod(a).podset == bad || topo_.pod(b).podset == bad;
    return involved ? row(a, b, millis(9)) : row(a, b, millis(1));
  }));
  PatternResult r = classify_pattern(map_);
  EXPECT_EQ(r.pattern, LatencyPattern::kPodsetFailure);
  EXPECT_EQ(r.podset, bad);
}

TEST_F(HeatmapTest, SpineFailurePattern) {
  map_.load(paint([&](PodId a, PodId b) {
    bool cross = !(topo_.pod(a).podset == topo_.pod(b).podset);
    return cross ? row(a, b, millis(9)) : row(a, b, millis(1));
  }));
  PatternResult r = classify_pattern(map_);
  EXPECT_EQ(r.pattern, LatencyPattern::kSpineFailure);
}

TEST_F(HeatmapTest, AsciiAndPpmRender) {
  map_.load(paint([&](PodId a, PodId b) { return row(a, b, millis(1)); }));
  std::string ascii = map_.ascii();
  EXPECT_EQ(ascii.size(), 8u * 9u);  // 8 pods: 8 rows of 8 chars + newline
  EXPECT_EQ(ascii[0], 'G');
  std::string ppm = map_.to_ppm(2);
  EXPECT_EQ(ppm.substr(0, 2), "P6");
  EXPECT_NE(ppm.find("16 16"), std::string::npos);
}

// ---------------------------------------------------------------------------
// "Is it a network issue?" (§4.3)
// ---------------------------------------------------------------------------

TEST(NetworkIssueJudge, Verdicts) {
  dsa::Database db;
  auto add_row = [&](std::uint64_t signatures, SimTime p99) {
    dsa::SlaRow r;
    r.scope = dsa::SlaScope::kService;
    r.scope_id = 1;
    r.window_start = 0;
    r.window_end = hours(1);
    r.probes = 10000;
    r.successes = 9990;
    r.drop_signatures = signatures;
    r.p99_ns = p99;
    db.sla_rows.push_back(r);
  };

  add_row(0, micros(550));
  IssueVerdict healthy = judge_network_issue(db, dsa::SlaScope::kService, 1, 0, hours(1));
  EXPECT_FALSE(healthy.network_issue);
  EXPECT_NE(healthy.evidence.find("not a network issue"), std::string::npos);

  db.sla_rows.clear();
  add_row(50, micros(550));  // 5e-3 drop rate
  IssueVerdict drops = judge_network_issue(db, dsa::SlaScope::kService, 1, 0, hours(1));
  EXPECT_TRUE(drops.network_issue);

  db.sla_rows.clear();
  add_row(0, millis(20));
  IssueVerdict slow = judge_network_issue(db, dsa::SlaScope::kService, 1, 0, hours(1));
  EXPECT_TRUE(slow.network_issue);

  // Thin data -> conservative "not the network".
  dsa::Database empty;
  IssueVerdict thin = judge_network_issue(empty, dsa::SlaScope::kService, 1, 0, hours(1));
  EXPECT_FALSE(thin.network_issue);
  EXPECT_NE(thin.evidence.find("insufficient"), std::string::npos);
}

TEST(NetworkIssueJudge, TimeSeries) {
  dsa::Database db;
  for (int w = 0; w < 5; ++w) {
    dsa::SlaRow r;
    r.scope = dsa::SlaScope::kService;
    r.scope_id = 3;
    r.window_start = hours(w);
    r.window_end = hours(w + 1);
    r.probes = 100;
    r.successes = 100;
    r.drop_signatures = static_cast<std::uint64_t>(w);
    r.p99_ns = micros(500 + 10 * w);
    db.sla_rows.push_back(r);
  }
  auto series = sla_time_series(db, dsa::SlaScope::kService, 3);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_LT(series[0].drop_rate, series[4].drop_rate);
  EXPECT_EQ(series[2].window_start, hours(2));
}

}  // namespace
}  // namespace pingmesh::analysis
