// Tests for the streaming analytics path: StreamingPipeline's ring
// semantics at exact boundaries, its rules' hysteresis + dedup, the shared
// open-alert registry, and the streaming-vs-batch cross-validation over a
// full simulation (DESIGN.md §8).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agent/record.h"
#include "common/rng.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/database.h"
#include "dsa/jobs.h"
#include "dsa/pa.h"
#include "dsa/scan_cache.h"
#include "netsim/fault.h"
#include "streaming/pipeline.h"
#include "topology/topology.h"

namespace pingmesh {
namespace {

using streaming::StreamingPipeline;

/// Feed `r` to `pipe` as a one-row batch landing at its measurement time.
void ingest(StreamingPipeline& pipe, const agent::LatencyRecord& r) {
  agent::RecordColumns batch;
  batch.push_back(r);
  pipe.on_records(batch, r.timestamp);
}

/// A pipeline over one small DC, with a record builder for its pods.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : topo_(topo::Topology::build({topo::small_dc_spec("DC1", "US West")})),
        pipe_(topo_, db_, streaming::StreamingConfig{}) {}

  agent::LatencyRecord rec(std::uint32_t src_pod, std::uint32_t dst_pod, SimTime ts,
                           bool success, SimTime rtt, std::size_t i = 0) const {
    agent::LatencyRecord r;
    r.timestamp = ts;
    r.src_ip = topo_.server(topo_.pod(PodId{src_pod}).servers[i % 8]).ip;
    r.dst_ip = topo_.server(topo_.pod(PodId{dst_pod}).servers[i % 8]).ip;
    r.success = success;
    r.rtt = rtt;
    return r;
  }

  topo::Topology topo_;
  dsa::Database db_;
  StreamingPipeline pipe_;  // W = 10s, N = 6
};

// --- windows -----------------------------------------------------------------

using WindowTest = PipelineTest;

TEST_F(WindowTest, IngestClassifiesLikeBatch) {
  // 4 clean, 2 one-SYN-drop (3s), 1 two-SYN-drop (9s), 3 failures.
  for (int i = 0; i < 4; ++i) ingest(pipe_, rec(0, 1, seconds(1) + i, true, micros(200 + i)));
  ingest(pipe_, rec(0, 1, seconds(2), true, seconds(3)));
  ingest(pipe_, rec(0, 1, seconds(3), true, seconds(3) + millis(30)));
  ingest(pipe_, rec(0, 1, seconds(4), true, seconds(9)));
  for (int i = 0; i < 3; ++i) ingest(pipe_, rec(0, 1, seconds(5) + i, false, 0));

  auto s = pipe_.query(PodId{0}, PodId{1}, seconds(9));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 10u);
  EXPECT_EQ(s->successes, 7u);
  EXPECT_EQ(s->failures, 3u);
  EXPECT_EQ(s->probes_3s, 2u);
  EXPECT_EQ(s->probes_9s, 1u);
  EXPECT_EQ(s->drop_signatures(), 3u);
  // Signatures never enter the latency sketch: p99 stays in the clean band.
  EXPECT_LT(s->p99_ns, millis(1));
  EXPECT_GE(s->p50_ns, micros(190));
  // Reverse direction unseen.
  EXPECT_FALSE(pipe_.query(PodId{1}, PodId{0}, seconds(9)).has_value());
}

TEST_F(WindowTest, RecordAtExactBoundaryLandsInNewWindow) {
  ingest(pipe_, rec(0, 0, seconds(10), true, micros(150)));
  // One nanosecond before 10 s the horizon is [-50, 10): its newest
  // sub-window [0, 10) does not contain ts = 10.
  auto lo = pipe_.query(PodId{0}, PodId{0}, seconds(10) - 1);
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(lo->window_end, seconds(10));
  EXPECT_EQ(lo->probes, 0u);
  // At 10 s the horizon gains [10, 20), which does.
  auto hi = pipe_.query(PodId{0}, PodId{0}, seconds(10));
  ASSERT_TRUE(hi.has_value());
  EXPECT_EQ(hi->window_end, seconds(20));
  EXPECT_EQ(hi->probes, 1u);
}

TEST_F(WindowTest, ExpiryAtExactHorizonBoundary) {
  ingest(pipe_, rec(0, 0, seconds(5), true, micros(150)));
  // now=29: live horizon is [-30, 30) -> sub-window [0,10) live.
  auto s = pipe_.query(PodId{0}, PodId{0}, seconds(29));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);
  // now=59: live horizon [0,10)..[50,60) still includes it (edge of ring).
  s = pipe_.query(PodId{0}, PodId{0}, seconds(59));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->window_start, 0);
  EXPECT_EQ(s->probes, 1u);
  // now=60: live horizon [10,70) — the record just aged out, exactly at the
  // boundary.
  s = pipe_.query(PodId{0}, PodId{0}, seconds(60));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->window_start, seconds(10));
  EXPECT_EQ(s->probes, 0u);
}

TEST_F(WindowTest, LateRecordPastHorizonIsDroppedNotMisfiled) {
  ingest(pipe_, rec(0, 0, seconds(65), true, micros(150)));  // slot 0 -> [60,70)
  EXPECT_EQ(pipe_.ledger().late, 0u);
  ingest(pipe_, rec(0, 0, seconds(5), true, micros(150)));  // slot 0 already at 60
  EXPECT_EQ(pipe_.ledger().late, 1u);
  // The horizon at 65 s, [10, 70), ends with [60, 70): the late record did
  // not pollute it.
  auto s = pipe_.query(PodId{0}, PodId{0}, seconds(65));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);
  EXPECT_EQ(pipe_.ledger().ingested, 1u);
}

TEST_F(WindowTest, LateRecordWithinHorizonLandsInItsWindow) {
  ingest(pipe_, rec(0, 0, seconds(65), true, micros(150)));
  ingest(pipe_, rec(0, 0, seconds(45), true, micros(150)));  // late but retained slot
  EXPECT_EQ(pipe_.ledger().late, 0u);
  // The horizon at 45 s, [-10, 50), ends with [40, 50) and holds only the
  // late record; the one at 65 s holds both.
  auto s = pipe_.query(PodId{0}, PodId{0}, seconds(45));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);
  s = pipe_.query(PodId{0}, PodId{0}, seconds(65));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 2u);
}

TEST_F(WindowTest, UnknownIpsAreSkippedLikeBatchFilter) {
  agent::LatencyRecord r = rec(0, 1, seconds(1), true, micros(200));
  r.dst_ip = IpAddr{0xdeadbeef};
  ingest(pipe_, r);
  EXPECT_EQ(pipe_.ledger().skipped, 1u);
  EXPECT_EQ(pipe_.ledger().ingested, 0u);
  EXPECT_EQ(pipe_.pair_count(), 0u);
}

TEST_F(WindowTest, SteadyStateIngestKeepsMemoryFlat) {
  for (int w = 0; w < 3; ++w) ingest(pipe_, rec(0, 1, seconds(10 * w), true, micros(200)));
  std::size_t warm = pipe_.memory_bytes();
  // Hundreds more records across many ring wraps for the same pair: the
  // allocation-free contract means footprint must not move at all.
  for (int w = 3; w < 200; ++w) {
    for (int i = 0; i < 5; ++i) {
      ingest(pipe_, rec(0, 1, seconds(10 * w) + i, true, micros(200 + i), i));
    }
  }
  EXPECT_EQ(pipe_.memory_bytes(), warm);
  EXPECT_EQ(pipe_.pair_count(), 1u);
}

// --- rules -------------------------------------------------------------------

/// tick() runs every 10 s: a rule opens after 2 breaching evaluations and
/// closes after 3 clean ones.
class DetectorTest : public PipelineTest {
 protected:
  /// Fill sub-window w with 12 records for (src, dst). Mode: 'c' clean,
  /// 'b' breach (4 of 12 carry a 3s SYN-drop signature), 'f' all failed,
  /// 's' slow (5 ms clean RTT), 'p' partial black-hole (4 of 12 fail, the
  /// rest clean — the ECMP-subset loss shape).
  void fill(std::uint32_t src, std::uint32_t dst, int w, char mode) {
    for (int i = 0; i < 12; ++i) {
      SimTime ts = seconds(10 * w) + i * millis(700);
      switch (mode) {
        case 'c': ingest(pipe_, rec(src, dst, ts, true, micros(200) + i, i)); break;
        case 'b':
          ingest(pipe_, i < 4 ? rec(src, dst, ts, true, seconds(3), i)
                              : rec(src, dst, ts, true, micros(200) + i, i));
          break;
        case 'f': ingest(pipe_, rec(src, dst, ts, false, 0, i)); break;
        case 's': ingest(pipe_, rec(src, dst, ts, true, millis(5) + i, i)); break;
        case 'p':
          ingest(pipe_, i < 4 ? rec(src, dst, ts, false, 0, i)
                              : rec(src, dst, ts, true, micros(200) + i, i));
          break;
        default: FAIL() << "bad mode";
      }
    }
  }

  /// Alerts matching one streaming rule.
  [[nodiscard]] std::vector<dsa::AlertRow> alerts_for(const std::string& rule) const {
    std::vector<dsa::AlertRow> out;
    for (const auto& a : db_.alerts) {
      if (a.rule == rule) out.push_back(a);
    }
    return out;
  }
};

TEST_F(DetectorTest, DropSpikeOpensOnceThenReopensAfterClear) {
  // Phase 1: four breaching windows. Opens at the second evaluation and is
  // suppressed afterwards (one AlertRow for a persistent fault).
  for (int w = 0; w <= 3; ++w) {
    fill(0, 1, w, 'b');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 1u);
  EXPECT_EQ(alerts_for("stream:drop_spike")[0].time, seconds(20));
  EXPECT_EQ(alerts_for("stream:drop_spike")[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_TRUE(db_.alert_open(alerts_for("stream:drop_spike")[0].scope, "stream:drop_spike"));

  // Phase 2: clean windows. The breach leaves the live horizon, and after
  // close_after consecutive clean evaluations the registry entry closes
  // without emitting a row.
  for (int w = 4; w <= 12; ++w) {
    fill(0, 1, w, 'c');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 1u);
  EXPECT_FALSE(db_.alert_open(alerts_for("stream:drop_spike")[0].scope, "stream:drop_spike"));
  EXPECT_EQ(pipe_.ledger().closed, 1u);

  // Phase 3: fault returns -> a second AlertRow (not a duplicate-suppressed
  // stale one).
  for (int w = 13; w <= 14; ++w) {
    fill(0, 1, w, 'b');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 2u);
  EXPECT_EQ(pipe_.ledger().opened, 2u);
  // No other rule fired along the way.
  EXPECT_EQ(db_.alerts.size(), 2u);
}

TEST_F(DetectorTest, SilentPairFromBootIsCriticalAfterHysteresis) {
  for (int w = 0; w <= 2; ++w) {
    fill(0, 2, w, 'f');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  auto silent = alerts_for("stream:silent_pair");
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0].time, seconds(20));  // opens on the 2nd evaluation
  EXPECT_EQ(silent[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_NE(silent[0].scope.find("->"), std::string::npos);
  EXPECT_EQ(db_.alerts.size(), 1u);  // no drop-spike (failures carry no signature)
}

TEST_F(DetectorTest, FailRateCatchesPartialBlackholeWithoutSilencingPair) {
  // A partial ToR black-hole fails a fraction of a pair's probes while the
  // rest connect fine — the shape the healing loop's trigger must catch.
  // 4/12 failures per window clears the 0.15 rate threshold once the live
  // horizon holds the 8-failure floor, i.e. from the second window; the
  // 2-evaluation hysteresis then opens one critical fail_rate alert.
  for (int w = 0; w <= 3; ++w) {
    fill(0, 1, w, 'p');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  auto fail_rate = alerts_for("stream:fail_rate");
  ASSERT_EQ(fail_rate.size(), 1u);
  EXPECT_EQ(fail_rate[0].time, seconds(30));
  EXPECT_EQ(fail_rate[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_TRUE(db_.alert_open(fail_rate[0].scope, "stream:fail_rate"));
  // Successes keep flowing, so the pair is not silent; the failures carry
  // no SYN-drop latency signature, so no drop-spike either.
  EXPECT_EQ(alerts_for("stream:silent_pair").size(), 0u);
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 0u);

  // Fault clears: after close_after clean evaluations the alert closes.
  for (int w = 4; w <= 12; ++w) {
    fill(0, 1, w, 'c');
    pipe_.tick(seconds(10 * (w + 1)));
  }
  EXPECT_FALSE(db_.alert_open(fail_rate[0].scope, "stream:fail_rate"));
  EXPECT_EQ(alerts_for("stream:fail_rate").size(), 1u);  // no duplicate row
}

TEST_F(DetectorTest, SilentPairWaitsForGracePeriodAfterLastSuccess) {
  fill(0, 3, 0, 'c');  // healthy window: last success ~9.7s
  for (int w = 1; w <= 5; ++w) {
    fill(0, 3, w, 'f');
    pipe_.tick(seconds(10 * (w + 1)));
    if (seconds(10 * (w + 1)) < seconds(50)) {
      // Before last_success + 30 s + one hysteresis step, nothing.
      EXPECT_EQ(alerts_for("stream:silent_pair").size(), 0u) << "w=" << w;
    }
  }
  // Breach first seen at t=40 (30s grace over), opens at t=50.
  auto silent = alerts_for("stream:silent_pair");
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0].time, seconds(50));
}

TEST_F(DetectorTest, HealthyPairBetweenUploadsStaysQuiet) {
  // An agent uploading once a minute leaves a healthy pair's newest record
  // a success for up to a minute, well past the 30 s grace. Nothing in the
  // data says the pair went quiet, so nothing may page.
  fill(0, 1, 0, 'c');  // last success ~7.7s, and no record after it
  for (int t = 10; t <= 60; t += 10) {
    pipe_.tick(seconds(t));
    EXPECT_TRUE(alerts_for("stream:silent_pair").empty()) << "t=" << t;
  }
  EXPECT_EQ(pipe_.ledger().opened, 0u);
  EXPECT_EQ(db_.alerts.size(), 0u);
}

TEST_F(DetectorTest, AlertRowsCarryPairScopeAndRuleMessage) {
  // One pair per rule, each breaching from its first windows and clean
  // after. Rows come out in evaluation order, and within an evaluation in
  // (src, dst) then rule order; each row names its pod pair, which heal
  // reads. The pair that goes silent after one clean window first crosses
  // the failure-rate bar, before its 30 s grace is over: fail_rate owns it
  // until silent_pair takes over.
  for (int w = 0; w <= 14; ++w) {
    fill(0, 1, w, w < 4 ? 'b' : 'c');               // drop_spike
    fill(0, 2, w, w < 4 ? 'p' : 'c');               // fail_rate
    fill(0, 3, w, w == 0 || w > 4 ? 'c' : 'f');     // fail_rate, then silent_pair
    fill(1, 0, w, w >= 6 && w <= 9 ? 's' : 'c');    // latency_boost
    pipe_.tick(seconds(10 * (w + 1)));
  }
  struct Expected {
    SimTime time;
    const char* rule;
    const char* scope;
    std::uint32_t src_pod;
    std::uint32_t dst_pod;
    dsa::AlertSeverity severity;
    double value;
    const char* message;
  };
  const Expected expected[] = {
      {seconds(20), "stream:drop_spike", "pair DC1-PS0-T0->DC1-PS0-T1", 0, 1,
       dsa::AlertSeverity::kCritical, 8.0 / 24.0, "drop rate 3.33e-01 over live window"},
      {seconds(30), "stream:fail_rate", "pair DC1-PS0-T0->DC1-PS0-T2", 0, 2,
       dsa::AlertSeverity::kCritical, 12.0 / 36.0,
       "connect failure rate 3.33e-01 (12/36 probes) over live window"},
      {seconds(30), "stream:fail_rate", "pair DC1-PS0-T0->DC1-PS0-T3", 0, 3,
       dsa::AlertSeverity::kCritical, 24.0 / 36.0,
       "connect failure rate 6.67e-01 (24/36 probes) over live window"},
      {seconds(50), "stream:silent_pair", "pair DC1-PS0-T0->DC1-PS0-T3", 0, 3,
       dsa::AlertSeverity::kCritical, 48.0 / 60.0,
       "no successful probe since 7.700000s (60 probes in live window)"},
      {seconds(100), "stream:latency_boost", "pair DC1-PS0-T1->DC1-PS0-T0", 1, 0,
       dsa::AlertSeverity::kWarning, 4920343.0, "P50 4.92ms vs baseline 200us"},
  };
  std::string written;
  for (const dsa::AlertRow& a : db_.alerts) {
    written += std::to_string(to_seconds(a.time)) + "s " + a.rule + " " + a.scope + " " +
               std::to_string(a.value) + ": " + a.message + "\n";
  }
  SCOPED_TRACE(written);
  ASSERT_EQ(db_.alerts.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const dsa::AlertRow& a = db_.alerts[i];
    EXPECT_EQ(a.time, expected[i].time);
    EXPECT_EQ(a.rule, expected[i].rule);
    EXPECT_EQ(a.scope, expected[i].scope);
    EXPECT_EQ(a.src_pod, PodId{expected[i].src_pod});
    EXPECT_EQ(a.dst_pod, PodId{expected[i].dst_pod});
    EXPECT_EQ(a.severity, expected[i].severity);
    EXPECT_DOUBLE_EQ(a.value, expected[i].value);
    EXPECT_EQ(a.message, expected[i].message);
  }
  // By t=150 every pair has been clean for three evaluations: all closed.
  EXPECT_EQ(pipe_.ledger().opened, 5u);
  EXPECT_EQ(pipe_.ledger().closed, 5u);
  EXPECT_EQ(db_.open_alert_count(), 0u);
}

TEST_F(DetectorTest, LatencyBoostAgainstFrozenBaseline) {
  for (int w = 0; w <= 5; ++w) {
    fill(1, 0, w, 'c');  // establish ~200us baseline
    pipe_.tick(seconds(10 * (w + 1)));
  }
  EXPECT_EQ(db_.alerts.size(), 0u);
  for (int w = 6; w <= 9; ++w) {
    fill(1, 0, w, 's');  // 5 ms: > 3x baseline and > 1 ms floor
    pipe_.tick(seconds(10 * (w + 1)));
  }
  auto boosts = alerts_for("stream:latency_boost");
  ASSERT_EQ(boosts.size(), 1u);  // opened once, then suppressed (and the
                                 // baseline is frozen while breaching)
  // The live-horizon median crosses 3x baseline once slow windows are the
  // majority (eval t=90); the 2-evaluation hysteresis opens at t=100.
  EXPECT_EQ(boosts[0].time, seconds(100));
  EXPECT_EQ(boosts[0].severity, dsa::AlertSeverity::kWarning);
  EXPECT_EQ(db_.alerts.size(), 1u);
}

TEST_F(DetectorTest, MinProbesGateSuppressesThinPairs) {
  for (int i = 0; i < 3; ++i) {
    ingest(pipe_, rec(2, 3, seconds(1) + i, false, 0, static_cast<std::size_t>(i)));
  }
  pipe_.tick(seconds(10));
  pipe_.tick(seconds(20));
  EXPECT_EQ(db_.alerts.size(), 0u);
}

// --- open-alert registry + PA dedup ------------------------------------------

TEST(OpenAlertRegistry, OpenCloseLifecycle) {
  dsa::Database db;
  EXPECT_TRUE(db.open_alert("pod X", "rule", seconds(5)));
  EXPECT_FALSE(db.open_alert("pod X", "rule", seconds(10)));  // already open
  EXPECT_TRUE(db.open_alert("pod X", "other-rule", seconds(10)));
  EXPECT_TRUE(db.alert_open("pod X", "rule"));
  EXPECT_EQ(db.open_alert_count(), 2u);
  EXPECT_TRUE(db.close_alert("pod X", "rule"));
  EXPECT_FALSE(db.close_alert("pod X", "rule"));  // already closed
  EXPECT_FALSE(db.alert_open("pod X", "rule"));
  EXPECT_TRUE(db.open_alert("pod X", "rule", seconds(20)));  // can re-open
}

TEST(PaAlertDedup, PersistentBreachYieldsOneRowUntilCleared) {
  auto topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  dsa::Database db;
  dsa::AlertThresholds thr;  // drop_rate 1e-3, min_probes 20
  auto add_row = [&db](SimTime t, std::uint64_t sigs) {
    dsa::PaCounterRow row;
    row.time = t;
    row.pod = PodId{0};
    row.probes = 500;
    row.drop_signatures = sigs;
    row.drop_rate = static_cast<double>(sigs) / 500.0;
    db.pa_counters.push_back(row);
  };

  add_row(minutes(5), 5);  // breach
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, 0, minutes(5)), 1);
  add_row(minutes(10), 6);  // still breaching: dedup suppresses
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(5), minutes(10)), 0);
  EXPECT_EQ(db.alerts.size(), 1u);
  add_row(minutes(15), 0);  // trusted clean window closes the condition
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(10), minutes(15)), 0);
  add_row(minutes(20), 7);  // fresh breach pages again
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(15), minutes(20)), 1);
  EXPECT_EQ(db.alerts.size(), 2u);
}

// --- end-to-end: cross-validation and detection freshness --------------------

TEST(StreamingCrossValidation, WindowsMatchBatchPodPairRows) {
  // Every 10 minutes, the live horizon at production geometry against the
  // batch pod-pair job run over that same horizon, in both directions:
  // every job row equals its pair's window, and no window holds a probe the
  // job did not count.
  core::PingmeshSimulation sim(core::streaming_test_config(7));
  const StreamingPipeline& pipe = *sim.streaming();
  const topo::Topology& topo = sim.topology();
  std::size_t checked = 0;
  while (sim.now() < hours(2)) {
    sim.run_for(minutes(10));
    const SimTime now = sim.now();
    const SimTime to = now - now % streaming::kSubWindow + streaming::kSubWindow;
    const SimTime from = to - streaming::kSubWindow * streaming::kSubWindows;
    dsa::Database db;
    dsa::DecodedExtentCache cache;
    dsa::run_pod_pair_job(sim.cosmos().stream(dsa::kLatencyStream),
                          dsa::JobContext{&topo, nullptr, &db, &cache}, from, to);
    std::map<std::pair<std::uint32_t, std::uint32_t>, const dsa::PodPairStatRow*> rows;
    for (const dsa::PodPairStatRow& row : db.pod_pair_stats) {
      rows[{row.src_pod.value, row.dst_pod.value}] = &row;
    }
    for (const topo::Pod& src : topo.pods()) {
      for (const topo::Pod& dst : topo.pods()) {
        SCOPED_TRACE("pair " + std::to_string(src.id.value) + "->" +
                     std::to_string(dst.id.value) + " @" + std::to_string(to_seconds(now)));
        auto s = pipe.query(src.id, dst.id, now);
        auto row = rows.find({src.id.value, dst.id.value});
        if (row == rows.end()) {
          EXPECT_TRUE(!s.has_value() || s->probes == 0) << "window holds uncounted probes";
          continue;
        }
        ASSERT_TRUE(s.has_value()) << "pair missing from streaming state";
        const dsa::PodPairStatRow& r = *row->second;
        EXPECT_EQ(s->window_start, r.window_start);
        EXPECT_EQ(s->window_end, r.window_end);
        // Same records, same ProbeStats rule: the counters agree exactly.
        EXPECT_EQ(s->probes, r.probes);
        EXPECT_EQ(s->successes, r.successes);
        EXPECT_EQ(s->failures, r.failures);
        EXPECT_EQ(s->drop_signatures(), r.drop_signatures);
        // Both paths merge agent::ProbeStats of the same samples, so the
        // percentiles come from the same bucket counts: equal, not just close.
        EXPECT_EQ(s->p50_ns, r.p50_ns);
        EXPECT_EQ(s->p99_ns, r.p99_ns);
        ++checked;
      }
    }
  }
  // Dozens of pod pairs per horizon, twelve horizons: a real sample.
  EXPECT_GT(checked, 500u);
  EXPECT_GT(pipe.ledger().ingested, 0u);
  EXPECT_EQ(pipe.ledger().late, 0u);
}

TEST(StreamingDetection, BlackholeCaughtInUnderAMinute) {
  core::SimulationConfig cfg = core::streaming_test_config(5);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(20));
  std::size_t alerts_before = sim.db().alerts.size();
  SimTime t0 = sim.now();

  // Full ToR blackhole on pod 0 (every src/dst pair pattern dead — the TCAM
  // corruption shape): failures, not 3s/9s signatures, so the PA path and
  // the drop-spike rule are structurally blind to it.
  SwitchId tor = sim.topology().pod(PodId{0}).tor;
  sim.faults().add_blackhole(tor, netsim::BlackholeMode::kSrcDstPair, 1.0, t0);
  sim.run_for(minutes(3));

  SimTime first_stream_alert = 0;
  bool found = false;
  for (std::size_t i = alerts_before; i < sim.db().alerts.size(); ++i) {
    const dsa::AlertRow& a = sim.db().alerts[i];
    if (a.rule.rfind("stream:", 0) == 0 && a.time >= t0) {
      if (!found || a.time < first_stream_alert) first_stream_alert = a.time;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "streaming detector never fired on a full ToR blackhole";
  EXPECT_LE(first_stream_alert - t0, seconds(60));

  // The batch path hasn't even produced a row *covering* the fault yet: its
  // newest window closed at or before t0 (freshness floor = window length +
  // ingestion delay; ~20 min in production, paper §3.5).
  for (const dsa::PodPairStatRow& row : sim.db().pod_pair_stats) {
    EXPECT_LE(row.window_end, t0);
  }
}

TEST(StreamingDeterminism, WorkerCountDoesNotChangeStreamingResults) {
  // The tap runs in the serial upload-drain phase and the rules on the
  // driver thread: the whole streaming path must be bit-identical for any
  // worker count (DESIGN.md §7).
  core::SimulationConfig cfg1 = core::streaming_test_config(42);
  core::SimulationConfig cfg4 = core::streaming_test_config(42);
  cfg1.worker_threads = 1;
  cfg4.worker_threads = 4;
  core::PingmeshSimulation sim1(cfg1);
  core::PingmeshSimulation sim4(cfg4);
  sim1.run_for(minutes(40));
  sim4.run_for(minutes(40));

  const StreamingPipeline& w1 = *sim1.streaming();
  const StreamingPipeline& w4 = *sim4.streaming();
  EXPECT_EQ(w1.ledger().ingested, w4.ledger().ingested);
  EXPECT_EQ(w1.pair_count(), w4.pair_count());
  EXPECT_EQ(w1.ledger().evaluations, w4.ledger().evaluations);
  ASSERT_EQ(sim1.db().alerts.size(), sim4.db().alerts.size());
  for (std::size_t i = 0; i < sim1.db().alerts.size(); ++i) {
    EXPECT_EQ(sim1.db().alerts[i].time, sim4.db().alerts[i].time);
    EXPECT_EQ(sim1.db().alerts[i].rule, sim4.db().alerts[i].rule);
    EXPECT_EQ(sim1.db().alerts[i].scope, sim4.db().alerts[i].scope);
  }
  for (const topo::Pod& pod : sim1.topology().pods()) {
    auto a = w1.query(pod.id, pod.id, sim1.now());
    auto b = w4.query(pod.id, pod.id, sim4.now());
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->probes, b->probes);
      EXPECT_EQ(a->successes, b->successes);
      EXPECT_EQ(a->p99_ns, b->p99_ns);
    }
  }
}

}  // namespace
}  // namespace pingmesh
