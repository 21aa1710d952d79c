// Tests for the data storage and analysis pipeline: Cosmos store, SCOPE
// engine, jobs, job manager, alerting, uploader, PA.
#include <gtest/gtest.h>

#include "agent/record.h"
#include "common/clock.h"
#include "dsa/cosmos.h"
#include "dsa/database.h"
#include "dsa/jobs.h"
#include "dsa/pa.h"
#include "dsa/scan_cache.h"
#include "dsa/uploader.h"
#include "topology/topology.h"

namespace pingmesh::dsa {
namespace {

using agent::LatencyRecord;

topo::Topology small_dc() {
  return topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
}

LatencyRecord make_record(const topo::Topology& t, ServerId src, ServerId dst,
                          SimTime ts, SimTime rtt, bool success = true) {
  LatencyRecord r;
  r.timestamp = ts;
  r.src_ip = t.server(src).ip;
  r.dst_ip = t.server(dst).ip;
  r.src_port = 40000;
  r.dst_port = 33100;
  r.success = success;
  r.rtt = rtt;
  return r;
}

// ---------------------------------------------------------------------------
// Cosmos
// ---------------------------------------------------------------------------

TEST(Cosmos, AppendAndScan) {
  CosmosStore store(/*extent_size_limit=*/256);
  CosmosStream& s = store.stream("test");
  s.append("hello\n", 1, seconds(1), seconds(1), seconds(2));
  s.append("world\n", 1, seconds(3), seconds(3), seconds(4));
  EXPECT_EQ(s.total_records(), 2u);
  EXPECT_EQ(s.total_bytes(), 12u);

  std::string seen;
  s.scan(0, seconds(10), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "hello\nworld\n");
}

TEST(Cosmos, ExtentRollover) {
  CosmosStore store(/*extent_size_limit=*/10);
  CosmosStream& s = store.stream("test");
  for (int i = 0; i < 5; ++i) {
    s.append("0123456789", 1, seconds(i), seconds(i), seconds(i));
  }
  EXPECT_EQ(s.extents().size(), 5u);
}

TEST(Cosmos, ScanRespectsTimeWindow) {
  CosmosStore store(16);
  CosmosStream& s = store.stream("t");
  s.append("a", 1, seconds(1), seconds(1), 0);
  s.append("b", 1, seconds(5), seconds(5), 0);
  s.append("c", 1, seconds(9), seconds(9), 0);
  int count = 0;
  s.scan(seconds(4), seconds(8), [&](const Extent&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Cosmos, ChecksumDetectsCorruption) {
  CosmosStore store(16);
  CosmosStream& s = store.stream("t");
  s.append("payload", 1, 0, 0, 0);
  EXPECT_TRUE(s.extents()[0].verify());
  s.corrupt_extent_for_test(0);
  EXPECT_FALSE(s.extents()[0].verify());
  int seen = 0;
  s.scan(0, seconds(1), [&](const Extent&) { ++seen; });
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(s.corrupt_extents_skipped(), 1u);
}

TEST(Cosmos, ExpireReclaims) {
  CosmosStore store(8);
  CosmosStream& s = store.stream("t");
  s.append("olddata1", 1, seconds(1), seconds(1), 0);
  s.append("newdata2", 1, seconds(100), seconds(100), 0);
  std::uint64_t reclaimed = s.expire_before(seconds(50));
  EXPECT_EQ(reclaimed, 8u);
  EXPECT_EQ(s.extents().size(), 1u);
  EXPECT_EQ(s.total_records(), 1u);
}

TEST(Cosmos, ScanSkipsOldPrefixAfterInterleavedAppends) {
  // last_ts is not monotone across extents (batches from different agents
  // interleave); the prefix-max skip must still visit every overlapping
  // extent.
  CosmosStore store(4);
  CosmosStream& s = store.stream("t");
  s.append("aaaa", 1, seconds(10), seconds(10), 0);
  s.append("bbbb", 1, seconds(2), seconds(2), 0);  // older than its predecessor
  s.append("cccc", 1, seconds(20), seconds(20), 0);
  s.append("dddd", 1, seconds(15), seconds(15), 0);

  std::string seen;
  s.scan(seconds(1), seconds(30), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "aaaabbbbccccdddd");

  seen.clear();
  s.scan(seconds(12), seconds(30), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "ccccdddd");

  seen.clear();
  s.scan(seconds(14), seconds(16), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "dddd");
}

TEST(Cosmos, ScanSkipStaysCorrectAfterExpire) {
  CosmosStore store(4);
  CosmosStream& s = store.stream("t");
  s.append("aaaa", 1, seconds(1), seconds(1), 0);
  s.append("bbbb", 1, seconds(50), seconds(50), 0);
  s.append("cccc", 1, seconds(5), seconds(5), 0);
  s.expire_before(seconds(2));  // drops only the first extent
  ASSERT_EQ(s.extents().size(), 2u);

  std::string seen;
  s.scan(seconds(3), seconds(60), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "bbbbcccc");
}

TEST(Cosmos, ScanSkipHandlesRestoredExtents) {
  CosmosStream donor("d", 4);
  donor.append("xxxx", 1, seconds(7), seconds(7), 0);

  CosmosStream s("t", 4);
  s.append("aaaa", 1, seconds(3), seconds(3), 0);
  s.restore_extent(donor.extents()[0]);
  std::string seen;
  s.scan(seconds(5), seconds(10), [&](const Extent& e) { seen += e.data; });
  EXPECT_EQ(seen, "xxxx");
}

TEST(Cosmos, StoreAggregates) {
  CosmosStore store;
  store.stream("a").append("xx", 1, 0, 0, 0);
  store.stream("b").append("yyy", 2, 0, 0, 0);
  EXPECT_EQ(store.total_bytes(), 5u);
  EXPECT_EQ(store.total_records(), 3u);
  EXPECT_EQ(store.stream_names().size(), 2u);
  EXPECT_EQ(store.find("a")->name(), "a");
  EXPECT_EQ(store.find("zzz"), nullptr);
}

// ---------------------------------------------------------------------------
// DecodedExtentCache
// ---------------------------------------------------------------------------

/// Append one encoded record to the stream; returns the encoded blob.
std::string append_record(CosmosStream& s, const topo::Topology& t, SimTime ts) {
  LatencyRecord r = make_record(t, t.servers()[0].id, t.servers()[1].id, ts, millis(1));
  std::string blob = agent::encode_batch({r});
  s.append(blob, 1, ts, ts, ts);
  return blob;
}

TEST(DecodedExtentCache, HitsAfterFirstDecode) {
  topo::Topology t = small_dc();
  CosmosStream s("t", /*extent_size_limit=*/16);  // one record per extent
  append_record(s, t, seconds(1));
  append_record(s, t, seconds(2));

  DecodedExtentCache cache;
  auto first = scope::extract_records(s, 0, seconds(10), cache);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  auto second = scope::extract_records(s, 0, seconds(10), cache);
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(DecodedExtentCache, CachedScanMatchesUncachedScan) {
  topo::Topology t = small_dc();
  CosmosStream s("t", 64);
  for (int i = 1; i <= 20; ++i) append_record(s, t, seconds(i));

  DecodedExtentCache cache;
  for (SimTime from : {seconds(0), seconds(5), seconds(12)}) {
    // Reference: decode every extent afresh and keep the rows in the window.
    agent::RecordColumns plain;
    s.scan(from, seconds(15), [&](const Extent& e) {
      const agent::RecordColumns cols = decode_extent(e);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols.timestamp(i) >= from && cols.timestamp(i) < seconds(15)) {
          plain.push_back(cols.row(i));
        }
      }
    });
    auto cached = scope::extract_records(s, from, seconds(15), cache);
    ASSERT_EQ(plain.size(), cached.size());
    EXPECT_EQ(plain.encode_csv(), cached.encode_csv());
  }
}

TEST(DecodedExtentCache, GrownTailExtentIsRedecoded) {
  topo::Topology t = small_dc();
  CosmosStream s("t", 1 << 20);  // everything lands in one open extent
  append_record(s, t, seconds(1));

  DecodedExtentCache cache;
  EXPECT_EQ(scope::extract_records(s, 0, seconds(10), cache).size(), 1u);
  append_record(s, t, seconds(2));  // same extent, new checksum
  EXPECT_EQ(scope::extract_records(s, 0, seconds(10), cache).size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);  // second scan re-decoded, not served stale
}

TEST(DecodedExtentCache, ExpireDropsOldEntries) {
  topo::Topology t = small_dc();
  CosmosStream s("t", 16);
  append_record(s, t, seconds(1));
  append_record(s, t, seconds(100));

  DecodedExtentCache cache;
  scope::extract_records(s, 0, seconds(200), cache);
  EXPECT_EQ(cache.size(), 2u);
  cache.expire_before(seconds(50));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DecodedExtentCache, EvictsOldestWhenFull) {
  topo::Topology t = small_dc();
  CosmosStream s("t", 16);
  for (int i = 1; i <= 5; ++i) append_record(s, t, seconds(i));

  DecodedExtentCache cache(/*max_entries=*/3);
  scope::extract_records(s, 0, seconds(10), cache);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 2u);
  // Results stay correct regardless of eviction.
  EXPECT_EQ(scope::extract_records(s, 0, seconds(10), cache).size(), 5u);
}

// ---------------------------------------------------------------------------
// SCOPE EXTRACT
// ---------------------------------------------------------------------------

TEST(Scope, ExtractFromStream) {
  topo::Topology t = small_dc();
  CosmosStore store;
  CosmosStream& s = store.stream("latency");
  std::vector<LatencyRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(make_record(t, t.servers()[0].id, t.servers()[1].id, seconds(i),
                                micros(200 + i)));
  }
  s.append(agent::encode_batch(batch), batch.size(), seconds(0), seconds(9), seconds(10));
  DecodedExtentCache cache;
  auto data = scope::extract_records(s, seconds(2), seconds(5), cache);
  EXPECT_EQ(data.size(), 3u);  // ts 2,3,4
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GE(data.timestamp(i), seconds(2));
    EXPECT_LT(data.timestamp(i), seconds(5));
  }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

class JobsTest : public ::testing::Test {
 protected:
  JobsTest() : topo_(small_dc()) {
    ctx_.topo = &topo_;
    ctx_.services = &services_;
    ctx_.db = &db_;
    ctx_.scan_cache = &cache_;
  }

  void load_records(const std::vector<LatencyRecord>& records) {
    CosmosStream& s = store_.stream(kLatencyStream);
    s.append(agent::encode_batch(records), records.size(), 0, hours(1), hours(1));
  }

  topo::Topology topo_;
  topo::ServiceMap services_;
  Database db_;
  CosmosStore store_;
  DecodedExtentCache cache_;
  JobContext ctx_;
};

TEST_F(JobsTest, PodPairJobAggregates) {
  const topo::Pod& pod0 = topo_.pods()[0];
  const topo::Pod& pod1 = topo_.pods()[1];
  std::vector<LatencyRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(
        make_record(topo_, pod0.servers[0], pod1.servers[0], seconds(i), micros(300)));
  }
  // One 3s drop signature + one failure.
  records.push_back(make_record(topo_, pod0.servers[0], pod1.servers[0], seconds(50),
                                seconds(3) + micros(300)));
  records.push_back(make_record(topo_, pod0.servers[0], pod1.servers[0], seconds(51),
                                0, /*success=*/false));
  load_records(records);

  run_pod_pair_job(*store_.find(kLatencyStream), ctx_, 0, minutes(10));
  ASSERT_EQ(db_.pod_pair_stats.size(), 1u);
  const PodPairStatRow& row = db_.pod_pair_stats[0];
  EXPECT_EQ(row.src_pod, pod0.id);
  EXPECT_EQ(row.dst_pod, pod1.id);
  EXPECT_EQ(row.probes, 52u);
  EXPECT_EQ(row.successes, 51u);
  EXPECT_EQ(row.failures, 1u);
  EXPECT_EQ(row.drop_signatures, 1u);
  EXPECT_NEAR(static_cast<double>(row.p50_ns), 300e3, 15e3);
}

TEST_F(JobsTest, SlaJobEmitsAllScopes) {
  const topo::Pod& pod0 = topo_.pods()[0];
  services_.add_service("Search", {pod0.servers[0], pod0.servers[1]});
  std::vector<LatencyRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(
        make_record(topo_, pod0.servers[0], pod0.servers[1], seconds(i), micros(250)));
  }
  load_records(records);
  run_sla_job(*store_.find(kLatencyStream), ctx_, 0, hours(1), /*server rows=*/true);

  bool pod = false, podset = false, dc = false, service = false, server = false;
  for (const SlaRow& row : db_.sla_rows) {
    switch (row.scope) {
      case SlaScope::kPod: pod = true; break;
      case SlaScope::kPodset: podset = true; break;
      case SlaScope::kDc: dc = true; break;
      case SlaScope::kService: service = true; break;
      case SlaScope::kServer: server = true; break;
    }
  }
  EXPECT_TRUE(pod && podset && dc && service && server);

  auto series = db_.sla_series(SlaScope::kService, 0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].probes, 30u);
}

TEST_F(JobsTest, DcDropJobSplitsIntraInterPod) {
  const topo::Pod& pod0 = topo_.pods()[0];
  const topo::Pod& pod1 = topo_.pods()[1];
  std::vector<LatencyRecord> records;
  // 1000 clean intra-pod + 10 with signature.
  for (int i = 0; i < 1000; ++i) {
    records.push_back(
        make_record(topo_, pod0.servers[0], pod0.servers[1], seconds(i), micros(216)));
  }
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record(topo_, pod0.servers[0], pod0.servers[1],
                                  seconds(1000 + i), seconds(3) + micros(216)));
  }
  // 1000 clean inter-pod + 40 with signature.
  for (int i = 0; i < 1000; ++i) {
    records.push_back(
        make_record(topo_, pod0.servers[0], pod1.servers[0], seconds(i), micros(268)));
  }
  for (int i = 0; i < 40; ++i) {
    records.push_back(make_record(topo_, pod0.servers[0], pod1.servers[0],
                                  seconds(1000 + i), seconds(3) + micros(268)));
  }
  load_records(records);
  // The daily job sums the day's 10-min pod-pair rows.
  for (SimTime w = 0; w < days(1); w += minutes(10)) {
    run_pod_pair_job(*store_.find(kLatencyStream), ctx_, w, w + minutes(10));
  }
  run_dc_drop_job(ctx_, 0, days(1));
  ASSERT_EQ(db_.dc_drop_rows.size(), 1u);
  const DcDropRow& row = db_.dc_drop_rows[0];
  EXPECT_NEAR(row.intra_pod_drop_rate, 10.0 / 1010.0, 1e-6);
  EXPECT_NEAR(row.inter_pod_drop_rate, 40.0 / 1040.0, 1e-6);
  EXPECT_GT(row.inter_pod_drop_rate, row.intra_pod_drop_rate);
}

TEST_F(JobsTest, AlertsFireOnThresholds) {
  SlaRow bad;
  bad.scope = SlaScope::kService;
  bad.scope_id = 0;
  bad.probes = 1000;
  bad.successes = 990;
  bad.drop_signatures = 5;  // 5.05e-3 > 1e-3
  bad.p99_ns = millis(2);
  SlaRow slow = bad;
  slow.drop_signatures = 0;
  slow.p99_ns = millis(8);  // > 5ms
  SlaRow fine = bad;
  fine.drop_signatures = 0;
  fine.p99_ns = millis(1);
  SlaRow thin = bad;  // breaks thresholds but too few probes
  thin.probes = 5;
  thin.successes = 5;
  thin.drop_signatures = 3;

  int fired = evaluate_sla_alerts(ctx_, {bad, slow, fine, thin}, AlertThresholds{}, hours(1));
  EXPECT_EQ(fired, 2);
  ASSERT_EQ(db_.alerts.size(), 2u);
  EXPECT_EQ(db_.alerts[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(db_.alerts[1].severity, AlertSeverity::kWarning);
}

TEST(JobManager, WindowsFireAfterIngestionDelay) {
  JobManager jm(/*ingestion_delay=*/minutes(10));
  std::vector<std::pair<SimTime, SimTime>> windows;
  jm.register_job("10min", minutes(10),
                  [&](SimTime from, SimTime to) { windows.emplace_back(from, to); });

  jm.on_tick(minutes(10));  // window [0,10) not yet ingested
  EXPECT_TRUE(windows.empty());
  jm.on_tick(minutes(20));  // now [0,10) is complete + delay passed
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], std::make_pair(SimTime{0}, minutes(10)));
  jm.on_tick(minutes(55));  // catch up: [10,20), [20,30), [30,40)
  EXPECT_EQ(windows.size(), 4u);

  auto stats = jm.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].runs, 4u);
  // E2E freshness: ~20 min for the paper's 10-min jobs.
  EXPECT_GE(stats[0].last_e2e_delay(), minutes(10));
}

TEST(JobManager, InvalidPeriodThrows) {
  JobManager jm;
  EXPECT_THROW(jm.register_job("bad", 0, [](SimTime, SimTime) {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Uploader + PA
// ---------------------------------------------------------------------------

TEST(CosmosUploader, WritesBatches) {
  topo::Topology t = small_dc();
  CosmosStore store;
  VirtualClock clock(seconds(100));
  CosmosUploader up(store, kLatencyStream, clock);
  std::vector<LatencyRecord> batch = {
      make_record(t, t.servers()[0].id, t.servers()[1].id, seconds(1), micros(200)),
      make_record(t, t.servers()[0].id, t.servers()[1].id, seconds(2), micros(210)),
  };
  EXPECT_TRUE(up.upload(agent::to_columns(batch)));
  const CosmosStream* s = store.find(kLatencyStream);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total_records(), 2u);
  EXPECT_EQ(s->extents()[0].appended_at, seconds(100));
  EXPECT_EQ(s->extents()[0].first_ts, seconds(1));
  EXPECT_EQ(s->extents()[0].last_ts, seconds(2));
}

TEST(CosmosUploader, FailureInjection) {
  topo::Topology t = small_dc();
  CosmosStore store;
  VirtualClock clock;
  CosmosUploader up(store, kLatencyStream, clock);
  std::vector<LatencyRecord> batch = {
      make_record(t, t.servers()[0].id, t.servers()[1].id, 0, micros(200))};
  up.fail_next(2);
  EXPECT_FALSE(up.upload(agent::to_columns(batch)));
  EXPECT_FALSE(up.upload(agent::to_columns(batch)));
  EXPECT_TRUE(up.upload(agent::to_columns(batch)));
  up.set_available(false);
  EXPECT_FALSE(up.upload(agent::to_columns(batch)));
}

TEST(Pa, AggregatesPerPod) {
  topo::Topology t = small_dc();
  Database db;
  PerfcounterAggregator pa(t, db);
  const topo::Pod& pod0 = t.pods()[0];

  agent::CounterSnapshot s1;
  for (int i = 0; i < 99; ++i) s1.add(true, micros(200));
  s1.add(true, seconds(3) + micros(200));
  agent::CounterSnapshot s2;
  for (int i = 0; i < 97; ++i) s2.add(true, micros(200));
  for (int i = 0; i < 3; ++i) s2.add(true, seconds(3) + micros(200));
  pa.collect(pod0.servers[0], s1);
  pa.collect(pod0.servers[1], s2);
  pa.flush(minutes(5));

  ASSERT_EQ(db.pa_counters.size(), 1u);
  const PaCounterRow& row = db.pa_counters[0];
  EXPECT_EQ(row.pod, pod0.id);
  EXPECT_EQ(row.probes, 200u);
  EXPECT_EQ(row.drop_signatures, 4u);
  EXPECT_NEAR(row.drop_rate, 4.0 / 200.0, 1e-9);
  // Pod percentiles come from the merged server sketches; the 3 s
  // signatures never enter them.
  EXPECT_EQ(row.p50_ns, micros(200));
  EXPECT_EQ(row.p99_ns, micros(200));

  // Flush clears the bucket.
  pa.flush(minutes(10));
  EXPECT_EQ(db.pa_counters.size(), 1u);
}

TEST(Pa, AlertsOnDropRateWithSignatureFloor) {
  topo::Topology t = small_dc();
  Database db;
  auto add_pa_row = [&](SimTime time, std::uint64_t signatures, double rate) {
    PaCounterRow row;
    row.time = time;
    row.pod = t.pods()[0].id;
    row.probes = 500;
    row.drop_signatures = signatures;
    row.drop_rate = rate;
    db.pa_counters.push_back(row);
  };
  // One signature in a small window: breaches 1e-3 numerically but is
  // statistically meaningless — must not page.
  add_pa_row(minutes(5), 1, 2e-3);
  EXPECT_EQ(evaluate_pa_alerts(db, t, AlertThresholds{}, 0, minutes(5)), 0);
  // A real incident: many signatures.
  add_pa_row(minutes(10), 12, 2.4e-2);
  EXPECT_EQ(evaluate_pa_alerts(db, t, AlertThresholds{}, minutes(5), minutes(10)), 1);
  ASSERT_EQ(db.alerts.size(), 1u);
  EXPECT_EQ(db.alerts[0].rule.rfind("pa:", 0), 0u);
  // Re-evaluating a later window does not double-fire on old rows.
  EXPECT_EQ(evaluate_pa_alerts(db, t, AlertThresholds{}, minutes(10), minutes(15)), 0);
}

TEST(Database, QueriesFilter) {
  Database db;
  for (int w = 0; w < 3; ++w) {
    PodPairStatRow row;
    row.window_start = minutes(10 * w);
    row.src_pod = PodId{0};
    row.dst_pod = PodId{1};
    db.pod_pair_stats.push_back(row);
  }
  EXPECT_EQ(db.latest_pod_pair_window().size(), 1u);
  EXPECT_EQ(db.latest_pod_pair_window()[0].window_start, minutes(20));
  EXPECT_EQ(db.pod_pairs_between(minutes(5), minutes(25)).size(), 2u);
  EXPECT_EQ(db.total_rows(), 3u);
}

}  // namespace
}  // namespace pingmesh::dsa
