// Serving-tier tests: RollupStore seal/merge correctness (the disjointness
// contract, conservation ledger, determinism digest), the
// percentile-within-bounds property vs an exact rescan, robustness against
// late/skewed records (chaos: clock skew, controller outage replays), and
// the QueryService HTTP surface (JSON endpoints, ETag/304 revalidation,
// LRU cache coherence, loopback HTTP incl. HEAD).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agent/record.h"
#include "agent/record_columns.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/cosmos.h"
#include "net/http.h"
#include "net/reactor.h"
#include "net/sockaddr.h"
#include "serve/persist.h"
#include "serve/query_service.h"
#include "serve/replica.h"
#include "serve/rollup.h"
#include "topology/topology.h"

namespace pingmesh {
namespace {

using serve::RollupConfig;
using serve::RollupStore;

/// Sim-paced widths for the worker-determinism probe (records span
/// minutes of sim time).
RollupConfig sim_rollup_config() {
  RollupConfig cfg;
  cfg.tier_width[0] = minutes(1);
  cfg.tier_width[1] = minutes(10);
  cfg.tier_width[2] = hours(1);
  cfg.seal_grace = seconds(5);
  return cfg;
}

/// Small nesting widths so every tier seals inside a test: 10 s -> 1 min
/// -> 10 min, 1 s grace.
RollupConfig test_config() {
  RollupConfig cfg;
  cfg.tier_width[0] = seconds(10);
  cfg.tier_width[1] = minutes(1);
  cfg.tier_width[2] = minutes(10);
  cfg.seal_grace = seconds(1);
  cfg.future_slack = seconds(30);
  return cfg;
}

class RollupTest : public ::testing::Test {
 protected:
  RollupTest() : topo_(topo::Topology::build({topo::small_dc_spec("DC1", "US West")})) {}

  /// One clean successful probe between two servers at `ts`.
  agent::LatencyRecord record(ServerId src, ServerId dst, SimTime ts, SimTime rtt,
                              bool success = true) {
    agent::LatencyRecord r;
    r.timestamp = ts;
    r.src_ip = topo_.server(src).ip;
    r.dst_ip = topo_.server(dst).ip;
    r.success = success;
    r.rtt = rtt;
    return r;
  }

  void feed(RollupStore& store, const std::vector<agent::LatencyRecord>& recs,
            SimTime now) {
    agent::RecordColumns batch;
    for (const auto& r : recs) batch.push_back(r);
    store.on_records(batch, now);
  }

  topo::Topology topo_;
};

TEST_F(RollupTest, RecordsLandInTierZeroAndAnswerQueries) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  feed(store, {record(a, b, seconds(1), 400'000), record(a, b, seconds(2), 600'000)},
       seconds(3));

  EXPECT_EQ(store.ingested(), 2u);
  EXPECT_EQ(store.placed(), 2u);
  auto stats = store.query_pair(topo_.server(a).pod, PodId{1}, 0, seconds(10));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->probes, 2u);
  EXPECT_EQ(stats->successes, 2u);
  EXPECT_TRUE(store.check_conservation());
}

TEST_F(RollupTest, SealCascadeErasesChildrenWithoutLosingCoverage) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  PodId src_pod = topo_.server(a).pod;

  // One probe per tier-0 window across two tier-1 windows (12 x 10 s).
  std::uint64_t placed = 0;
  for (int w = 0; w < 12; ++w) {
    feed(store, {record(a, b, seconds(10) * w + seconds(1), 500'000)},
         seconds(10) * w + seconds(2));
    ++placed;
  }
  EXPECT_EQ(store.placed(), placed);

  // Advance far enough that the first tier-1 window (0-60 s) seals: its
  // tier-0 children are erased, but the minute cell answers for them.
  store.advance(minutes(2) + seconds(5));
  EXPECT_EQ(store.sealed_until(1), minutes(2));
  auto all = store.query_pair(src_pod, PodId{1}, 0, minutes(3));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->probes, placed);  // coverage degrades in resolution, never in count
  EXPECT_TRUE(store.check_conservation());

  // Sub-minute queries inside the sealed region now resolve at tier-1
  // granularity: the outward rounding still covers the minute.
  auto first_min = store.query_pair(src_pod, PodId{1}, 0, minutes(1));
  ASSERT_TRUE(first_min.has_value());
  EXPECT_EQ(first_min->probes, 6u);
}

TEST_F(RollupTest, DigestIsDeterministicUnderReplay) {
  RollupStore s1(topo_, nullptr, test_config());
  RollupStore s2(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{2}).servers[3]};

  std::uint64_t rng = 7;
  std::vector<agent::LatencyRecord> recs;
  for (int i = 0; i < 500; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    SimTime ts = seconds(1) * (i / 4) + (rng % 1000);
    recs.push_back(record(a, b, ts, 300'000 + static_cast<SimTime>(rng % 400'000)));
  }
  for (std::size_t off = 0; off < recs.size(); off += 50) {
    std::vector<agent::LatencyRecord> chunk(
        recs.begin() + off, recs.begin() + std::min(off + 50, recs.size()));
    feed(s1, chunk, chunk.back().timestamp + seconds(1));
    feed(s2, chunk, chunk.back().timestamp + seconds(1));
  }
  EXPECT_EQ(s1.digest(), s2.digest());

  // A single extra record separates the digests.
  feed(s2, {record(a, b, minutes(3), 900'000)}, minutes(3) + seconds(1));
  EXPECT_NE(s1.digest(), s2.digest());
}

// The property-test satellite: merged 10 s -> 1 min -> 10 min cells must
// answer percentile queries within the DDSketch error bound of a full
// rescan of every record, even when the range spans all three tiers.
TEST_F(RollupTest, MergedTiersAnswerPercentilesWithinSketchBounds) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{3}).servers[1]};
  PodId src_pod = topo_.server(a).pod;

  // 40 minutes of records: by the end, early data lives in sealed tier-2
  // cells, the middle in tier-1, the tail in live tier-0.
  std::vector<SimTime> exact;
  std::uint64_t rng = 99;
  for (int i = 0; i < 8000; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    SimTime ts = (minutes(40) * i) / 8000;
    SimTime rtt = 200'000 + static_cast<SimTime>(rng % 2'000'000);
    exact.push_back(rtt);
    feed(store, {record(a, b, ts, rtt)}, ts + seconds(1));
  }
  store.advance(minutes(41));
  ASSERT_GT(store.sealed_until(2), 0) << "tier 2 must have sealed for this property";
  EXPECT_TRUE(store.check_conservation());

  auto stats = store.query_pair(src_pod, PodId{3}, 0, minutes(41));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->probes, exact.size());

  std::sort(exact.begin(), exact.end());
  auto nearest_rank = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(exact.size())));
    return exact[std::max<std::size_t>(rank, 1) - 1];
  };
  const double bound = store.relative_error_bound() * 1.10;
  for (auto [q, got] : {std::pair<double, SimTime>{0.50, stats->p50_ns},
                        {0.99, stats->p99_ns},
                        {0.999, stats->p999_ns}}) {
    SimTime want = nearest_rank(q);
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(want),
                static_cast<double>(want) * bound)
        << "q=" << q;
  }
}

TEST_F(RollupTest, LateRecordsIntoSealedWindowsAreDroppedNotMerged) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  PodId src_pod = topo_.server(a).pod;

  feed(store, {record(a, b, seconds(5), 500'000)}, seconds(6));
  store.advance(minutes(2));  // seals the 0-10 s window (and more)
  ASSERT_GT(store.sealed_until(0), seconds(10));
  auto before = store.query_pair(src_pod, PodId{1}, 0, minutes(2));
  ASSERT_TRUE(before.has_value());

  // A replayed/late record for the sealed window: counted, never placed.
  feed(store, {record(a, b, seconds(7), 100'000)}, minutes(2) + seconds(1));
  EXPECT_EQ(store.late_dropped(), 1u);
  auto after = store.query_pair(src_pod, PodId{1}, 0, minutes(2));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->probes, before->probes);
  EXPECT_EQ(after->p99_ns, before->p99_ns);  // history is immutable
  EXPECT_TRUE(store.check_conservation());
}

// Seal-boundary regression (the off-by-one audit): a record stamped EXACTLY
// at sealed_until(0) belongs to the first unsealed window — sealing is a
// strict `start < sealed_until` comparison — so it must be placed, not
// late-dropped, and must land in exactly one cell.
TEST_F(RollupTest, RecordStampedAtSealBoundaryLandsInUnsealedWindow) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  PodId src_pod = topo_.server(a).pod;

  feed(store, {record(a, b, seconds(1), 500'000)}, seconds(2));
  store.advance(seconds(21));  // watermark 20 s: windows [0,10) and [10,20) seal
  ASSERT_EQ(store.sealed_until(0), seconds(20));

  // Exactly on the boundary: first timestamp of the unsealed [20,30) window.
  feed(store, {record(a, b, seconds(20), 600'000)}, seconds(21));
  EXPECT_EQ(store.placed(), 2u);
  EXPECT_EQ(store.late_dropped(), 0u);

  // One tick before the boundary: inside the sealed [10,20) window.
  feed(store, {record(a, b, seconds(20) - 1, 600'000)}, seconds(21));
  EXPECT_EQ(store.placed(), 2u);
  EXPECT_EQ(store.late_dropped(), 1u);

  // The boundary record is queryable in its window and counted once.
  auto window = store.query_pair(src_pod, PodId{1}, seconds(20), seconds(30));
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->probes, 1u);
  auto all = store.query_pair(src_pod, PodId{1}, 0, seconds(30));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->probes, 2u);
  EXPECT_TRUE(store.check_conservation());
}

TEST_F(RollupTest, ClockSkewedFutureRecordsAreRejected) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};

  feed(store, {record(a, b, seconds(1), 500'000)}, seconds(2));
  // An agent with a skewed clock stamps a record 10 minutes ahead of the
  // ingest watermark (> future_slack): rejected, or it would land in a
  // window that seals out from under genuinely-current arrivals.
  feed(store, {record(a, b, minutes(10), 500'000)}, seconds(3));
  EXPECT_EQ(store.rejected_future(), 1u);
  EXPECT_EQ(store.placed(), 1u);
  EXPECT_TRUE(store.check_conservation());

  // Within-slack future stamps are fine (bounded skew is normal).
  feed(store, {record(a, b, seconds(20), 500'000)}, seconds(4));
  EXPECT_EQ(store.placed(), 2u);
  EXPECT_EQ(store.rejected_future(), 1u);
}

TEST_F(RollupTest, UnknownIpsAreSkippedNotFatal) {
  RollupStore store(topo_, nullptr, test_config());
  agent::LatencyRecord r;
  r.timestamp = seconds(1);
  r.src_ip = IpAddr(0x7f000001);  // not in the topology
  r.dst_ip = topo_.server(ServerId{0}).ip;
  r.success = true;
  r.rtt = 500'000;
  agent::RecordColumns batch;
  batch.push_back(r);
  store.on_records(batch, seconds(2));
  EXPECT_EQ(store.skipped(), 1u);
  EXPECT_EQ(store.placed(), 0u);
  EXPECT_TRUE(store.check_conservation());
}

TEST_F(RollupTest, TierTwoEvictionBoundsMemoryAndKeepsLedger) {
  RollupConfig cfg = test_config();
  cfg.max_tier2_cells = 2;
  RollupStore store(topo_, nullptr, cfg);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  PodId src_pod = topo_.server(a).pod;

  // 6 tier-2 windows (10 min each) with one record apiece; only the newest
  // 2 sealed day-cells survive per series.
  for (int w = 0; w < 6; ++w) {
    feed(store, {record(a, b, minutes(10) * w + seconds(5), 500'000)},
         minutes(10) * w + seconds(6));
  }
  store.advance(minutes(70));
  EXPECT_GT(store.expired_records(), 0u);
  EXPECT_TRUE(store.check_conservation());
  auto all = store.query_pair(src_pod, PodId{1}, 0, minutes(70));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->probes + store.expired_records(), store.placed());
}

TEST_F(RollupTest, ServiceScopeRollsUpSourceServersOnly) {
  topo::ServiceMap services;
  ServiceId search =
      services.add_service("Search", topo_.pod(PodId{0}).servers);
  ServiceId storage =
      services.add_service("Storage", topo_.pod(PodId{1}).servers);
  RollupStore store(topo_, &services, test_config());

  ServerId in_search{topo_.pod(PodId{0}).servers[0]};
  ServerId in_storage{topo_.pod(PodId{1}).servers[0]};
  // Search -> Storage probe: rolls into Search (source scope) only.
  feed(store, {record(in_search, in_storage, seconds(1), 500'000)}, seconds(2));

  // Watermark 2 s: the window [0, 2 s) rounds out to the first 10 s cell.
  auto search_stats = store.view(seconds(10), search).service;
  ASSERT_TRUE(search_stats.has_value());
  EXPECT_EQ(search_stats->probes, 1u);
  EXPECT_FALSE(store.view(seconds(10), storage).service.has_value());
  EXPECT_TRUE(store.check_conservation());
}

TEST_F(RollupTest, FailuresAndRetransmitSignaturesClassify) {
  RollupStore store(topo_, nullptr, test_config());
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  PodId src_pod = topo_.server(a).pod;

  feed(store,
       {record(a, b, seconds(1), 500'000),
        record(a, b, seconds(2), 0, /*success=*/false),
        record(a, b, seconds(3), 3 * kNanosPerSecond + 500'000)},  // SYN retransmit
       seconds(4));
  auto stats = store.query_pair(src_pod, PodId{1}, 0, seconds(10));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->probes, 3u);
  EXPECT_EQ(stats->successes, 2u);
  EXPECT_EQ(stats->failures, 1u);
  EXPECT_EQ(stats->probes_3s, 1u);
}

// 1-vs-N-worker determinism: the same simulated fleet at different worker
// counts must produce byte-identical rollup digests (ingest is a serial
// driver-thread phase; worker count must not leak into cell contents).
TEST(RollupDeterminism, DigestIdenticalAcrossWorkerCounts) {
  std::uint64_t digests[2] = {0, 0};
  int workers[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    core::SimulationConfig cfg = core::streaming_test_config(7);
    cfg.worker_threads = workers[i];
    core::PingmeshSimulation sim(cfg);
    serve::RollupStore store(sim.topology(), nullptr, sim_rollup_config());
    sim.add_record_tap(&store);
    sim.run_for(minutes(6));
    EXPECT_GT(store.placed(), 0u) << "workers=" << workers[i];
    EXPECT_TRUE(store.check_conservation()) << "workers=" << workers[i];
    digests[i] = store.digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest()
      : topo_(topo::Topology::build({topo::small_dc_spec("DC1", "US West")})) {
    search_ = services_.add_service("Search", topo_.pod(PodId{0}).servers);
    store_ = std::make_unique<RollupStore>(topo_, &services_, test_config());
    ServerId a{topo_.pod(PodId{0}).servers[0]};
    ServerId b{topo_.pod(PodId{1}).servers[0]};
    ServerId c{topo_.pod(PodId{2}).servers[0]};
    agent::RecordColumns batch;
    for (int i = 0; i < 50; ++i) {
      agent::LatencyRecord r;
      r.timestamp = seconds(1) + i * 1'000'000;
      r.src_ip = topo_.server(a).ip;
      r.dst_ip = topo_.server(i % 2 == 0 ? b : c).ip;
      r.success = true;
      r.rtt = 400'000 + i * 10'000;
      batch.push_back(r);
    }
    store_->on_records(batch, seconds(5));
  }

  net::HttpResponse get(serve::QueryService& svc, const std::string& path,
                        const std::string& inm = "") {
    net::HttpRequest req{"GET", path, {}, ""};
    if (!inm.empty()) req.headers["if-none-match"] = inm;
    return svc.handle(req);
  }

  topo::Topology topo_;
  topo::ServiceMap services_;
  ServiceId search_{};
  std::unique_ptr<RollupStore> store_;
};

TEST_F(QueryServiceTest, HeatmapListsActivePairs) {
  serve::QueryService svc(topo_, *store_, &services_);
  auto resp = get(svc, "/query/heatmap?minutes=60");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"pairs\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"probes\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(resp.headers.find("etag"), resp.headers.end());
}

TEST_F(QueryServiceTest, SlaAnswersForServiceAnd404sUnknown) {
  serve::QueryService svc(topo_, *store_, &services_);
  auto resp = get(svc, "/query/sla?service=Search&minutes=60");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"service\":\"Search\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"probes\":50"), std::string::npos);
  EXPECT_EQ(get(svc, "/query/sla?service=NoSuch&minutes=60").status, 404);
}

TEST_F(QueryServiceTest, TopkOrdersWorstFirstAndRejectsBadMetric) {
  serve::QueryService svc(topo_, *store_, &services_);
  auto resp = get(svc, "/query/topk?k=5&metric=p99&minutes=60");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"metric\":\"p99\""), std::string::npos);
  EXPECT_EQ(get(svc, "/query/topk?k=5&metric=bogus&minutes=60").status, 400);
}

TEST_F(QueryServiceTest, MinutesBeyondSimTimeIs400) {
  // A window whose span overflows SimTime is a bad request, not a wrapped
  // window, on every endpoint; the longest span SimTime holds still answers.
  serve::QueryService svc(topo_, *store_, &services_);
  EXPECT_EQ(get(svc, "/query/heatmap?minutes=999999999999999").status, 400);
  EXPECT_EQ(get(svc, "/query/sla?service=Search&minutes=999999999999999").status, 400);
  EXPECT_EQ(get(svc, "/query/topk?metric=p99&minutes=999999999999999").status, 400);
  const SimTime longest = std::numeric_limits<SimTime>::max() / kNanosPerMinute;
  EXPECT_EQ(get(svc, "/query/heatmap?minutes=" + std::to_string(longest)).status, 200);
  EXPECT_EQ(get(svc, "/query/heatmap?minutes=" + std::to_string(longest + 1)).status, 400);
}

TEST_F(QueryServiceTest, TopkBeyondIntIs400) {
  // 2^32 + 1 would truncate to k = 1.
  serve::QueryService svc(topo_, *store_, &services_);
  auto resp = get(svc, "/query/topk?k=4294967297&metric=p99&minutes=60");
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("k out of range"), std::string::npos);
}

TEST_F(QueryServiceTest, MalformedMinutesIs400) {
  // Not a positive decimal integer: a bad request, not the default 1 h
  // window, on every endpoint.
  serve::QueryService svc(topo_, *store_, &services_);
  for (const char* bad : {"abc", "", "0", "-5", "12x", "+5", " 5"}) {
    const std::string m = std::string("minutes=") + bad;
    auto resp = get(svc, "/query/heatmap?" + m);
    EXPECT_EQ(resp.status, 400) << m;
    EXPECT_NE(resp.body.find("minutes out of range"), std::string::npos) << m;
    EXPECT_EQ(get(svc, "/query/sla?service=Search&" + m).status, 400) << m;
    EXPECT_EQ(get(svc, "/query/topk?metric=p99&" + m).status, 400) << m;
  }
  EXPECT_EQ(get(svc, "/query/heatmap?minutes=5").status, 200);
  EXPECT_EQ(get(svc, "/query/heatmap").status, 200);
}

TEST_F(QueryServiceTest, MalformedTopkIs400) {
  // Not a positive decimal integer: a bad request, not the default top 10.
  serve::QueryService svc(topo_, *store_, &services_);
  for (const char* bad : {"abc", "", "0", "-5", "12x", "+5", " 5"}) {
    const std::string k = std::string("k=") + bad;
    auto resp = get(svc, "/query/topk?metric=p99&minutes=60&" + k);
    EXPECT_EQ(resp.status, 400) << k;
    EXPECT_NE(resp.body.find("k out of range"), std::string::npos) << k;
  }
  EXPECT_EQ(get(svc, "/query/topk?metric=p99&minutes=60&k=3").status, 200);
  EXPECT_EQ(get(svc, "/query/topk?metric=p99&minutes=60").status, 200);
}

TEST_F(QueryServiceTest, EtagRevalidationAnd304Flow) {
  serve::QueryService svc(topo_, *store_, &services_);
  auto first = get(svc, "/query/heatmap?minutes=60");
  ASSERT_EQ(first.status, 200);
  std::string etag = first.headers.at("etag");

  // Unchanged store: revalidation is a 304 with no body.
  auto second = get(svc, "/query/heatmap?minutes=60", etag);
  EXPECT_EQ(second.status, 304);
  EXPECT_TRUE(second.body.empty());
  EXPECT_EQ(svc.not_modified(), 1u);

  // Version bump (new records) invalidates the validator: full 200 again,
  // with a fresh ETag.
  agent::RecordColumns more;
  agent::LatencyRecord r;
  r.timestamp = seconds(6);
  r.src_ip = topo_.server(ServerId{topo_.pod(PodId{0}).servers[0]}).ip;
  r.dst_ip = topo_.server(ServerId{topo_.pod(PodId{1}).servers[0]}).ip;
  r.success = true;
  r.rtt = 700'000;
  more.push_back(r);
  store_->on_records(more, seconds(7));

  auto third = get(svc, "/query/heatmap?minutes=60", etag);
  EXPECT_EQ(third.status, 200);
  EXPECT_NE(third.headers.at("etag"), etag);
}

TEST_F(QueryServiceTest, LruCacheHitsMissesAndEviction) {
  serve::QueryServiceConfig cfg;
  cfg.cache_capacity = 2;
  serve::QueryService svc(topo_, *store_, &services_, cfg);

  (void)get(svc, "/query/heatmap?minutes=10");
  (void)get(svc, "/query/heatmap?minutes=20");
  EXPECT_EQ(svc.cache_misses(), 2u);
  (void)get(svc, "/query/heatmap?minutes=10");  // hit
  EXPECT_EQ(svc.cache_hits(), 1u);

  // Third distinct path evicts the LRU entry (minutes=20).
  (void)get(svc, "/query/heatmap?minutes=30");
  EXPECT_EQ(svc.cache_size(), 2u);
  (void)get(svc, "/query/heatmap?minutes=20");  // miss again: was evicted
  EXPECT_EQ(svc.cache_misses(), 4u);

  // A store version bump makes every cached body stale: next request is a
  // miss even for a cached key (coherence is a version compare).
  agent::RecordColumns more;
  agent::LatencyRecord r;
  r.timestamp = seconds(8);
  r.src_ip = topo_.server(ServerId{topo_.pod(PodId{0}).servers[0]}).ip;
  r.dst_ip = topo_.server(ServerId{topo_.pod(PodId{1}).servers[0]}).ip;
  r.success = true;
  r.rtt = 700'000;
  more.push_back(r);
  store_->on_records(more, seconds(9));
  (void)get(svc, "/query/heatmap?minutes=30");
  EXPECT_EQ(svc.cache_misses(), 5u);
}

TEST_F(QueryServiceTest, UnknownEndpointIs404) {
  serve::QueryService svc(topo_, *store_, &services_);
  EXPECT_EQ(get(svc, "/query/nope").status, 404);
}

TEST_F(QueryServiceTest, HttpLoopbackServesGetHeadAndConditional) {
  net::Reactor reactor;
  serve::QueryService svc(reactor, net::SockAddr::loopback(0), topo_, *store_,
                          &services_);
  ASSERT_NE(svc.port(), 0);
  net::HttpClient client(reactor);
  net::SockAddr dst = net::SockAddr::loopback(svc.port());

  net::HttpResult got_get, got_head, got_cond;
  int done = 0;
  client.get(dst, "/query/heatmap?minutes=60", std::chrono::milliseconds(2000),
             [&](const net::HttpResult& r) { got_get = r; ++done; });
  client.head(dst, "/query/heatmap?minutes=60", std::chrono::milliseconds(2000),
              [&](const net::HttpResult& r) { got_head = r; ++done; });
  ASSERT_TRUE(reactor.run_until([&] { return done == 2; },
                                net::Reactor::Clock::now() + std::chrono::seconds(5)));
  ASSERT_TRUE(got_get.ok);
  EXPECT_EQ(got_get.response.status, 200);
  EXPECT_FALSE(got_get.response.body.empty());
  ASSERT_TRUE(got_head.ok);
  EXPECT_EQ(got_head.response.status, 200);
  EXPECT_TRUE(got_head.response.body.empty());  // HEAD: headers only
  EXPECT_EQ(got_head.response.headers.at("etag"), got_get.response.headers.at("etag"));

  net::HttpRequest cond{"GET",
                        "/query/heatmap?minutes=60",
                        {{"if-none-match", got_get.response.headers.at("etag")}},
                        ""};
  client.request(dst, std::move(cond), std::chrono::milliseconds(2000),
                 [&](const net::HttpResult& r) { got_cond = r; ++done; });
  ASSERT_TRUE(reactor.run_until([&] { return done == 3; },
                                net::Reactor::Clock::now() + std::chrono::seconds(5)));
  ASSERT_TRUE(got_cond.ok);
  EXPECT_EQ(got_cond.response.status, 304);
  EXPECT_TRUE(got_cond.response.body.empty());
}

// A writer thread applies batches while handle() runs, with no lock of the
// test's own around either: every 200 must carry the body a fresh render
// gives at its ETag's version. A replica replayed batch by batch passes
// through every version the served store can show between two batches.
TEST(ServeConcurrency, EveryBodyMatchesAFreshRenderAtItsEtagVersion) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  topo::ServiceMap services;
  services.add_service("Search", topo.pod(PodId{0}).servers);
  constexpr int kBatches = 300;
  std::vector<agent::RecordColumns> batches(kBatches);
  for (int k = 0; k < kBatches; ++k) {
    for (std::uint32_t i = 0; i < 12; ++i) {
      const topo::Pod& src = topo.pods()[i % 4];
      const topo::Pod& dst = topo.pods()[(i + static_cast<std::uint32_t>(k)) % 6];
      agent::LatencyRecord r;
      r.timestamp = seconds(10) * k + i * millis(800);
      r.src_ip = topo.server(src.servers[i % src.servers.size()]).ip;
      r.dst_ip = topo.server(dst.servers[0]).ip;
      r.success = (k + i) % 17 != 0;
      r.rtt = micros(200) + micros(37) * ((k * 7 + i * 3) % 50);
      batches[k].push_back(r);
    }
  }
  auto batch_now = [](int k) { return seconds(10) * (k + 1); };
  const std::vector<std::string> paths = {
      "/query/heatmap?minutes=1", "/query/heatmap?minutes=10",
      "/query/topk?k=3&metric=p99&minutes=2", "/query/topk?k=5&metric=failure&minutes=1",
      "/query/sla?service=Search&minutes=1", "/query/sla?service=Search&minutes=10"};

  RollupStore store(topo, &services, test_config());
  serve::QueryService svc(topo, store, &services);
  struct Answer {
    std::uint64_t version;
    std::size_t path;
    std::string body;
  };
  std::vector<Answer> answers;
  std::atomic<bool> reading{false};
  std::atomic<bool> written{false};
  std::thread writer([&] {
    while (!reading.load()) std::this_thread::yield();
    for (int k = 0; k < kBatches; ++k) {
      store.on_records(batches[k], batch_now(k));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    written.store(true);
  });
  reading.store(true);
  std::size_t malformed = 0;  // non-200s and ETags without a version
  for (std::size_t n = 0; !written.load(); ++n) {
    const std::size_t path = n % paths.size();
    net::HttpResponse resp = svc.handle({"GET", paths[path], {}, ""});
    auto etag = resp.headers.find("etag");
    if (resp.status != 200 || etag == resp.headers.end() ||
        etag->second.rfind("\"q-", 0) != 0) {
      ++malformed;
      continue;
    }
    answers.push_back(Answer{std::stoull(etag->second.substr(3)), path, std::move(resp.body)});
  }
  writer.join();
  EXPECT_EQ(malformed, 0u);

  RollupStore replica(topo, &services, test_config());
  std::map<std::pair<std::uint64_t, std::size_t>, std::string> fresh;
  auto render_all = [&] {
    serve::QueryService q(topo, replica, &services);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      fresh[{replica.version(), p}] = q.handle({"GET", paths[p], {}, ""}).body;
    }
  };
  render_all();
  for (int k = 0; k < kBatches; ++k) {
    replica.on_records(batches[k], batch_now(k));
    render_all();
  }
  EXPECT_EQ(replica.digest(), store.digest());

  std::set<std::uint64_t> versions;
  std::size_t mismatched = 0;
  for (const Answer& a : answers) {
    versions.insert(a.version);
    auto it = fresh.find({a.version, a.path});
    ASSERT_NE(it, fresh.end()) << "version " << a.version << " never reached by the replay";
    if (it->second != a.body) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0u) << "of " << answers.size() << " answers";
  // The reads really interleaved with the writes.
  EXPECT_GT(versions.size(), 10u);
}

// ---------------------------------------------------------------------------
// Crash consistency: WAL + checkpoint persistence and restart recovery
// ---------------------------------------------------------------------------

class PersistTest : public RollupTest {
 protected:
  void feed(serve::PersistentRollupStore& store,
            const std::vector<agent::LatencyRecord>& recs, SimTime now) {
    agent::RecordColumns batch;
    for (const auto& r : recs) batch.push_back(r);
    store.on_records(batch, now);
  }
  void feed(serve::ServeReplicaSet& rs, const std::vector<agent::LatencyRecord>& recs,
            SimTime now) {
    agent::RecordColumns batch;
    for (const auto& r : recs) batch.push_back(r);
    rs.on_records(batch, now);
  }

  dsa::CosmosStore cosmos_;
};

TEST_F(PersistTest, CorpusSegmentRestoresAndReencodesByteIdentically) {
  // The fuzz corpus's valid checkpoint payload, written under the fuzz
  // harness's RollupConfig (= test_config()). Restoring it and encoding it
  // back must reproduce it byte for byte: the cell layout (five counters,
  // then the sparse sketch) and the geometry echo in the header are a
  // persisted format, not an implementation detail.
  std::ifstream in(std::string(PINGMESH_CORPUS_DIR) + "/rollup_seg/valid_state.bin",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  RollupStore store(topo_, nullptr, test_config());
  ASSERT_TRUE(store.restore_state(bytes));
  EXPECT_EQ(store.placed(), 1u);
  EXPECT_EQ(store.cell_count(), 2u);
  EXPECT_TRUE(store.check_conservation());
  EXPECT_EQ(store.encode_state(), bytes);
}

TEST_F(PersistTest, WalReplayRebuildsDigestByteIdentically) {
  serve::PersistentRollupStore durable(topo_, nullptr, test_config(), cosmos_);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  for (int i = 0; i < 30; ++i) {
    feed(durable, {record(a, b, seconds(i), 400'000 + i * 1'000)}, seconds(i + 1));
  }
  durable.advance(seconds(45));  // durable seal record
  ASSERT_GT(durable.wal_frames(), 0u);
  ASSERT_TRUE(durable.store().check_conservation());

  RollupStore recovered(topo_, nullptr, test_config());
  serve::RollupRecoveryStats st = serve::recover_rollup_store(recovered, cosmos_);
  EXPECT_GT(st.wal_frames_replayed, 0u);
  EXPECT_EQ(st.wal_bytes_dropped, 0u);
  EXPECT_EQ(recovered.digest(), durable.store().digest());
  EXPECT_EQ(recovered.version(), durable.store().version());
  EXPECT_EQ(recovered.sealed_until(0), durable.store().sealed_until(0));
  EXPECT_TRUE(recovered.check_conservation());
}

TEST_F(PersistTest, CheckpointPlusWalTailRecoversAndResumesSequence) {
  std::uint64_t final_digest = 0;
  std::uint64_t final_seq = 0;
  {
    serve::PersistentRollupStore durable(topo_, nullptr, test_config(), cosmos_);
    ServerId a{0};
    ServerId b{topo_.pod(PodId{2}).servers[0]};
    // Cross the tier-1 seal (60 s + 1 s grace) so a checkpoint segment fires
    // mid-ingest, then keep writing so a WAL tail rides past it.
    for (int i = 0; i < 15; ++i) {
      feed(durable, {record(a, b, seconds(10) * i + seconds(1), 500'000)},
           seconds(10) * i + seconds(2));
    }
    EXPECT_GT(durable.segments_written(), 0u);
    EXPECT_GT(durable.store().sealed_until(1), 0);
    final_digest = durable.store().digest();
    final_seq = durable.next_seq();
  }  // process "crash": only Cosmos survives

  serve::PersistentRollupStore reborn(topo_, nullptr, test_config(), cosmos_);
  EXPECT_TRUE(reborn.recovery().from_checkpoint);
  EXPECT_GT(reborn.recovery().wal_frames_replayed, 0u);  // the post-checkpoint tail
  EXPECT_EQ(reborn.store().digest(), final_digest);
  EXPECT_EQ(reborn.next_seq(), final_seq);  // WAL sequence resumes, never reuses
  EXPECT_TRUE(reborn.store().check_conservation());

  // The reborn store keeps ingesting durably from where it left off.
  ServerId a{0};
  ServerId b{topo_.pod(PodId{2}).servers[0]};
  feed(reborn, {record(a, b, seconds(151), 700'000)}, seconds(152));
  EXPECT_NE(reborn.store().digest(), final_digest);
  EXPECT_TRUE(reborn.store().check_conservation());
}

TEST_F(PersistTest, TornWalTailDropsOnlyTheTail) {
  serve::PersistentRollupStore durable(topo_, nullptr, test_config(), cosmos_);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  feed(durable, {record(a, b, seconds(1), 500'000), record(a, b, seconds(2), 600'000)},
       seconds(3));
  const std::uint64_t clean_digest = durable.store().digest();

  // A crash mid-append leaves a truncated frame at the end of the extent.
  std::string torn =
      serve::encode_wal_frame(durable.next_seq() + 1, seconds(9), "half-written");
  torn.resize(torn.size() / 2);
  const std::uint64_t seq = durable.next_seq() + 1;
  cosmos_.stream(serve::kRollupWalStream)
      .append(torn, 1, static_cast<SimTime>(seq), static_cast<SimTime>(seq), seconds(9),
              dsa::ExtentEncoding::kColumnar);

  RollupStore recovered(topo_, nullptr, test_config());
  serve::RollupRecoveryStats st = serve::recover_rollup_store(recovered, cosmos_);
  EXPECT_GT(st.wal_bytes_dropped, 0u);  // the torn tail is counted, not trusted
  EXPECT_EQ(recovered.digest(), clean_digest);  // ...and the clean prefix survives
  EXPECT_TRUE(recovered.check_conservation());
}

TEST_F(PersistTest, CorruptNewestSegmentFallsBackToOlderCheckpoint) {
  // A tiny extent limit seals every frame into its own extent, so corruption
  // and retention act per checkpoint — the at-scale geometry.
  dsa::CosmosStore small(64);
  serve::PersistentRollupStore durable(topo_, nullptr, test_config(), small);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  feed(durable, {record(a, b, seconds(1), 500'000)}, seconds(2));
  durable.checkpoint();
  feed(durable, {record(a, b, seconds(11), 600'000)}, seconds(12));
  durable.checkpoint();
  EXPECT_EQ(durable.segments_written(), 2u);

  ASSERT_TRUE(small.stream(serve::kRollupSegmentStream).corrupt_newest_extent());

  RollupStore recovered(topo_, nullptr, test_config());
  serve::RollupRecoveryStats st = serve::recover_rollup_store(recovered, small);
  EXPECT_GE(st.segments_quarantined, 1u);
  EXPECT_TRUE(st.from_checkpoint);  // the older checkpoint restored
  // The WAL retained frames back to the OLDEST live checkpoint, so rolling
  // forward from the fallback still converges on the pre-crash state.
  EXPECT_GT(st.wal_frames_replayed, 0u);
  EXPECT_EQ(recovered.digest(), durable.store().digest());
  EXPECT_TRUE(recovered.check_conservation());
}

TEST_F(PersistTest, GarbageSegmentStreamIsQuarantinedNotFatal) {
  cosmos_.stream(serve::kRollupSegmentStream)
      .append("PMRSEG1\nnot a real checkpoint", 1, 1, 1, seconds(1),
              dsa::ExtentEncoding::kColumnar);
  RollupStore recovered(topo_, nullptr, test_config());
  serve::RollupRecoveryStats st = serve::recover_rollup_store(recovered, cosmos_);
  EXPECT_FALSE(st.from_checkpoint);
  EXPECT_GE(st.segments_quarantined, 1u);
  EXPECT_EQ(recovered.ingested(), 0u);  // empty store, not a crash
  EXPECT_TRUE(recovered.check_conservation());
}

// ---------------------------------------------------------------------------
// ServeReplicaSet: replica-consistent ETags and restart recovery
// ---------------------------------------------------------------------------

TEST_F(PersistTest, EtagFromOneReplicaRevalidatesOnAnother) {
  serve::ServeReplicaSet rs(topo_, nullptr, test_config(), cosmos_);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  feed(rs, {record(a, b, seconds(1), 500'000), record(a, b, seconds(2), 700'000)},
       seconds(3));

  net::HttpRequest req{"GET", "/query/heatmap?minutes=60", {}, ""};
  serve::ReplicaQueryResult first = rs.query(req);
  ASSERT_EQ(first.response.status, 200);
  const std::string etag = first.response.headers.at("etag");

  // Kill the replica that answered: the conditional retry lands on the OTHER
  // replica, which must honor the first one's validator with a 304.
  rs.kill(first.replica);
  net::HttpRequest cond{
      "GET", "/query/heatmap?minutes=60", {{"if-none-match", etag}}, ""};
  serve::ReplicaQueryResult second = rs.query(cond);
  EXPECT_EQ(second.response.status, 304);
  EXPECT_TRUE(second.response.body.empty());
  EXPECT_NE(second.replica, first.replica);
  EXPECT_GE(second.dead_picks, 1u);  // the VIP routed around the corpse
}

TEST_F(PersistTest, KilledReplicaRecoversDigestIdenticalAndMissesNothing) {
  serve::ServeReplicaSet rs(topo_, nullptr, test_config(), cosmos_);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{2}).servers[1]};
  feed(rs, {record(a, b, seconds(1), 500'000)}, seconds(2));

  rs.kill(0);
  EXPECT_FALSE(rs.alive(0));
  EXPECT_EQ(rs.alive_count(), rs.replica_count() - 1);

  // Batches that arrive while replica 0 is dead reach it anyway via the WAL.
  feed(rs, {record(a, b, seconds(11), 600'000), record(a, b, seconds(12), 650'000)},
       seconds(13));
  rs.advance(seconds(30));

  rs.restart(0);
  ASSERT_TRUE(rs.alive(0));
  EXPECT_GT(rs.last_recovery(0).wal_frames_replayed, 0u);
  for (std::size_t i = 0; i < rs.replica_count(); ++i) {
    ASSERT_NE(rs.replica_store(i), nullptr);
    EXPECT_EQ(rs.replica_store(i)->digest(), rs.writer().store().digest()) << i;
    EXPECT_TRUE(rs.replica_store(i)->check_conservation()) << i;
  }
}

TEST_F(PersistTest, AllReplicasDeadIs503ThenRecoveryServesAgain) {
  serve::ServeReplicaSet rs(topo_, nullptr, test_config(), cosmos_);
  ServerId a{0};
  ServerId b{topo_.pod(PodId{1}).servers[0]};
  feed(rs, {record(a, b, seconds(1), 500'000)}, seconds(2));

  for (std::size_t i = 0; i < rs.replica_count(); ++i) rs.kill(i);
  net::HttpRequest req{"GET", "/query/heatmap?minutes=60", {}, ""};
  serve::ReplicaQueryResult down = rs.query(req);
  EXPECT_EQ(down.response.status, 503);  // degraded, not wedged

  rs.restart(1);
  serve::ReplicaQueryResult up = rs.query(req);
  EXPECT_EQ(up.response.status, 200);  // the VIP probed its way back
  EXPECT_EQ(up.replica, 1u);
  EXPECT_EQ(rs.replica_store(1)->digest(), rs.writer().store().digest());
}

TEST_F(PersistTest, ColdStartOfWholeSetResumesFromCosmos) {
  std::uint64_t digest = 0;
  {
    serve::ServeReplicaSet rs(topo_, nullptr, test_config(), cosmos_);
    ServerId a{0};
    ServerId b{topo_.pod(PodId{1}).servers[0]};
    for (int i = 0; i < 8; ++i) {
      feed(rs, {record(a, b, seconds(10) * i + seconds(1), 500'000)},
           seconds(10) * i + seconds(2));
    }
    digest = rs.writer().store().digest();
    ASSERT_NE(digest, RollupStore(topo_, nullptr, test_config()).digest());
  }  // whole serving tier restarts

  serve::ServeReplicaSet reborn(topo_, nullptr, test_config(), cosmos_);
  EXPECT_EQ(reborn.writer().store().digest(), digest);
  for (std::size_t i = 0; i < reborn.replica_count(); ++i) {
    EXPECT_EQ(reborn.replica_store(i)->digest(), digest) << i;
  }
  net::HttpRequest req{"GET", "/query/heatmap?minutes=60", {}, ""};
  EXPECT_EQ(reborn.query(req).response.status, 200);
}

}  // namespace
}  // namespace pingmesh
