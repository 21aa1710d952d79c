// Tests for the observability layer (DESIGN.md §10): the MetricsRegistry
// units, the trace ring, and — through the full simulation — the golden
// exposition, the end-to-end data-path trace, and the SLB recovery loop
// observed via metrics.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agent/record.h"
#include "agent/record_columns.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "serve/rollup.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "common/sketch.h"

namespace pingmesh {
namespace {

using obs::MetricsRegistry;
using obs::TraceSink;
using obs::TraceSpan;
using obs::Tracer;

// --- MetricsRegistry units ---------------------------------------------------

TEST(Metrics, RegistrationIsIdempotentAndKeyedByLabels) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("demo.requests_total", "result=ok");
  obs::Counter& b = reg.counter("demo.requests_total", "result=ok");
  obs::Counter& c = reg.counter("demo.requests_total", "result=fail");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> one shared instrument
  EXPECT_NE(&a, &c);
  a.inc(2);
  b.inc();
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(c.value(), 0u);
  // One counter registered twice + one distinct label set.
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(Metrics, NameAndLabelValidationFailClosed) {
  MetricsRegistry reg;
  // Metric names need at least two [a-z0-9_] segments joined by '.'.
  EXPECT_DEATH(reg.counter("nodots"), "two segments");
  EXPECT_DEATH(reg.counter("Upper.case"), "a-z0-9_");
  EXPECT_DEATH(reg.counter("trailing."), "");
  // Label keys are [a-z0-9_]; values are free-form (job names, states).
  EXPECT_DEATH(reg.counter("demo.x", "noequals"), "k=v");
  EXPECT_DEATH(reg.counter("demo.x", "Key=v"), "label keys");
  reg.counter("demo.x", "job=pod-pair-10min");  // dash in VALUE is legal
}

TEST(Metrics, ExposeRendersSortedPrometheusText) {
  MetricsRegistry reg;
  reg.counter("demo.requests_total", "result=ok").inc(3);
  reg.counter("demo.requests_total", "result=fail").inc();
  reg.gauge("demo.temperature").set(21.5);
  reg.gauge_fn("demo.live_items", "", [] { return 7.0; });
  obs::Histogram& h = reg.histogram("demo.latency_ns");
  // Mirror the observations into a reference sketch so the expected
  // quantiles come from the same geometry, not hand-picked constants.
  LatencySketch ref(MetricsRegistry::default_histogram_config());
  for (std::int64_t v : {250'000, 310'000, 4'000'000}) {
    h.observe(v);
    ref.record(v);
  }

  std::string expected;
  expected += "# TYPE demo.latency_ns summary\n";
  expected += "demo.latency_ns{quantile=0.5} " + std::to_string(ref.p50()) + "\n";
  expected += "demo.latency_ns{quantile=0.99} " + std::to_string(ref.p99()) + "\n";
  expected += "demo.latency_ns_count 3\n";
  expected += "# TYPE demo.live_items gauge\n";
  expected += "demo.live_items 7\n";
  expected += "# TYPE demo.requests_total counter\n";
  expected += "demo.requests_total{result=fail} 1\n";
  expected += "demo.requests_total{result=ok} 3\n";
  expected += "# TYPE demo.temperature gauge\n";
  expected += "demo.temperature 21.5\n";
  EXPECT_EQ(reg.expose(), expected);

  // Prefix filtering keeps only matching families (golden tests use this to
  // pin the deterministic subset).
  std::string filtered = reg.expose({"demo.requests"});
  EXPECT_NE(filtered.find("demo.requests_total{result=ok} 3"), std::string::npos);
  EXPECT_EQ(filtered.find("demo.temperature"), std::string::npos);
  EXPECT_EQ(filtered.find("demo.latency_ns"), std::string::npos);
}

// --- Serving-tier instruments ------------------------------------------------

// Regression: QueryService::enable_observability must register the full
// serve.* family — per-endpoint request counters and latency histograms,
// cache hit/miss, response status classes, and the callback gauges for
// cache size and rollup version — and they must move with traffic.
TEST(Metrics, ServeInstrumentsCoverRequestsCacheAndVersion) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  serve::RollupStore store(topo, nullptr, serve::RollupConfig{});
  agent::RecordColumns batch;
  agent::LatencyRecord r;
  r.timestamp = seconds(1);
  r.src_ip = topo.server(ServerId{0}).ip;
  r.dst_ip = topo.server(topo.pod(PodId{1}).servers[0]).ip;
  r.success = true;
  r.rtt = 500'000;
  batch.push_back(r);
  store.on_records(batch, seconds(2));

  MetricsRegistry reg;
  serve::QueryService svc(topo, store, nullptr);
  svc.enable_observability(reg);

  (void)svc.handle({"GET", "/query/heatmap?minutes=60", {}, ""});  // miss
  (void)svc.handle({"GET", "/query/heatmap?minutes=60", {}, ""});  // hit
  (void)svc.handle({"GET", "/query/topk?k=3&metric=bogus", {}, ""});  // 400

  std::string text = reg.expose({"serve."});
  EXPECT_NE(text.find("serve.requests_total{endpoint=heatmap} 2"), std::string::npos);
  EXPECT_NE(text.find("serve.requests_total{endpoint=topk} 1"), std::string::npos);
  EXPECT_NE(text.find("serve.cache_total{result=miss} 1"), std::string::npos);
  EXPECT_NE(text.find("serve.cache_total{result=hit} 1"), std::string::npos);
  EXPECT_NE(text.find("serve.responses_total{status=200} 2"), std::string::npos);
  EXPECT_NE(text.find("serve.responses_total{status=400} 1"), std::string::npos);
  EXPECT_NE(text.find("serve.request_latency_ns{endpoint=heatmap,"), std::string::npos);
  EXPECT_NE(text.find("serve.cache_entries 1"), std::string::npos);
  EXPECT_NE(text.find("serve.rollup_version"), std::string::npos);
}

// --- TraceSink / Tracer units ------------------------------------------------

TEST(Trace, KeyIsDeterministicPerRecordAndNeverZero) {
  std::uint64_t k1 = obs::trace_key(1'000'000, 0x0a000001, 0x0a000002, 4242);
  std::uint64_t k2 = obs::trace_key(1'000'000, 0x0a000001, 0x0a000002, 4242);
  std::uint64_t k3 = obs::trace_key(1'000'000, 0x0a000001, 0x0a000002, 4243);
  EXPECT_EQ(k1, k2);  // pure function of the record identity
  EXPECT_NE(k1, k3);
  EXPECT_NE(k1, 0u);  // 0 is reserved for infra spans
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceSink sink(/*capacity=*/3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    sink.record(TraceSpan{i, "stage" + std::to_string(i), SimTime(i), SimTime(i), ""});
  }
  EXPECT_EQ(sink.spans_recorded(), 5u);
  EXPECT_EQ(sink.spans_dropped(), 2u);
  std::vector<TraceSpan> kept = sink.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].trace, 3u);  // oldest retained first
  EXPECT_EQ(kept[1].trace, 4u);
  EXPECT_EQ(kept[2].trace, 5u);
}

TEST(Trace, SpansForAndTraceIdsOrderByJourneyLength) {
  TraceSink sink(16);
  Tracer tracer(obs::TraceConfig{true, 1, 16}, sink);
  tracer.span(7, "agent.probe", 0, 10);
  tracer.span(9, "agent.probe", 1, 11);
  tracer.span(7, "agent.upload", 20, 20);
  tracer.span(0, "dsa.job", 0, 600);  // infra span: excluded from trace_ids
  std::vector<TraceSpan> seven = sink.spans_for(7);
  ASSERT_EQ(seven.size(), 2u);
  EXPECT_EQ(seven[0].stage, "agent.probe");
  EXPECT_EQ(seven[1].stage, "agent.upload");
  std::vector<std::uint64_t> ids = sink.trace_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 7u);  // two spans beats one
  EXPECT_EQ(ids[1], 9u);
}

TEST(Trace, SamplingIsAPureFunctionOfTheKey) {
  TraceSink sink(4);
  Tracer every(obs::TraceConfig{true, 1, 4}, sink);
  Tracer fourth(obs::TraceConfig{true, 4, 4}, sink);
  Tracer off(obs::TraceConfig{false, 1, 4}, sink);
  EXPECT_TRUE(every.sampled(3));
  EXPECT_TRUE(fourth.sampled(8));
  EXPECT_FALSE(fourth.sampled(9));
  EXPECT_FALSE(off.sampled(8));
  off.span(8, "agent.probe", 0, 0);  // disabled tracer records nothing
  EXPECT_EQ(sink.spans_recorded(), 0u);
}

// --- Full-simulation coverage ------------------------------------------------

/// Deterministic metric families: everything except threadpool.* (busy-ns
/// and worker counts legitimately vary with the worker count).
std::vector<std::string> deterministic_prefixes() {
  return {"agent.", "controller.", "cosmos.", "dsa.", "slb.", "streaming."};
}

/// Value of the unlabelled sample `name` in the exposition (0 when absent).
double sample_value(const MetricsRegistry& reg, const std::string& name) {
  std::istringstream in(reg.expose({name}));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  return 0;
}

TEST(ObsSim, ExpositionCoversEverySubsystemAndIsWorkerCountInvariant) {
  core::SimulationConfig cfg = core::observability_test_config(/*seed=*/42);
  core::PingmeshSimulation serial(cfg);
  serial.run_for(minutes(30));

  core::SimulationConfig cfg4 = core::observability_test_config(/*seed=*/42);
  cfg4.worker_threads = 4;
  core::PingmeshSimulation sharded(cfg4);
  sharded.run_for(minutes(30));

  ASSERT_NE(serial.observability(), nullptr);
  std::string text = serial.observability()->metrics().expose(deterministic_prefixes());

  // One family per subsystem proves the wiring end to end.
  for (const char* needle : {
           "# TYPE agent.probes_total counter",
           "agent.probes_total{result=ok} ",
           "agent.uploads_total{result=ok} ",
           "agent.upload_batch_records{quantile=0.5} ",
           "controller.fetches_total{status=ok} ",
           "slb.picks_total ",
           "slb.healthy_backends 3",
           "cosmos.extents ",
           "dsa.uploads_total{result=ok} ",
           "dsa.job_runs_total{job=pod-pair-10min} ",
           "streaming.records_ingested_total ",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle << "\n"
                                                    << text;
  }

  // The probe pipeline is bit-reproducible, so the deterministic families
  // must render byte-identically at any worker count.
  EXPECT_EQ(text, sharded.observability()->metrics().expose(deterministic_prefixes()));

  // The thread-pool family exists too (values are run-dependent).
  std::string pool = sharded.observability()->metrics().expose({"threadpool."});
  EXPECT_NE(pool.find("threadpool.workers 4"), std::string::npos) << pool;
  EXPECT_NE(pool.find("threadpool.parallel_for_total "), std::string::npos);

  // The serial run ticks through a pool of 1 on the same path, so it counts
  // the same parallel_for calls and items, and its busy time is real.
  const MetricsRegistry& one = serial.observability()->metrics();
  const MetricsRegistry& four = sharded.observability()->metrics();
  for (const char* name : {"threadpool.parallel_for_total", "threadpool.items_total"}) {
    EXPECT_GT(sample_value(one, name), 0) << name;
    EXPECT_EQ(sample_value(one, name), sample_value(four, name)) << name;
  }
  EXPECT_GT(sample_value(one, "threadpool.busy_ns_total"), 0);
}

TEST(ObsSim, TraceFollowsASampledRecordFromProbeToScan) {
  core::SimulationConfig cfg =
      core::observability_test_config(/*seed=*/42, /*sample_every=*/16);
  cfg.observability.trace.ring_capacity = 1u << 18;  // keep whole journeys
  core::PingmeshSimulation sim(cfg);
  // Long enough for the 10-min SCOPE window [0, 10min) to become available
  // (ingestion delay 2 min) and be scanned.
  sim.run_for(minutes(25));

  ASSERT_NE(sim.observability(), nullptr);
  const obs::TraceSink& sink = sim.observability()->sink();
  EXPECT_EQ(sink.spans_dropped(), 0u);

  const std::set<std::string> want = {"agent.probe",   "agent.buffer",
                                      "agent.upload",  "cosmos.append",
                                      "scope.scan",    "streaming.ingest"};
  bool found = false;
  for (std::uint64_t id : sink.trace_ids()) {
    std::vector<TraceSpan> spans = sink.spans_for(id);
    std::set<std::string> stages;
    for (const TraceSpan& s : spans) stages.insert(s.stage);
    if (!std::includes(stages.begin(), stages.end(), want.begin(), want.end())) {
      continue;
    }
    found = true;
    // Emission order is the journey order: the probe comes first, and no
    // later stage starts before the probe was launched.
    EXPECT_EQ(spans.front().stage, "agent.probe");
    for (const TraceSpan& s : spans) EXPECT_GE(s.start, spans.front().start);
    // The append span names the extent the batch landed in.
    for (const TraceSpan& s : spans) {
      if (s.stage == "cosmos.append") {
        EXPECT_NE(s.note.find("extent="), std::string::npos) << s.note;
      }
      if (s.stage == "scope.scan") {
        EXPECT_NE(s.note.find("cache="), std::string::npos) << s.note;
      }
    }
    break;
  }
  EXPECT_TRUE(found) << "no sampled record completed the full journey";

  // SCOPE job runs appear as infra spans under trace id 0.
  std::vector<TraceSpan> infra = sink.spans_for(0);
  bool job_span = false;
  for (const TraceSpan& s : infra) job_span |= s.stage == "dsa.job";
  EXPECT_TRUE(job_span);
}

TEST(ObsSim, SlbRemovesAndReadmitsAKilledControllerReplica) {
  core::SimulationConfig cfg = core::observability_test_config(/*seed=*/7);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(6));
  const controller::SlbVip& vip = sim.controller_vip();
  EXPECT_EQ(vip.health_flips_down(), 0u);
  EXPECT_GT(vip.total_picks(), 0u);

  // Kill one replica: fetches hashed to it fail, the VIP takes it out of
  // rotation, and half-open trials keep re-probing it.
  sim.set_controller_replica_up(0, false);
  sim.run_for(minutes(30));
  EXPECT_GE(vip.health_flips_down(), 1u);
  EXPECT_GE(vip.half_open_trials(), 1u);
  std::uint64_t flips_up_before = vip.health_flips_up();

  // Revive it: the next trial succeeds and the replica rejoins.
  sim.set_controller_replica_up(0, true);
  sim.run_for(minutes(30));
  EXPECT_GE(vip.health_flips_up(), flips_up_before + 1);

  std::string text = sim.observability()->metrics().expose({"slb."});
  EXPECT_NE(text.find("slb.healthy_backends 3"), std::string::npos) << text;
  EXPECT_NE(text.find("slb.health_flips_total{to=down} "), std::string::npos);
  EXPECT_NE(text.find("slb.health_flips_total{to=up} "), std::string::npos);

  // The whole episode was invisible to the fleet: agents kept fetching
  // pinglists through the surviving replicas.
  std::string agents = sim.observability()->metrics().expose({"agent."});
  EXPECT_NE(agents.find("agent.pinglist_fetches_total{result=ok} "),
            std::string::npos);
}

}  // namespace
}  // namespace pingmesh
