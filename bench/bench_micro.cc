// Library micro-benchmarks (google-benchmark): the per-operation costs that
// make or break a production deployment — the agent's record/counter path,
// the controller's pinglist generation, the simulator's probe cost (which
// bounds experiment scale), and the DSA query verbs.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "agent/record.h"
#include "analysis/blackhole.h"
#include "analysis/heatmap.h"
#include "common/rng.h"
#include "common/sketch.h"
#include "common/xml.h"
#include "controller/generator.h"
#include "core/fleet.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/database.h"
#include "netsim/simnet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/topology.h"

namespace {

using namespace pingmesh;

const topo::Topology& medium_topo() {
  static topo::Topology topo =
      topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
  return topo;
}

controller::GeneratorConfig gen_cfg() {
  controller::GeneratorConfig cfg;
  cfg.enable_inter_dc = false;
  return cfg;
}

void BM_TopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto topo = topo::Topology::build({topo::medium_dc_spec("DC1", "US West")});
    benchmark::DoNotOptimize(topo.server_count());
  }
}
BENCHMARK(BM_TopologyBuild)->Unit(benchmark::kMillisecond);

void BM_PinglistGenerateOne(benchmark::State& state) {
  controller::PinglistGenerator gen(medium_topo(), gen_cfg());
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto pl = gen.generate_for(ServerId{i++ % 800});
    benchmark::DoNotOptimize(pl.targets.size());
  }
}
BENCHMARK(BM_PinglistGenerateOne);

void BM_PinglistXmlRoundTrip(benchmark::State& state) {
  controller::PinglistGenerator gen(medium_topo(), gen_cfg());
  controller::Pinglist pl = gen.generate_for(ServerId{0});
  for (auto _ : state) {
    std::string xml_doc = pl.to_xml();
    auto parsed = controller::Pinglist::from_xml(xml_doc);
    benchmark::DoNotOptimize(parsed.targets.size());
  }
}
BENCHMARK(BM_PinglistXmlRoundTrip);

void BM_EcmpResolve(benchmark::State& state) {
  const topo::Topology& topo = medium_topo();
  netsim::EcmpRouter router(topo);
  ServerId a = topo.pods()[0].servers[0];
  ServerId b = topo.pod(topo.podsets()[2].pods[0]).servers[0];
  std::uint16_t port = 32768;
  for (auto _ : state) {
    FiveTuple t{topo.server(a).ip, topo.server(b).ip, port++, 33100, 6};
    benchmark::DoNotOptimize(router.resolve(t).hops.size());
  }
}
BENCHMARK(BM_EcmpResolve);

void BM_SimTcpProbe(benchmark::State& state) {
  const topo::Topology& topo = medium_topo();
  netsim::SimNetwork net(topo, 1);
  ServerId a = topo.pods()[0].servers[0];
  ServerId b = topo.pod(topo.podsets()[2].pods[0]).servers[0];
  std::uint16_t port = 32768;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.tcp_probe(a, b, port++, 33100, {}, 0).rtt);
  }
}
BENCHMARK(BM_SimTcpProbe);

void BM_SketchRecord(benchmark::State& state) {
  LatencySketch sk;
  Rng rng(7);
  std::int64_t v = 250'000;
  for (auto _ : state) {
    sk.record(v);
    v = static_cast<std::int64_t>(rng.uniform(10'000, 10'000'000));
  }
  benchmark::DoNotOptimize(sk.count());
}
BENCHMARK(BM_SketchRecord);

void BM_SketchMerge(benchmark::State& state) {
  LatencySketch a;
  LatencySketch b;
  Rng rng(9);
  for (int i = 0; i < 100'000; ++i) {
    b.record(static_cast<std::int64_t>(rng.uniform(10'000, 10'000'000)));
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_SketchMerge);

void BM_SketchQuantile(benchmark::State& state) {
  LatencySketch sk;
  Rng rng(10);
  for (int i = 0; i < 1'000'000; ++i) {
    sk.record(static_cast<std::int64_t>(rng.lognormal(12.5, 1.0)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(sk.p99());
}
BENCHMARK(BM_SketchQuantile);

void BM_RecordCsvEncode(benchmark::State& state) {
  agent::LatencyRecord rec;
  rec.src_ip = IpAddr(10, 0, 0, 1);
  rec.dst_ip = IpAddr(10, 0, 1, 2);
  rec.rtt = 268'000;
  rec.success = true;
  std::vector<agent::LatencyRecord> batch(100, rec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent::encode_batch(batch).size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RecordCsvEncode);

void BM_RecordCsvDecode(benchmark::State& state) {
  agent::LatencyRecord rec;
  rec.rtt = 268'000;
  rec.success = true;
  std::vector<agent::LatencyRecord> batch(100, rec);
  std::string encoded = agent::encode_batch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent::decode_batch(encoded).size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RecordCsvDecode);

void BM_PerfCountersRecord(benchmark::State& state) {
  agent::PerfCounters counters(0);
  for (auto _ : state) counters.record_probe(true, 268'000);
  benchmark::DoNotOptimize(counters.peek(1).probes);
}
BENCHMARK(BM_PerfCountersRecord);

void BM_ScopeAggregateByPod(benchmark::State& state) {
  const topo::Topology& topo = medium_topo();
  agent::RecordColumns rows;
  Rng rng(9);
  for (int i = 0; i < 50'000; ++i) {
    agent::LatencyRecord r;
    r.src_ip = topo.servers()[rng.uniform_u32(800)].ip;
    r.dst_ip = topo.servers()[rng.uniform_u32(800)].ip;
    r.success = true;
    r.rtt = static_cast<std::int64_t>(rng.lognormal(12.5, 0.6));
    rows.push_back(r);
  }
  for (auto _ : state) {
    // The SCOPE jobs' GROUP BY: one pass into a per-key ProbeStats.
    std::map<std::uint32_t, agent::ProbeStats> groups;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      groups[topo.server(topo.server_by_ip(rows.src_ip(i))).pod.value].add(rows.success(i),
                                                                           rows.rtt(i));
    }
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_ScopeAggregateByPod)->Unit(benchmark::kMillisecond);

void BM_BlackholeDetect(benchmark::State& state) {
  const topo::Topology& topo = medium_topo();
  netsim::SimNetwork net(topo, 2);
  net.faults().add_blackhole(topo.pods()[3].tor, netsim::BlackholeMode::kSrcDstPair, 0.05);
  controller::PinglistGenerator gen(topo, gen_cfg());
  core::FleetProbeDriver driver(topo, net, gen);
  agent::RecordColumns records;
  driver.run_dense(0, 4, seconds(10), [&](const core::FleetProbe& p) {
    agent::LatencyRecord r;
    r.src_ip = topo.server(p.src).ip;
    r.dst_ip = p.target->ip;
    r.success = p.outcome.success;
    r.rtt = p.outcome.rtt;
    records.push_back(r);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::detect_blackholes(records, topo).candidates.size());
  }
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_BlackholeDetect)->Unit(benchmark::kMillisecond);

void BM_HeatmapLoadAndClassify(benchmark::State& state) {
  const topo::Topology& topo = medium_topo();
  std::vector<dsa::PodPairStatRow> rows;
  for (const topo::Pod& a : topo.pods()) {
    for (const topo::Pod& b : topo.pods()) {
      dsa::PodPairStatRow r;
      r.src_pod = a.id;
      r.dst_pod = b.id;
      r.probes = r.successes = 100;
      r.p99_ns = millis(1);
      rows.push_back(r);
    }
  }
  analysis::Heatmap map(topo, DcId{0});
  for (auto _ : state) {
    map.load(rows);
    benchmark::DoNotOptimize(analysis::classify_pattern(map).pattern);
  }
}
BENCHMARK(BM_HeatmapLoadAndClassify)->Unit(benchmark::kMillisecond);

// --- observability layer costs (DESIGN.md §10: <5% tick overhead budget) ----

void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("agent.probes_total", "result=ok");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterLookupAndInc(benchmark::State& state) {
  // The get-or-create path (map lookup under the registry mutex) — what a
  // component pays if it does NOT cache the instrument pointer.
  obs::MetricsRegistry reg;
  for (auto _ : state) {
    reg.counter("agent.probes_total", "result=ok").inc();
  }
  benchmark::DoNotOptimize(reg.instrument_count());
}
BENCHMARK(BM_ObsCounterLookupAndInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("agent.buffer_occupancy");
  Rng rng(11);
  std::int64_t v = 250'000;
  for (auto _ : state) {
    h.observe(v);
    v = static_cast<std::int64_t>(rng.uniform(10'000, 10'000'000));
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsExpose(benchmark::State& state) {
  // A fleet-sized registry: ~60 families, like a full simulation run wires.
  obs::MetricsRegistry reg;
  for (int i = 0; i < 50; ++i) {
    reg.counter("agent.family_" + std::to_string(i) + "_total").inc(i);
  }
  for (int i = 0; i < 6; ++i) {
    obs::Histogram& h = reg.histogram("dsa.hist_" + std::to_string(i));
    for (int j = 0; j < 1000; ++j) h.observe(250'000 + j);
  }
  reg.gauge_fn("cosmos.extents", "", [] { return 42.0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.expose().size());
  }
}
BENCHMARK(BM_ObsExpose);

void BM_TraceKeySampledOut(benchmark::State& state) {
  // The common case on the data path: compute the record key, fail the
  // 1-in-64 sampling check, emit nothing.
  obs::TraceSink sink(64);
  obs::Tracer tracer(obs::TraceConfig{true, 64, 64}, sink);
  SimTime ts = 0;
  std::uint64_t sampled = 0;
  for (auto _ : state) {
    std::uint64_t key = obs::trace_key(ts++, 0x0a000001, 0x0a000002, 32768);
    if (tracer.sampled(key)) ++sampled;
  }
  benchmark::DoNotOptimize(sampled);
}
BENCHMARK(BM_TraceKeySampledOut);

void BM_TraceSpanEmit(benchmark::State& state) {
  obs::TraceSink sink(8192);
  obs::Tracer tracer(obs::TraceConfig{true, 1, 8192}, sink);
  SimTime ts = 0;
  for (auto _ : state) {
    tracer.span(1, "agent.probe", ts, ts + 250'000, "success=1;rtt=250000");
    ++ts;
  }
  benchmark::DoNotOptimize(sink.spans_recorded());
}
BENCHMARK(BM_TraceSpanEmit);

/// Five simulated minutes of the small closed loop, observability off vs on
/// — the end-to-end overhead check behind the <5% budget.
void BM_FleetTickObsOff(benchmark::State& state) {
  for (auto _ : state) {
    core::SimulationConfig cfg = core::streaming_test_config(42);
    core::PingmeshSimulation sim(cfg);
    sim.run_for(minutes(5));
    benchmark::DoNotOptimize(sim.total_probes());
  }
}
BENCHMARK(BM_FleetTickObsOff)->Unit(benchmark::kMillisecond);

void BM_FleetTickObsOn(benchmark::State& state) {
  for (auto _ : state) {
    core::SimulationConfig cfg = core::observability_test_config(42);
    core::PingmeshSimulation sim(cfg);
    sim.run_for(minutes(5));
    benchmark::DoNotOptimize(sim.total_probes());
  }
}
BENCHMARK(BM_FleetTickObsOn)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): `--json PATH` is CI shorthand for
// google-benchmark's --benchmark_out=PATH --benchmark_out_format=json.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (std::string& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
