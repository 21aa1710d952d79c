// The two closed-loop workloads: the real PingmeshSimulation, stepped one
// agent tick at a time.
//
//   probe_path  two large DCs, streaming off, SCOPE jobs pushed past the
//               run's end: netsim, the agents and the tick driver do the work.
//   loop_full   the medium two-DC default config with everything on:
//               streaming, services with per-server SLA rows, a ToR
//               black-hole and a spine silent drop, and the healing loop,
//               run past the first hourly SLA job.
//
// Untraced runs report end-to-end numbers. A traced run first repeats the
// untraced pass, then the same span traced, with spans and record
// capture, checks that both produced the same digest, and finally replays
// each layer's public entry points on the captured inputs for per-call cost.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/jobs.h"
#include "dsa/pa.h"
#include "dsa/scan_cache.h"
#include "dsa/uploader.h"
#include "heal/loop.h"
#include "streaming/pipeline.h"
#include "workloads.h"

namespace pmbench {
namespace {

using namespace pingmesh;  // NOLINT

struct LoopSpec {
  std::string name;
  core::SimulationConfig config;
  /// A pass simulates a fixed span, so every run of a seed does the same
  /// work and traced and untraced runs digest the same state: at least
  /// `min_span`, plus `span_per_second` of simulated time per --seconds.
  SimTime min_span = 0;
  SimTime span_per_second = 0;
  /// loop_full: services, faults, the healing loop, and checks on job rows.
  bool full = false;
  int services = 0;
};

LoopSpec probe_path_spec(std::uint64_t seed, bool smoke) {
  LoopSpec s;
  s.name = "probe_path";
  core::SimulationConfig& c = s.config;
  c.seed = seed;
  if (smoke) {
    c.dcs = core::two_dc_specs(/*medium=*/false);
  } else {
    c.dcs = {topo::large_dc_spec("DC1", "US West"), topo::large_dc_spec("DC2", "US Central")};
  }
  c.worker_threads = 4;
  c.ingestion_delay = days(365);  // no SCOPE job fires within the run
  // About one wall-second per 40 simulated seconds on 4 cores.
  s.span_per_second = seconds(40);
  return s;
}

LoopSpec loop_full_spec(std::uint64_t seed, bool smoke) {
  LoopSpec s;
  s.name = "loop_full";
  s.config = smoke ? core::small_test_config(seed) : core::default_config(seed);
  core::SimulationConfig& c = s.config;
  c.worker_threads = 4;
  c.streaming.enabled = true;
  c.include_server_sla_rows = true;
  s.full = true;
  s.services = smoke ? 4 : 32;
  // The hourly SLA job over [0, 1h) fires once now >= 1h + ingestion_delay.
  s.min_span = hours(1) + c.ingestion_delay;
  return s;
}

/// Counts every stored batch (the ledger needs it). In traced passes it also
/// classifies records and keeps a prefix of the batches for the replays.
class CountingTap final : public dsa::RecordTap {
 public:
  void on_records(const agent::RecordColumns& batch, SimTime now) override {
    ScopedSpan span(spans, "bench.tap", parent != nullptr ? *parent : -1);
    records += batch.size();
    ++batches;
    if (!traced) return;
    for (std::size_t i = 0, n = batch.size(); i < n; ++i) {
      if (batch.successes()[i] == 0 || agent::syn_drop_signature(batch.rtts()[i]) != 0) ++slow;
    }
    if (captured_records < kCaptureLimit) {
      captured.emplace_back();
      captured.back().append(batch);
      captured_now.push_back(now);
      captured_records += batch.size();
    }
  }

  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  std::uint64_t slow = 0;
  bool traced = false;
  static constexpr std::size_t kCaptureLimit = 400'000;  // records kept for replays
  std::size_t captured_records = 0;
  std::vector<agent::RecordColumns> captured;
  std::vector<SimTime> captured_now;
  SpanRecorder* spans = nullptr;
  const int* parent = nullptr;
};

/// One simulation with everything the benchmark attaches to it. Member
/// order matters: the tap outlives the simulation, the loop dies first.
struct Rig {
  CountingTap tap;
  std::unique_ptr<core::PingmeshSimulation> sim;
  std::unique_ptr<heal::HealingLoop> heal;
  SpanRecorder* spans = nullptr;
  int step_span = -1;
  std::uint64_t fetches_at_setup = 0;
};

std::unique_ptr<Rig> build_rig(const LoopSpec& spec, bool traced, SpanRecorder* spans) {
  auto rig = std::make_unique<Rig>();
  core::SimulationConfig cfg = spec.config;
  // The traced pass reads the thread pool's busy time through the existing
  // observability gauges; span tracing inside the program stays off.
  cfg.observability.enabled = traced;
  rig->sim = std::make_unique<core::PingmeshSimulation>(cfg);
  core::PingmeshSimulation& sim = *rig->sim;
  const topo::Topology& topo = sim.topology();
  rig->spans = spans;
  rig->tap.traced = traced;
  rig->tap.spans = spans;
  rig->tap.parent = &rig->step_span;
  sim.add_record_tap(&rig->tap);

  std::mt19937_64 rng(spec.config.seed ^ 0x9e3779b97f4a7c15ULL);
  if (spec.services > 0) {
    std::vector<ServerId> order;
    for (const topo::Server& s : topo.servers()) order.push_back(s.id);
    std::shuffle(order.begin(), order.end(), rng);
    const std::size_t per = order.size() / static_cast<std::size_t>(spec.services);
    for (int i = 0; i < spec.services; ++i) {
      auto first = order.begin() + static_cast<std::ptrdiff_t>(per * static_cast<std::size_t>(i));
      sim.services().add_service("svc" + std::to_string(i),
                                 std::vector<ServerId>(first, first + static_cast<std::ptrdiff_t>(per)));
    }
  }
  if (spec.full) {
    const topo::Pod& pod = topo.pods()[rng() % topo.pods().size()];
    sim.faults().add_blackhole(pod.tor, netsim::BlackholeMode::kSrcDstPair, 0.6, minutes(15),
                               netsim::FaultInjector::kForever, rng());
    const auto& spines = topo.dcs()[0].spines;
    sim.faults().add_silent_random_drop(spines[rng() % spines.size()], 0.05, minutes(30));
    rig->heal = std::make_unique<heal::HealingLoop>(sim);
    Rig* r = rig.get();
    sim.scheduler().schedule_every(rig->heal->config().poll_period, [r](SimTime now) {
      ScopedSpan span(r->spans, "heal.tick", r->step_span);
      r->heal->tick(now);
      return true;
    });
  }
  // Warm-up: the first pinglist round (every agent fetches and starts).
  sim.run_for(cfg.agent_tick);
  rig->fetches_at_setup = sim.pinglist_source().fetches();
  return rig;
}

std::uint64_t digest_of(const core::PingmeshSimulation& sim) {
  Digest d;
  if (const dsa::CosmosStream* s = sim.cosmos().find(dsa::kLatencyStream)) {
    d.add(s->appended_records_total());
    d.add(s->expired_records_total());
    for (const dsa::Extent& e : s->extents()) {
      d.add(e.id);
      d.add(e.first_ts);
      d.add(e.last_ts);
      d.add(e.record_count);
      d.add(e.checksum);
    }
  }
  for (const dsa::SlaRow& r : sim.db().sla_rows) {
    d.add(r.window_start);
    d.add(r.window_end);
    d.add(static_cast<int>(r.scope));
    d.add(r.scope_id);
    d.add(r.probes);
    d.add(r.successes);
    d.add(r.failures);
    d.add(r.drop_signatures);
    d.add(r.p50_ns);
    d.add(r.p99_ns);
  }
  for (const dsa::PodPairStatRow& r : sim.db().pod_pair_stats) {
    d.add(r.window_start);
    d.add(r.src_pod.value);
    d.add(r.dst_pod.value);
    d.add(r.probes);
    d.add(r.successes);
    d.add(r.drop_signatures);
    d.add(r.p50_ns);
    d.add(r.p99_ns);
  }
  return d.value();
}

struct Pass {
  double wall_s = 0;  ///< sum of step wall times
  double cpu_s = 0;
  std::uint64_t probes = 0;
  std::uint64_t packets = 0;
  std::vector<double> step_us;  ///< wall time of every step
  std::uint64_t digest = 0;  ///< stored records and job rows at the end
};

std::uint64_t total_job_runs(core::PingmeshSimulation& sim) {
  std::uint64_t n = 0;
  for (const auto& j : sim.jobs().stats()) n += j.runs;
  return n;
}

/// Step the simulation one agent tick at a time up to `end` (absolute).
Pass run_pass(Rig& rig, const LoopSpec& spec, SimTime end) {
  core::PingmeshSimulation& sim = *rig.sim;
  const SimTime tick = spec.config.agent_tick;
  const SimTime pa_period = spec.config.pa_period;
  Pass p;
  const std::uint64_t probes0 = sim.total_probes();
  const std::uint64_t packets0 = sim.net().packets_sent();
  const double cpu0 = process_cpu_s();
  while (sim.now() < end) {
    const std::uint64_t jobs_before = rig.spans != nullptr ? total_job_runs(sim) : 0;
    const SimTime before = sim.now();
    rig.step_span = rig.spans != nullptr ? rig.spans->open("step") : -1;
    const double t0 = wall_s();
    sim.run_for(tick);
    const double dt = wall_s() - t0;
    if (rig.spans != nullptr) {
      rig.spans->close(rig.step_span);
      if (total_job_runs(sim) > jobs_before) rig.spans->rename(rig.step_span, "step.job");
      else if (sim.now() / pa_period > before / pa_period) rig.spans->rename(rig.step_span, "step.pa");
    }
    rig.step_span = -1;
    p.wall_s += dt;
    p.step_us.push_back(dt * 1e6);
  }
  p.cpu_s = process_cpu_s() - cpu0;
  p.probes = sim.total_probes() - probes0;
  p.packets = sim.net().packets_sent() - packets0;
  p.digest = digest_of(sim);
  return p;
}

/// Record conservation over agents and Cosmos, decode integrity and the
/// presence of job output. Adds the run's attempted/failed counts.
void check_outputs(Rig& rig, const LoopSpec& spec, Report& report) {
  core::PingmeshSimulation& sim = *rig.sim;
  std::uint64_t launched = 0;
  std::uint64_t uploaded = 0;
  std::uint64_t accounted = 0;
  for (const topo::Server& s : sim.topology().servers()) {
    const agent::PingmeshAgent& ag = sim.agent(s.id);
    launched += ag.probes_launched();
    uploaded += ag.records_uploaded();
    accounted += ag.records_uploaded() + ag.records_discarded() + ag.buffered_records();
  }
  const dsa::CosmosStream* stream = sim.cosmos().find(dsa::kLatencyStream);
  const std::uint64_t appended = stream != nullptr ? stream->appended_records_total() : 0;
  const std::uint64_t lost = launched > accounted ? launched - accounted : accounted - launched;
  const std::uint64_t dropped = sim.decode_rows_dropped();

  report.check(lost == 0, "agents: launched == uploaded + discarded + buffered");
  report.check(launched == sim.total_probes(), "agents launched every probe the network saw");
  report.check(uploaded == appended, "cosmos stored every uploaded record");
  report.check(stream != nullptr && appended == stream->total_records() +
                                                    stream->expired_records_total(),
               "cosmos: appended == retained + expired");
  report.check(rig.tap.records == appended, "every stored record reached the taps");
  report.check(dropped == 0, "scan path dropped no decoded rows");
  if (spec.full) {
    report.check(!sim.db().sla_rows.empty(), "SLA rows written");
    report.check(!sim.db().pod_pair_stats.empty(), "pod-pair rows written");
  }
  report.add_attempted(launched);
  report.add_failed(lost + dropped);
}

double timed_ns(const std::function<void()>& fn) {
  const auto t0 = SteadyClock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - t0).count());
}

class NullUploader final : public agent::Uploader {
 public:
  bool upload(const agent::RecordColumns&) override { return true; }
};

/// Reads one callback gauge from the registry's text exposition.
double gauge_value(const obs::MetricsRegistry& reg, const std::string& name) {
  std::istringstream in(reg.expose({name}));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    auto space = line.find_last_of(' ');
    if (space != std::string::npos) return std::strtod(line.c_str() + space + 1, nullptr);
  }
  return 0;
}

/// Per-call costs from replaying public entry points on captured inputs.
void replay_layers(Rig& rig, const LoopSpec& spec, const Pass& pass, Values& v,
                   SpanRecorder& spans) {
  core::PingmeshSimulation& sim = *rig.sim;
  const topo::Topology& topo = sim.topology();
  const CountingTap& tap = rig.tap;
  const int root = spans.open("replay");

  // netsim: SimNetwork::tcp_probe on the captured five-tuples and times.
  {
    ScopedSpan span(&spans, "replay.netsim", root);
    std::size_t n = 0;
    double ns = 0;
    SimTime rtt_sum = 0;  // consumed below so the calls cannot be elided
    for (const agent::RecordColumns& b : tap.captured) {
      ns += timed_ns([&] {
        for (std::size_t i = 0; i < b.size(); ++i) {
          auto src = topo.find_server_by_ip(IpAddr(b.src_ips()[i]));
          auto dst = topo.find_server_by_ip(IpAddr(b.dst_ips()[i]));
          if (!src || !dst) continue;
          netsim::ProbeSpec ps;
          ps.payload_bytes = static_cast<int>(b.payload_bytes()[i]);
          netsim::ProbeOutcome o = sim.net().tcp_probe(*src, *dst, b.src_ports()[i],
                                                       b.dst_ports()[i], ps, b.timestamps()[i]);
          rtt_sum += o.rtt;
          ++n;
        }
      });
    }
    v["netsim.probe_ns"] = n > 0 && rtt_sum >= 0 ? ns / static_cast<double>(n) : 0;
  }
  v["netsim.packets_per_probe"] =
      pass.probes > 0 ? static_cast<double>(pass.packets) / static_cast<double>(pass.probes) : 0;
  v["netsim.slow_path_frac"] =
      tap.records > 0 ? static_cast<double>(tap.slow) / static_cast<double>(tap.records) : 0;

  // controller + agent: generate pinglists for a sample of servers, then
  // drive fresh agents through ten simulated minutes of ticks.
  {
    ScopedSpan span(&spans, "replay.agent", root);
    const std::size_t sample = std::min<std::size_t>(256, topo.server_count());
    const std::size_t stride = topo.server_count() / sample;
    NullUploader null_uploader;
    double gen_ns = 0;
    double agent_ns = 0;
    std::uint64_t probes = 0;
    agent::PingmeshAgent::TickActions actions;
    for (std::size_t k = 0; k < sample; ++k) {
      const topo::Server& s = topo.servers()[k * stride];
      controller::FetchResult fetched;
      gen_ns += timed_ns([&] {
        fetched.status = controller::FetchStatus::kOk;
        fetched.pinglist = std::make_shared<const controller::Pinglist>(
            sim.generator().generate_for(s.id));
      });
      agent::PingmeshAgent ag(s.name, s.ip, spec.config.agent, null_uploader);
      ag.on_pinglist(fetched, 0);
      agent::ProbeResult ok;
      ok.success = true;
      ok.rtt = micros(200);
      agent_ns += timed_ns([&] {
        for (SimTime t = spec.config.agent_tick; t <= minutes(10); t += spec.config.agent_tick) {
          ag.tick(t, actions);
          for (const agent::ProbeRequest& req : actions.probes) ag.on_probe_result(req, ok, t);
          probes += actions.probes.size();
        }
      });
    }
    v["controller.pinglist_us"] = gen_ns / 1e3 / static_cast<double>(sample);
    v["agent.tick_ns_per_probe"] = probes > 0 ? agent_ns / static_cast<double>(probes) : 0;
  }
  v["controller.fetches"] = static_cast<double>(rig.fetches_at_setup);
  v["agent.records_per_upload"] =
      tap.batches > 0 ? static_cast<double>(tap.records) / static_cast<double>(tap.batches) : 0;

  // dsa: upload the captured batches into a scratch store, then scan it cold.
  dsa::CosmosStore scratch;
  {
    ScopedSpan span(&spans, "replay.dsa.upload", root);
    VirtualClock clock(0);
    dsa::CosmosUploader up(scratch, dsa::kLatencyStream, clock);
    up.set_encoding(spec.config.columnar_extents ? dsa::ExtentEncoding::kColumnar
                                                 : dsa::ExtentEncoding::kCsv);
    double ns = 0;
    for (std::size_t i = 0; i < tap.captured.size(); ++i) {
      clock.set(tap.captured_now[i]);
      ns += timed_ns([&] { (void)up.upload(tap.captured[i]); });
    }
    v["dsa.upload_ns_per_record"] =
        tap.captured_records > 0 ? ns / static_cast<double>(tap.captured_records) : 0;
  }
  {
    ScopedSpan span(&spans, "replay.dsa.scan", root);
    dsa::DecodedExtentCache cold;
    std::size_t rows = 0;
    const double ns = timed_ns([&] {
      rows = dsa::scope::extract_records(scratch.stream(dsa::kLatencyStream), 0, days(3650), cold)
                 .size();
    });
    v["dsa.scan_ns_per_record"] = rows > 0 ? ns / static_cast<double>(rows) : 0;
  }
  if (const dsa::CosmosStream* s = sim.cosmos().find(dsa::kLatencyStream);
      s != nullptr && s->total_records() > 0) {
    v["dsa.extent_bytes_per_record"] =
        static_cast<double>(s->total_bytes()) / static_cast<double>(s->total_records());
  }
  const double lookups =
      static_cast<double>(sim.scan_cache().hits() + sim.scan_cache().misses());
  v["dsa.scan_cache_hit_frac"] =
      lookups > 0 ? static_cast<double>(sim.scan_cache().hits()) / lookups : 0;

  // SCOPE jobs: replay the last window each job ran, over the data still
  // retained, into a scratch database. A job that never fired reads 0.
  std::uint64_t pod_pair_runs = 0;
  std::uint64_t sla_runs = 0;
  {
    ScopedSpan span(&spans, "replay.dsa.jobs", root);
    dsa::Database db;
    dsa::DecodedExtentCache cache;
    dsa::JobContext ctx;
    ctx.topo = &topo;
    ctx.services = &sim.services();
    ctx.db = &db;
    ctx.scan_cache = &cache;
    const dsa::CosmosStream& stream = sim.cosmos().stream(dsa::kLatencyStream);
    for (const auto& j : sim.jobs().stats()) {
      if (j.runs == 0) continue;
      const SimTime from = j.last_window_start;
      const SimTime to = from + j.period;
      if (j.name == "pod-pair-10min") {
        pod_pair_runs = j.runs;
        v["dsa.job_pod_pair_ms"] =
            timed_ns([&] { dsa::run_pod_pair_job(stream, ctx, from, to); }) / 1e6;
      } else if (j.name == "sla-1h") {
        sla_runs = j.runs;
        v["dsa.job_sla_ms"] = timed_ns([&] {
                                dsa::run_sla_job(stream, ctx, from, to,
                                                 spec.config.include_server_sla_rows);
                              }) / 1e6;
      }
    }
  }
  // Perfcounter Aggregator: one 5-minute collection over every agent.
  {
    ScopedSpan span(&spans, "replay.dsa.pa", root);
    dsa::Database db;
    dsa::PerfcounterAggregator pa(topo, db);
    const SimTime now = sim.now();
    v["dsa.pa_ms"] = timed_ns([&] {
                       for (const topo::Server& s : topo.servers()) {
                         pa.collect(s.id, sim.agent(s.id).peek_counters(now));
                       }
                       pa.flush(now);
                       (void)dsa::evaluate_pa_alerts(db, topo, spec.config.thresholds,
                                                     now - spec.config.pa_period, now);
                     }) / 1e6;
  }
  // Streaming: a scratch pipeline fed the captured batches, evaluated on
  // its detector cadence.
  double eval_count = 0;
  if (spec.config.streaming.enabled && !tap.captured.empty()) {
    ScopedSpan span(&spans, "replay.streaming", root);
    dsa::Database db;
    streaming::StreamingPipeline pipe(topo, db, spec.config.streaming);
    double ingest_ns = 0;
    double eval_ns = 0;
    const SimTime period = spec.config.streaming.detector.eval_period;
    SimTime next_eval = tap.captured_now.front() + period;
    for (std::size_t i = 0; i < tap.captured.size(); ++i) {
      const SimTime now = tap.captured_now[i];
      while (next_eval <= now) {
        eval_ns += timed_ns([&] { (void)pipe.tick(next_eval); });
        eval_count += 1;
        next_eval += period;
      }
      ingest_ns += timed_ns([&] { pipe.on_records(tap.captured[i], now); });
    }
    v["streaming.ingest_ns_per_record"] =
        tap.captured_records > 0 ? ingest_ns / static_cast<double>(tap.captured_records) : 0;
    v["streaming.eval_ms"] = eval_count > 0 ? eval_ns / 1e6 / eval_count : 0;
  }
  spans.close(root);

  // In-situ costs from this pass's own spans and gauges.
  const double heal_ticks = static_cast<double>(spans.count("heal.tick"));
  v["heal.tick_ms"] = heal_ticks > 0 ? spans.total_ns("heal.tick") / 1e6 / heal_ticks : 0;
  const double busy_ns = sim.observability() != nullptr
                             ? gauge_value(sim.observability()->metrics(),
                                           "threadpool.busy_ns_total")
                             : 0;
  const double wall_ns = pass.wall_s * 1e9;
  v["core.shard_busy_frac"] = wall_ns > 0 ? busy_ns / wall_ns : 0;

  // How much of the step time the layers account for: the parallel probe
  // phase (pool busy time), the benchmark's own taps and heal ticks, and
  // replayed per-call costs times the pass's call counts.
  const double sim_s =
      to_seconds(spec.config.agent_tick) * static_cast<double>(pass.step_us.size());
  double explained = busy_ns + spans.total_ns("bench.tap") + spans.total_ns("heal.tick");
  explained += v["dsa.upload_ns_per_record"] * static_cast<double>(tap.records);
  explained += v["streaming.ingest_ns_per_record"] * static_cast<double>(tap.records);
  if (spec.config.streaming.enabled) {
    explained += v["streaming.eval_ms"] * 1e6 * sim_s /
                 to_seconds(spec.config.streaming.detector.eval_period);
  }
  explained += v["dsa.pa_ms"] * 1e6 * sim_s / to_seconds(spec.config.pa_period);
  explained += v["dsa.job_pod_pair_ms"] * 1e6 * static_cast<double>(pod_pair_runs);
  explained += v["dsa.job_sla_ms"] * 1e6 * static_cast<double>(sla_runs);
  v["trace.unexplained_frac"] = wall_ns > 0 ? 1.0 - explained / wall_ns : 0;
}

void run_loop(const LoopSpec& spec, const Options& opt, Report& report, Values& v) {
  const SimTime tick = spec.config.agent_tick;
  SimTime span = std::max(spec.min_span,
                          static_cast<SimTime>(opt.seconds * static_cast<double>(spec.span_per_second)));
  span = std::max(tick, span / tick * tick);
  const SimTime end = tick + span;  // set-up ran the first tick
  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<Rig> rig =
        repeated_setup([&] { return build_rig(spec, /*traced=*/false, nullptr); }, &setups);
    Pass p = run_pass(*rig, spec, end);
    v["peak_rss_mib"] = peak_rss_mib();
    check_outputs(*rig, spec, report);

    const Tail t = tail(p.step_us);
    v["throughput_per_s"] = static_cast<double>(p.probes) / p.wall_s;
    v["latency_p50_us"] = median(p.step_us);
    v["latency_tail_us"] = t.value;
    v["cpu_us_per_op"] = p.probes > 0 ? p.cpu_s * 1e6 / static_cast<double>(p.probes) : 0;
    v["setup_s"] = median(setups);

    report.info("probes_per_s", v["throughput_per_s"], "1/s",
                std::to_string(p.probes) + " probes in " + std::to_string(p.wall_s) + " s");
    char note[160];
    std::snprintf(note, sizeof(note), "p%g of %zu steps, %zu beyond", t.percentile, t.samples,
                  t.beyond);
    report.info("step_tail_ms", t.value / 1e3, "ms", note);
    report.info("step_p50_ms", v["latency_p50_us"] / 1e3, "ms");
    report.info("probe_cpu_us", v["cpu_us_per_op"], "us");
    report.info("setup_s", v["setup_s"], "s", "median of " + std::to_string(setups.size()));
    report.info("peak_rss_mib", v["peak_rss_mib"], "MiB");
    report.info("simulated_minutes", to_seconds(span) / 60.0, "min");
    report.note("digest " + hex64(p.digest));
    return;
  }

  // Traced run: the untraced pass, then the same span traced.
  double untraced_wall = 0;
  std::uint64_t untraced_digest = 0;
  {
    std::unique_ptr<Rig> rig = build_rig(spec, /*traced=*/false, nullptr);
    Pass p = run_pass(*rig, spec, end);
    untraced_wall = p.wall_s;
    untraced_digest = p.digest;
  }
  SpanRecorder spans;
  std::unique_ptr<Rig> rig = build_rig(spec, /*traced=*/true, &spans);
  Pass p = run_pass(*rig, spec, end);
  check_outputs(*rig, spec, report);
  report.note("digest untraced " + hex64(untraced_digest) + " traced " + hex64(p.digest));
  report.check(untraced_digest == p.digest, "traced digest equals untraced digest");
  v["trace.overhead_s"] = p.wall_s - untraced_wall;
  replay_layers(*rig, spec, p, v, spans);

  std::filesystem::create_directories(opt.trace_dir);
  const std::string path =
      opt.trace_dir + "/" + spec.name + "-seed" + std::to_string(opt.seed) + ".tsv";
  report.check(spans.write(path), "spans written to " + path);
  report.info("spans", static_cast<double>(spans.size()), "count");
  report.info("steps.job", static_cast<double>(spans.count("step.job")), "count");
  report.info("steps.pa", static_cast<double>(spans.count("step.pa")), "count");
}

}  // namespace

void run_probe_path(const Options& opt, Report& report, Values& values) {
  run_loop(probe_path_spec(opt.seed, opt.smoke), opt, report, values);
}

void run_loop_full(const Options& opt, Report& report, Values& values) {
  run_loop(loop_full_spec(opt.seed, opt.smoke), opt, report, values);
}

}  // namespace pmbench
