// pingmeshctl — the operator's command-line companion.
//
//   pingmeshctl pinglist <server-index> [--size small|medium|large] [--dcs N]
//       print the pinglist XML the controller would serve to that server
//   pingmeshctl simulate [--hours H] [--seed S] [--size ...] [--save FILE]
//       run the full closed loop and print the network report
//   pingmeshctl report --load FILE [--size ...]
//       re-run the SCOPE jobs over an archived Cosmos store and report
//   pingmeshctl heatmap [--scenario normal|podset-down|podset-failure|spine-failure]
//                       [--ppm FILE]
//       probe a scenario, render the Figure-8 heatmap, classify the pattern
//   pingmeshctl traceroute <src-index> <dst-index> [--port P] [--seed S]
//       resolve and print the ECMP path a probe five-tuple takes
//   pingmeshctl drops [--rounds N] [--seed S]
//       print the per-DC intra/inter-pod drop-rate table
//   pingmeshctl query heatmap|sla|topk [--minutes M] [--sim-minutes M]
//                    [--k N] [--metric p99|drop|failure] [--service NAME]
//                    [--dc NAME] [--seed S]
//       run the closed loop with serving-tier rollups attached and answer
//       the request from the materialized RollupStore via the QueryService
//       (the interactive read path; prints the endpoint's JSON)
//   pingmeshctl metrics [--minutes M] [--seed S] [--workers N] [--filter p1,p2]
//                       [--serve]
//       run the closed loop with observability on and print the fleet-wide
//       Prometheus-style metrics exposition (optionally prefix-filtered);
//       --serve also attaches rollups + QueryService so serve.* series
//       appear
//   pingmeshctl trace [--minutes M] [--seed S] [--sample N] [--id KEY]
//       run with the data-path tracer on and print one sampled record's
//       end-to-end span timeline (probe -> buffer -> upload -> extent
//       append -> streaming ingest -> SCOPE scan)
//   pingmeshctl chaos run --plan FILE [--workers N] [--break fail-closed]
//       replay a chaos plan file and print the invariant report (exit 1 on
//       a violation); --break fail-closed plants the defect the hunter
//       must catch
//   pingmeshctl chaos random [--seed S]
//       print the seeded random plan for a generator seed
//   pingmeshctl chaos hunt [--start-seed S] [--seeds N] [--workers W]
//                          [--break fail-closed]
//       run random plans until one violates an invariant, then shrink it
//       and print the minimal reproducer (exit 3 if all plans pass)
//   pingmeshctl soak [--seed S] [--episodes N] [--minutes M] [--workers W]
//                    [--json]
//       run the closed-loop self-healing soak: seeded chaos episodes with
//       the HealingLoop attached, reporting MTTD/MTTR, false reloads,
//       missed repairs and SLA before/after repair (exit 1 when a gate
//       fails); --json prints the machine-readable report
//
// A malformed number (--hours abc, a negative index, a value out of range
// for its type, a duration longer than SimTime holds) is a usage error: the
// command exits 2 and names it.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/droprate.h"
#include "analysis/heatmap.h"
#include "chaos/engine.h"
#include "common/stats.h"
#include "controller/generator.h"
#include "core/fleet.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/cosmos_io.h"
#include "dsa/report.h"
#include "dsa/scan_cache.h"
#include "heal/soak.h"
#include "netsim/simnet.h"
#include "serve/query_service.h"
#include "serve/rollup.h"

namespace {

using namespace pingmesh;

/// A malformed command-line value; main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `text` as a T: the whole string must be one number in T's range, so a
/// sign an unsigned T cannot hold or a value T would truncate is rejected.
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw UsageError("invalid value for " + name + ": " + text);
  }
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        std::string key = a.substr(2);
        std::string value = "true";
        if (i + 1 < argc && argv[i + 1][0] != '-') value = argv[++i];
        args.flags[key] = value;
      } else {
        args.positional.push_back(a);
      }
    }
    return args;
  }

  [[nodiscard]] std::string flag(const std::string& key, const std::string& def) const {
    auto it = flags.find(key);
    return it != flags.end() ? it->second : def;
  }
  template <typename T>
  [[nodiscard]] T flag_num(const std::string& key, T def) const {
    auto it = flags.find(key);
    return it != flags.end() ? parse_number<T>("--" + key, it->second) : def;
  }
  /// A duration flag counted in `unit`s: a negative count, or one whose span
  /// SimTime cannot hold, is as invalid as a malformed number.
  [[nodiscard]] long flag_duration(const std::string& key, long def, SimTime unit) const {
    long n = flag_num(key, def);
    if (n < 0 || n > std::numeric_limits<SimTime>::max() / unit) {
      throw UsageError("invalid value for --" + key + ": " + flag(key, ""));
    }
    return n;
  }
};

topo::Topology build_topology(const Args& args) {
  std::string size = args.flag("size", "small");
  int dcs = args.flag_num("dcs", 1);
  std::vector<topo::DcSpec> specs;
  for (int d = 0; d < dcs; ++d) {
    std::string name = "DC" + std::to_string(d + 1);
    if (size == "large") {
      specs.push_back(topo::large_dc_spec(name, "region-" + std::to_string(d)));
    } else if (size == "medium") {
      specs.push_back(topo::medium_dc_spec(name, "region-" + std::to_string(d)));
    } else {
      specs.push_back(topo::small_dc_spec(name, "region-" + std::to_string(d)));
    }
  }
  return topo::Topology::build(specs);
}

int cmd_pinglist(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: pingmeshctl pinglist <server-index> [--size ...]\n");
    return 2;
  }
  auto index = parse_number<std::uint32_t>("<server-index>", args.positional[0]);
  topo::Topology topo = build_topology(args);
  if (index >= topo.server_count()) {
    std::fprintf(stderr, "server index out of range (fleet has %zu servers)\n",
                 topo.server_count());
    return 2;
  }
  controller::GeneratorConfig cfg;
  cfg.enable_inter_dc = topo.dcs().size() > 1;
  controller::PinglistGenerator gen(topo, cfg);
  std::fputs(gen.generate_for(ServerId{index}).to_xml().c_str(), stdout);
  return 0;
}

int cmd_simulate(const Args& args) {
  core::SimulationConfig cfg =
      core::small_test_config(args.flag_num<std::uint64_t>("seed", 42));
  long hours_to_run = args.flag_duration("hours", 2L, kNanosPerHour);
  core::PingmeshSimulation sim(cfg);
  const auto& pod0 = sim.topology().pods()[0];
  sim.services().add_service("Search", pod0.servers);
  std::printf("simulating %ld hour(s) of %zu servers...\n", hours_to_run,
              sim.topology().server_count());
  // A little slack past the last window so the hourly SCOPE jobs fire.
  sim.run_for(hours(hours_to_run) + minutes(15));
  std::printf("%lu probes, %lu records, %zu db rows\n\n",
              static_cast<unsigned long>(sim.total_probes()),
              static_cast<unsigned long>(sim.cosmos().total_records()),
              sim.db().total_rows());
  dsa::ReportOptions opts;
  std::fputs(dsa::render_network_report(sim.db(), sim.topology(), &sim.services(), opts)
                 .c_str(),
             stdout);
  std::string save = args.flag("save", "");
  if (!save.empty()) {
    if (dsa::save_store(sim.cosmos(), save)) {
      std::printf("\ncosmos store archived to %s\n", save.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", save.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_report(const Args& args) {
  std::string path = args.flag("load", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: pingmeshctl report --load FILE [--size ...]\n");
    return 2;
  }
  auto loaded = dsa::load_store(path);
  if (!loaded) {
    std::fprintf(stderr, "cannot load cosmos store from %s\n", path.c_str());
    return 1;
  }
  std::printf("loaded %zu stream(s), %zu extent(s), %zu corrupt dropped\n",
              loaded->streams, loaded->extents, loaded->corrupt_dropped);
  topo::Topology topo = build_topology(args);
  const dsa::CosmosStream* stream = loaded->store.find(dsa::kLatencyStream);
  if (stream == nullptr) {
    std::fprintf(stderr, "no latency stream in the archive\n");
    return 1;
  }
  SimTime last = 0;
  for (const auto& e : stream->extents()) last = std::max(last, e.last_ts);
  dsa::Database db;
  dsa::DecodedExtentCache cache;
  dsa::JobContext ctx{&topo, nullptr, &db, &cache};
  dsa::run_sla_job(*stream, ctx, 0, last + 1, /*include_server_rows=*/false);
  dsa::run_pod_pair_job(*stream, ctx, 0, last + 1);
  std::fputs(dsa::render_network_report(db, topo, nullptr).c_str(), stdout);
  return 0;
}

int cmd_heatmap(const Args& args) {
  topo::Topology topo = build_topology(args);
  netsim::SimNetwork net(topo, args.flag_num<std::uint64_t>("seed", 8));
  std::string scenario = args.flag("scenario", "normal");
  if (scenario == "podset-down") {
    net.faults().add_podset_down(topo.podsets()[0].id);
  } else if (scenario == "podset-failure") {
    for (SwitchId leaf : topo.podsets()[1].leaves) {
      net.faults().add_congestion(leaf, 120.0, 0.003);
    }
    for (PodId pod : topo.podsets()[1].pods) {
      net.faults().add_congestion(topo.pod(pod).tor, 120.0, 0.003);
    }
  } else if (scenario == "spine-failure") {
    for (SwitchId spine : topo.dcs()[0].spines) {
      net.faults().add_congestion(spine, 150.0, 0.002);
    }
  } else if (scenario != "normal") {
    std::fprintf(stderr, "unknown scenario %s\n", scenario.c_str());
    return 2;
  }

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);
  agent::RecordColumns records;
  driver.run_dense(0, 60, seconds(10), [&](const core::FleetProbe& p) {
    agent::LatencyRecord r;
    r.timestamp = p.time;
    r.src_ip = topo.server(p.src).ip;
    r.dst_ip = p.target->ip;
    r.success = p.outcome.success;
    r.rtt = p.outcome.rtt;
    records.push_back(r);
  });
  dsa::CosmosStore store;
  dsa::CosmosStream& stream = store.stream(dsa::kLatencyStream);
  stream.append(records.encode_csv(), records.size(), 0, minutes(10), minutes(10));
  dsa::Database db;
  dsa::DecodedExtentCache cache;
  dsa::JobContext ctx{&topo, nullptr, &db, &cache};
  dsa::run_pod_pair_job(stream, ctx, 0, minutes(10));

  analysis::Heatmap map(topo, DcId{0});
  map.load(db.latest_pod_pair_window());
  std::fputs(map.ascii().c_str(), stdout);
  analysis::PatternResult pattern = analysis::classify_pattern(map);
  std::printf("pattern: %s\n", analysis::latency_pattern_name(pattern.pattern));
  std::string ppm = args.flag("ppm", "");
  if (!ppm.empty()) {
    std::ofstream(ppm, std::ios::binary) << map.to_ppm(8);
    std::printf("wrote %s\n", ppm.c_str());
  }
  return 0;
}

int cmd_traceroute(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: pingmeshctl traceroute <src-index> <dst-index>\n");
    return 2;
  }
  auto src = parse_number<std::uint32_t>("<src-index>", args.positional[0]);
  auto dst = parse_number<std::uint32_t>("<dst-index>", args.positional[1]);
  auto port = args.flag_num<std::uint16_t>("port", 40000);
  auto seed = args.flag_num<std::uint64_t>("seed", 1);
  topo::Topology topo = build_topology(args);
  if (src >= topo.server_count() || dst >= topo.server_count()) {
    std::fprintf(stderr, "server index out of range\n");
    return 2;
  }
  netsim::SimNetwork net(topo, seed);
  FiveTuple tuple{topo.server(ServerId{src}).ip, topo.server(ServerId{dst}).ip, port,
                  33100, 6};
  std::printf("traceroute %s -> %s (src port %u)\n",
              topo.server(ServerId{src}).name.c_str(),
              topo.server(ServerId{dst}).name.c_str(), port);
  netsim::Path path = net.router().resolve(tuple);
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    const topo::Switch& sw = topo.sw(path.hops[i].sw);
    std::printf("  %2zu  %-14s (%s)\n", i + 1, sw.name.c_str(),
                topo::switch_kind_name(sw.kind));
  }
  if (path.hops.empty()) std::printf("  (loopback)\n");
  return 0;
}

int cmd_drops(const Args& args) {
  topo::Topology topo = build_topology(args);
  netsim::SimNetwork net(topo, args.flag_num<std::uint64_t>("seed", 5));
  int rounds = args.flag_num("rounds", 20);
  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);

  struct Acc {
    agent::ProbeCounts intra, inter;
  };
  std::vector<Acc> acc(topo.dcs().size());
  driver.run_dense(0, rounds, seconds(10),
                   [&](const core::FleetProbe& p) {
                     if (!p.dst.valid()) return;
                     const topo::Server& s = topo.server(p.src);
                     const topo::Server& d = topo.server(p.dst);
                     Acc& a = acc[s.dc.value];
                     (s.pod == d.pod ? a.intra : a.inter).add(p.outcome.success, p.outcome.rtt);
                   });
  std::printf("%-8s %14s %14s\n", "DC", "intra-pod", "inter-pod");
  for (std::size_t d = 0; d < acc.size(); ++d) {
    std::printf("%-8s %14s %14s\n", topo.dc(DcId{static_cast<std::uint32_t>(d)}).name.c_str(),
                format_rate(acc[d].intra.drop_rate()).c_str(),
                format_rate(acc[d].inter.drop_rate()).c_str());
  }
  return 0;
}

/// The interactive read path: build rollups live from a short simulated
/// run, then answer one QueryService request from the materialized cells.
int cmd_query_serve(const Args& args, const std::string& endpoint) {
  core::SimulationConfig cfg =
      core::streaming_test_config(args.flag_num<std::uint64_t>("seed", 42));
  long sim_mins = args.flag_duration("sim-minutes", 10L, kNanosPerMinute);
  // The service answers 400 to these; reject them before simulating.
  long window_mins = args.flag_duration("minutes", 60L, kNanosPerMinute);
  if (window_mins == 0) {
    throw UsageError("invalid value for --minutes: " + args.flag("minutes", ""));
  }
  int k = args.flag_num("k", 10);
  if (k <= 0) throw UsageError("invalid value for --k: " + args.flag("k", ""));
  core::PingmeshSimulation sim(cfg);
  const topo::Topology& topo = sim.topology();
  sim.services().add_service("Search", topo.pod(PodId{0}).servers);
  sim.services().add_service("Storage", topo.pod(PodId{1}).servers);

  serve::RollupConfig rcfg;
  rcfg.tier_width[0] = minutes(1);
  rcfg.tier_width[1] = minutes(10);
  rcfg.tier_width[2] = hours(1);
  serve::RollupStore store(topo, &sim.services(), rcfg);
  sim.add_record_tap(&store);

  std::fprintf(stderr, "simulating %ld minute(s) of %zu servers...\n", sim_mins,
               topo.server_count());
  sim.run_for(minutes(sim_mins));
  std::fprintf(stderr, "rollups: %llu records in %zu cells, staleness %llds\n",
               static_cast<unsigned long long>(store.placed()), store.cell_count(),
               static_cast<long long>((store.now() - store.sealed_until(0)) /
                                      kNanosPerSecond));

  std::string path = "/query/" + endpoint + "?minutes=" + std::to_string(window_mins);
  if (endpoint == "sla") path += "&service=" + args.flag("service", "Search");
  if (endpoint == "topk") {
    path += "&k=" + std::to_string(k) + "&metric=" + args.flag("metric", "p99");
  }
  if (args.flags.count("dc") != 0) path += "&dc=" + args.flag("dc", "");

  serve::QueryService svc(topo, store, &sim.services());
  net::HttpResponse resp = svc.handle({"GET", path, {}, ""});
  std::fprintf(stderr, "GET %s -> %d\n", path.c_str(), resp.status);
  std::printf("%s\n", resp.body.c_str());
  return resp.status == 200 ? 0 : 1;
}

int cmd_query(const Args& args) {
  if (!args.positional.empty() &&
      (args.positional[0] == "heatmap" || args.positional[0] == "sla" ||
       args.positional[0] == "topk")) {
    return cmd_query_serve(args, args.positional[0]);
  }
  std::fprintf(stderr,
               "usage: pingmeshctl query heatmap|sla|topk [--minutes M] [--k N]\n"
               "               [--metric p99|drop|failure] [--service NAME] [--dc NAME]\n");
  return 2;
}

int cmd_metrics(const Args& args) {
  core::SimulationConfig cfg =
      core::observability_test_config(args.flag_num<std::uint64_t>("seed", 42));
  cfg.worker_threads = args.flag_num("workers", 1);
  long mins = args.flag_duration("minutes", 30L, kNanosPerMinute);
  core::PingmeshSimulation sim(cfg);

  // --serve: attach the serving tier so its serve.* instruments register
  // and move (rollups from the uploader tap, a few QueryService calls).
  bool with_serve = args.flags.count("serve") != 0;
  std::unique_ptr<serve::RollupStore> store;
  if (with_serve) {
    serve::RollupConfig rcfg;
    rcfg.tier_width[0] = minutes(1);
    rcfg.tier_width[1] = minutes(10);
    rcfg.tier_width[2] = hours(1);
    store = std::make_unique<serve::RollupStore>(sim.topology(), &sim.services(), rcfg);
    sim.add_record_tap(store.get());
  }

  std::fprintf(stderr, "simulating %ld minute(s) of %zu servers (workers=%d)...\n",
               mins, sim.topology().server_count(), sim.worker_threads());
  sim.run_for(minutes(mins));

  // The service must outlive expose(): its callback gauges (cache size,
  // rollup version) are evaluated at exposition time.
  std::unique_ptr<serve::QueryService> svc;
  if (with_serve) {
    svc = std::make_unique<serve::QueryService>(sim.topology(), *store, &sim.services());
    svc->enable_observability(sim.observability()->metrics());
    (void)svc->handle({"GET", "/query/heatmap?minutes=60", {}, ""});
    (void)svc->handle({"GET", "/query/heatmap?minutes=60", {}, ""});
    (void)svc->handle({"GET", "/query/topk?k=10&metric=p99&minutes=60", {}, ""});
  }
  std::vector<std::string> prefixes;
  std::string filter = args.flag("filter", "");
  for (std::size_t pos = 0; pos < filter.size();) {
    std::size_t comma = filter.find(',', pos);
    if (comma == std::string::npos) comma = filter.size();
    if (comma > pos) prefixes.push_back(filter.substr(pos, comma - pos));
    pos = comma + 1;
  }
  std::fputs(sim.observability()->metrics().expose(prefixes).c_str(), stdout);
  return 0;
}

int cmd_trace(const Args& args) {
  auto sample = args.flag_num<std::uint64_t>("sample", 64);
  core::SimulationConfig cfg =
      core::observability_test_config(args.flag_num<std::uint64_t>("seed", 42), sample);
  cfg.observability.trace.ring_capacity = 1u << 18;
  long mins = args.flag_duration("minutes", 25L, kNanosPerMinute);
  auto id = args.flag_num<std::uint64_t>("id", 0);
  core::PingmeshSimulation sim(cfg);
  std::fprintf(stderr, "simulating %ld minute(s), tracing 1-in-%llu records...\n", mins,
               static_cast<unsigned long long>(sample));
  sim.run_for(minutes(mins));

  const obs::TraceSink& sink = sim.observability()->sink();
  std::printf("%lu spans recorded, %lu dropped, %zu distinct traces\n",
              static_cast<unsigned long>(sink.spans_recorded()),
              static_cast<unsigned long>(sink.spans_dropped()),
              sink.trace_ids().size());
  if (id == 0) {
    auto ids = sink.trace_ids();
    if (ids.empty()) {
      std::fprintf(stderr, "no sampled record traces; try --sample 1\n");
      return 1;
    }
    id = ids.front();  // the most complete journey
  }
  std::printf("\ntrace %016llx\n", static_cast<unsigned long long>(id));
  for (const obs::TraceSpan& s : sink.spans_for(id)) {
    std::printf("  %10.3fs .. %10.3fs  %-16s %s\n",
                static_cast<double>(s.start) / 1e9, static_cast<double>(s.end) / 1e9,
                s.stage.c_str(), s.note.c_str());
  }
  return 0;
}

void print_chaos_result(const chaos::ChaosRunResult& result) {
  std::fputs(result.report.to_text().c_str(), stdout);
  const chaos::FleetTotals& t = result.totals;
  std::printf(
      "probes=%llu uploaded=%llu discarded=%llu buffered=%llu "
      "uploads_ok=%llu uploads_failed=%llu log_dup_avoided=%llu\n"
      "cosmos: appended=%llu live=%llu expired=%llu corrupt=%llu\n"
      "slb: backends=%llu healthy=%llu half_open_trials=%llu\n",
      static_cast<unsigned long long>(result.total_probes),
      static_cast<unsigned long long>(t.records_uploaded),
      static_cast<unsigned long long>(t.records_discarded),
      static_cast<unsigned long long>(t.records_buffered),
      static_cast<unsigned long long>(t.uploads_ok),
      static_cast<unsigned long long>(t.uploads_failed),
      static_cast<unsigned long long>(t.log_dup_avoided),
      static_cast<unsigned long long>(t.cosmos_appended),
      static_cast<unsigned long long>(t.cosmos_live),
      static_cast<unsigned long long>(t.cosmos_expired),
      static_cast<unsigned long long>(t.cosmos_corrupt_records),
      static_cast<unsigned long long>(t.slb_backends),
      static_cast<unsigned long long>(t.slb_healthy),
      static_cast<unsigned long long>(t.slb_half_open_trials));
}

int cmd_chaos(const Args& args) {
  const char* chaos_usage =
      "usage: pingmeshctl chaos run --plan FILE [--workers N] [--break fail-closed]\n"
      "       pingmeshctl chaos random [--seed S]\n"
      "       pingmeshctl chaos hunt [--start-seed S] [--seeds N] [--workers W]\n"
      "                              [--break fail-closed]\n";
  if (args.positional.empty()) {
    std::fputs(chaos_usage, stderr);
    return 2;
  }
  chaos::ChaosRunOptions options;
  options.worker_threads = args.flag_num("workers", 1);
  options.break_fail_closed = args.flag("break", "") == "fail-closed";

  const std::string& sub = args.positional[0];
  if (sub == "run") {
    std::string path = args.flag("plan", "");
    if (path.empty()) {
      std::fputs(chaos_usage, stderr);
      return 2;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    std::optional<chaos::ChaosPlan> plan = chaos::parse_plan(text, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    std::fprintf(stderr, "replaying %zu event(s), seed %llu (workers=%d)...\n",
                 plan->events.size(), static_cast<unsigned long long>(plan->seed),
                 options.worker_threads);
    chaos::ChaosRunResult result = chaos::run_plan(*plan, options);
    print_chaos_result(result);
    return result.ok() ? 0 : 1;
  }
  if (sub == "random") {
    auto seed = args.flag_num<std::uint64_t>("seed", 1);
    std::fputs(chaos::to_text(chaos::generate_random_plan(seed)).c_str(), stdout);
    return 0;
  }
  if (sub == "hunt") {
    auto start = args.flag_num<std::uint64_t>("start-seed", 1);
    int attempts = args.flag_num("seeds", 20);
    std::fprintf(stderr, "hunting: %d random plan(s) from seed %llu...\n", attempts,
                 static_cast<unsigned long long>(start));
    chaos::HuntResult hunt = chaos::hunt(start, attempts, options);
    if (!hunt.found) {
      std::printf("no invariant violation in %d plan(s) (%d run(s))\n", attempts,
                  hunt.runs);
      return 3;
    }
    std::fprintf(stderr,
                 "seed %llu violates invariants; shrunk to %zu event(s) in %d "
                 "run(s). minimal reproducer:\n",
                 static_cast<unsigned long long>(hunt.seed), hunt.minimal.events.size(),
                 hunt.runs);
    std::fputs(chaos::to_text(hunt.minimal).c_str(), stdout);
    return 0;
  }
  std::fputs(chaos_usage, stderr);
  return 2;
}

int cmd_soak(const Args& args) {
  heal::SoakConfig cfg;
  cfg.seed = args.flag_num<std::uint64_t>("seed", 7);
  cfg.episodes = args.flag_num("episodes", 4);
  long mins = args.flag_duration("minutes", 30L, kNanosPerMinute);
  cfg.episode_duration = minutes(mins);
  cfg.worker_threads = args.flag_num("workers", 1);
  std::fprintf(stderr, "soaking: %d episode(s) x %ld sim-minute(s), seed %llu (workers=%d)...\n",
               cfg.episodes, mins,
               static_cast<unsigned long long>(cfg.seed), cfg.worker_threads);
  heal::SoakReport report = heal::run_soak(cfg);
  std::fputs(args.flag("json", "") == "true" ? report.to_json().c_str()
                                             : report.to_text().c_str(),
             stdout);
  bool ok = report.invariants_ok && report.false_reloads == 0 &&
            report.unrepaired_blackholes == 0;
  return ok ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "pingmeshctl <command> [args]\n"
               "commands: pinglist simulate report heatmap traceroute drops query"
               " metrics trace chaos soak\n"
               "see the header of tools/pingmeshctl.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  Args args = Args::parse(argc, argv);
  std::string cmd = argv[1];
  try {
    if (cmd == "pinglist") return cmd_pinglist(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "heatmap") return cmd_heatmap(args);
    if (cmd == "traceroute") return cmd_traceroute(args);
    if (cmd == "drops") return cmd_drops(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "metrics") return cmd_metrics(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "chaos") return cmd_chaos(args);
    if (cmd == "soak") return cmd_soak(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "pingmeshctl: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
