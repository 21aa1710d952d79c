// Paper-scale fleet hot path: columnar records, binary extents, sharded tick.
//
// Three sections:
//
//  1. Encode + scan throughput, CSV vs binary columnar, on the medium-Clos
//     record stream (real records from the full-loop sim). The columnar
//     path's target is >=3x on both.
//
//  2. The paper-scale tick: a 100k-server single-DC Clos (50 podsets x 50
//     pods x 40 servers) where every server holds a ~2500-peer pinglist
//     (§3.3.1's level-2 complete graph realization). Pinglists are
//     generated lazily per server inside the shard loop and per-shard
//     RecordColumns arenas are reused across servers, so memory stays
//     bounded regardless of fleet size (peak RSS is reported). The
//     per-server encode blocks are hashed into a server-indexed digest
//     vector, so the run digest is byte-exact comparable across worker
//     counts — the determinism contract at paper scale.
//
//  3. The full-loop medium deployment simulated at 1 and 8 workers over
//     identical virtual time: retained record stream and SLA tables must
//     be bit-identical (the harness exits non-zero on divergence); the
//     speedup is reported, not asserted.
//
// `--scale small` shrinks sections 2 and 3 for the CI perf-smoke job;
// `--scale paper` (default) runs the 100k-server fleet.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "agent/record.h"
#include "agent/record_columns.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/extent_codec.h"

namespace {

using namespace pingmesh;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h = 1469598103934665603ull) {
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// ---------------------------------------------------------------------------
// Section 1: encode + scan throughput, CSV vs columnar
// ---------------------------------------------------------------------------

struct Throughput {
  double rows_per_s = 0;
  double mb_per_s = 0;  // payload MB (produced for encode, consumed for scan)
};

/// Run `body(batch)` over every batch until ~0.4s elapsed; returns rows/s
/// and MB/s where `bytes(batch)` supplies the payload size processed.
template <typename Body, typename Bytes>
Throughput measure(const std::vector<agent::RecordColumns>& batches, Body body,
                   Bytes bytes) {
  double t0 = now_s();
  std::uint64_t rows = 0;
  double mb = 0;
  do {
    for (const auto& b : batches) {
      body(b);
      rows += b.size();
      mb += static_cast<double>(bytes(b)) / 1e6;
    }
  } while (now_s() - t0 < 0.4);
  double dt = now_s() - t0;
  return {static_cast<double>(rows) / dt, mb / dt};
}

void bench_encode_scan(const agent::RecordColumns& records) {
  // Slice the stream into upload-batch-sized chunks grouped as the agents
  // produced them (one src per batch dominates, matching production).
  constexpr std::size_t kBatch = 2000;
  std::vector<agent::RecordColumns> batches;
  for (std::size_t i = 0; i < records.size(); i += kBatch) {
    agent::RecordColumns cols;
    for (std::size_t j = i; j < std::min(i + kBatch, records.size()); ++j) {
      cols.push_back(records.row(j));
    }
    batches.push_back(std::move(cols));
  }
  if (batches.empty()) return;

  Throughput enc_csv = measure(
      batches, [](const agent::RecordColumns& b) { (void)b.encode_csv(); },
      [](const agent::RecordColumns& b) { return b.encode_csv().size(); });
  Throughput enc_col = measure(
      batches, [](const agent::RecordColumns& b) { (void)dsa::encode_columnar(b); },
      [](const agent::RecordColumns& b) { return dsa::encode_columnar(b).size(); });

  // Scan: decode a whole extent payload and filter on the timestamp column
  // (what scan_cache + SCOPE EXTRACT do per job window).
  std::vector<dsa::Extent> csv_extents(batches.size()), col_extents(batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    csv_extents[i].data = batches[i].encode_csv();
    csv_extents[i].encoding = dsa::ExtentEncoding::kCsv;
    col_extents[i].data = dsa::encode_columnar(batches[i]);
    col_extents[i].encoding = dsa::ExtentEncoding::kColumnar;
  }
  std::uint64_t sink = 0;
  auto scan = [&sink](const dsa::Extent& e) {
    agent::RecordColumns cols = dsa::decode_extent(e);
    const SimTime* ts = cols.timestamps();
    for (std::size_t i = 0; i < cols.size(); ++i) sink += ts[i] >= 0 ? 1 : 0;
  };
  auto measure_scan = [&](const std::vector<dsa::Extent>& extents) {
    double t0 = now_s();
    std::uint64_t rows = 0;
    double mb = 0;
    do {
      for (std::size_t i = 0; i < extents.size(); ++i) {
        scan(extents[i]);
        rows += batches[i].size();
        mb += static_cast<double>(extents[i].data.size()) / 1e6;
      }
    } while (now_s() - t0 < 0.4);
    double dt = now_s() - t0;
    return Throughput{static_cast<double>(rows) / dt, mb / dt};
  };
  Throughput scan_csv = measure_scan(csv_extents);
  Throughput scan_col = measure_scan(col_extents);

  double enc_speedup = enc_csv.rows_per_s > 0 ? enc_col.rows_per_s / enc_csv.rows_per_s : 0;
  double scan_speedup =
      scan_csv.rows_per_s > 0 ? scan_col.rows_per_s / scan_csv.rows_per_s : 0;
  double size_ratio = 0;
  {
    std::size_t csv_b = 0, col_b = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      csv_b += csv_extents[i].data.size();
      col_b += col_extents[i].data.size();
    }
    size_ratio = col_b > 0 ? static_cast<double>(csv_b) / static_cast<double>(col_b) : 0;
  }

  std::printf("  encode  csv:      %8.1f Mrows/s  %8.1f MB/s\n", enc_csv.rows_per_s / 1e6,
              enc_csv.mb_per_s);
  std::printf("  encode  columnar: %8.1f Mrows/s  %8.1f MB/s\n", enc_col.rows_per_s / 1e6,
              enc_col.mb_per_s);
  std::printf("  scan    csv:      %8.1f Mrows/s  %8.1f MB/s\n", scan_csv.rows_per_s / 1e6,
              scan_csv.mb_per_s);
  std::printf("  scan    columnar: %8.1f Mrows/s  %8.1f MB/s  (sink %llu)\n",
              scan_col.rows_per_s / 1e6, scan_col.mb_per_s,
              static_cast<unsigned long long>(sink));

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fx", enc_speedup);
  bench::compare_row("columnar encode speedup vs CSV", ">=3x", buf);
  std::snprintf(buf, sizeof(buf), "%.1fx", scan_speedup);
  bench::compare_row("columnar scan speedup vs CSV", ">=3x", buf);
  std::snprintf(buf, sizeof(buf), "%.1fx smaller", size_ratio);
  bench::compare_row("columnar extent size vs CSV", ">=3x smaller", buf);

  bench::json_metric("encode_csv_rows_per_s", enc_csv.rows_per_s, "rows/s");
  bench::json_metric("encode_columnar_rows_per_s", enc_col.rows_per_s, "rows/s");
  bench::json_metric("encode_columnar_mb_per_s", enc_col.mb_per_s, "MB/s");
  bench::json_metric("scan_csv_rows_per_s", scan_csv.rows_per_s, "rows/s");
  bench::json_metric("scan_columnar_rows_per_s", scan_col.rows_per_s, "rows/s");
  bench::json_metric("scan_columnar_mb_per_s", scan_col.mb_per_s, "MB/s");
  bench::json_metric("encode_speedup", enc_speedup, "x");
  bench::json_metric("scan_speedup", scan_speedup, "x");
  bench::json_metric("size_ratio_csv_over_columnar", size_ratio, "x");
  if (enc_speedup < 3.0 || scan_speedup < 3.0) {
    bench::note("warning: columnar speedup below the 3x target");
  }
}

// ---------------------------------------------------------------------------
// Section 2: paper-scale fleet tick
// ---------------------------------------------------------------------------

struct TickResult {
  double wall_seconds = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;  // order-stable over servers, worker-independent
};

/// One synthetic probe record for target j of `pl`; pure function of
/// (src, dst, j) so any worker count produces identical bytes.
agent::LatencyRecord synth_record(const controller::Pinglist& pl, std::size_t j) {
  const controller::PingTarget& t = pl.targets[j];
  std::uint64_t h = mix(mix(0x243F6A8885A308D3ull, pl.server_ip.v), t.ip.v);
  h = mix(h, j);
  agent::LatencyRecord r;
  r.timestamp = seconds(10) + static_cast<SimTime>(h % 1000) * 1000;
  r.src_ip = pl.server_ip;
  r.dst_ip = t.ip;
  r.src_port = static_cast<std::uint16_t>(32768 + (h >> 16) % 16384);
  r.dst_port = t.port;
  r.kind = t.kind;
  r.qos = t.qos;
  r.success = (h % 10000) != 0;
  r.rtt = micros(80) + static_cast<SimTime>(h % 400) * 1000;
  if (t.payload_bytes > 0) {
    r.payload_success = r.success;
    r.payload_rtt = r.rtt + micros(120);
    r.payload_bytes = t.payload_bytes;
  }
  return r;
}

TickResult run_fleet_tick(const topo::Topology& topo,
                          const controller::PinglistGenerator& gen, int workers) {
  ThreadPool pool(workers);
  const std::size_t n = topo.server_count();
  std::vector<std::uint64_t> digests(n, 0);
  struct ShardAcc {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<ShardAcc> acc(static_cast<std::size_t>(pool.worker_count()));
  // One arena per shard, reused across every server the shard ticks: the
  // steady state allocates only the pinglist, never the record batch.
  std::vector<agent::RecordColumns> arenas(static_cast<std::size_t>(pool.worker_count()));

  double t0 = now_s();
  pool.parallel_for_shards(n, [&](int shard, std::size_t begin, std::size_t end) {
    agent::RecordColumns& arena = arenas[static_cast<std::size_t>(shard)];
    ShardAcc& a = acc[static_cast<std::size_t>(shard)];
    for (std::size_t i = begin; i < end; ++i) {
      controller::Pinglist pl =
          gen.generate_for(ServerId{static_cast<std::uint32_t>(i)});
      arena.clear();
      for (std::size_t j = 0; j < pl.targets.size(); ++j) {
        arena.push_back(synth_record(pl, j));
      }
      std::string blob = dsa::encode_columnar(arena);
      digests[i] = fnv1a(blob);
      a.records += arena.size();
      a.bytes += blob.size();
    }
  });
  TickResult r;
  r.wall_seconds = now_s() - t0;
  for (const ShardAcc& a : acc) {
    r.records += a.records;
    r.bytes += a.bytes;
  }
  r.digest = 1469598103934665603ull;
  for (std::uint64_t d : digests) r.digest = mix(r.digest, d);
  return r;
}

void bench_paper_tick(bool paper_scale) {
  // Two mirrored DCs (the ip plan caps one DC at 64k servers). At paper
  // scale each DC has 2500 pods, so a server's level-2 complete graph alone
  // is ~2500 ToR peers — the paper's "2000-5000 peers per pinglist" band.
  topo::DcSpec spec;
  spec.name = "DC-paper-a";
  spec.region = "US Central";
  if (paper_scale) {
    spec.podsets = 50;  // 2 x (50 x 50 x 20) = 100,000 servers
    spec.pods_per_podset = 50;
    spec.servers_per_pod = 20;
  } else {
    spec.podsets = 4;  // 2 x (4 x 5 x 5) = 200 servers (CI smoke)
    spec.pods_per_podset = 5;
    spec.servers_per_pod = 5;
  }
  topo::DcSpec spec_b = spec;
  spec_b.name = "DC-paper-b";
  spec_b.region = "US East";
  topo::Topology topo = topo::Topology::build({spec, spec_b});
  controller::GeneratorConfig gcfg;
  gcfg.max_targets_per_server = 2500;  // paper: 2000-5000 peers per server
  controller::PinglistGenerator gen(topo, gcfg);

  std::size_t peers = gen.generate_for(ServerId{0}).targets.size();
  std::printf("  fleet: %zu servers, %zu-peer pinglists\n", topo.server_count(), peers);

  const int hw = ThreadPool::hardware_workers();
  const int par = std::max(2, std::min(8, hw));  // never vacuously 1-vs-1
  TickResult serial = run_fleet_tick(topo, gen, 1);
  TickResult parallel = run_fleet_tick(topo, gen, par);

  auto report = [](const char* label, const TickResult& t) {
    std::printf("  %-22s %6.2fs  %8.1f Mrec/s  %7.1f MB encoded\n", label,
                t.wall_seconds,
                static_cast<double>(t.records) / t.wall_seconds / 1e6,
                static_cast<double>(t.bytes) / 1e6);
  };
  report("tick (1 worker):", serial);
  char lbl[32];
  std::snprintf(lbl, sizeof(lbl), "tick (%d workers):", par);
  report(lbl, parallel);

  bool identical = serial.digest == parallel.digest && serial.records == parallel.records;
  bench::compare_row("per-server extent blocks, 1 vs N workers", "byte-identical",
                     identical ? "byte-identical" : "DIVERGED");
  double rss = peak_rss_mib();
  std::printf("  peak RSS: %.0f MiB\n", rss);

  bench::json_metric("fleet_servers", static_cast<double>(topo.server_count()));
  bench::json_metric("pinglist_peers", static_cast<double>(peers));
  bench::json_metric("tick_records", static_cast<double>(serial.records));
  bench::json_metric("tick_records_per_s",
                     static_cast<double>(parallel.records) / parallel.wall_seconds,
                     "rows/s");
  bench::json_metric("tick_encode_mb_per_s",
                     static_cast<double>(parallel.bytes) / 1e6 / parallel.wall_seconds,
                     "MB/s");
  bench::json_metric("tick_digest_identical", identical ? 1 : 0);
  bench::json_metric("peak_rss_mib", rss, "MiB");
  if (!identical) {
    bench::note("FAIL: fleet tick digest diverged across worker counts");
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Section 3: full-loop medium deployment, 1 vs 8 workers
// ---------------------------------------------------------------------------

struct RunResult {
  double wall_seconds = 0;
  std::uint64_t probes = 0;
  int workers = 1;
  std::string records;  // CSV-encoded retained record stream
  std::string sla;      // serialized SLA table
};

RunResult run(int workers, SimTime duration, agent::RecordColumns* out) {
  core::SimulationConfig cfg = core::default_config(7);
  cfg.worker_threads = workers;
  cfg.include_server_sla_rows = true;
  core::PingmeshSimulation sim(cfg);

  double t0 = now_s();
  sim.run_for(duration);
  double t1 = now_s();

  RunResult r;
  r.wall_seconds = t1 - t0;
  r.probes = sim.total_probes();
  r.workers = sim.worker_threads();
  agent::RecordColumns records = sim.records_between(0, sim.now() + 1);
  r.records = records.encode_csv();
  if (out != nullptr) *out = std::move(records);
  std::ostringstream sla;
  for (const auto& row : sim.db().sla_rows) {
    sla << row.window_start << ',' << row.window_end << ','
        << static_cast<int>(row.scope) << ',' << row.scope_id << ',' << row.probes << ','
        << row.successes << ',' << row.failures << ',' << row.drop_signatures << ','
        << row.p50_ns << ',' << row.p99_ns << '\n';
  }
  r.sla = sla.str();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bool paper_scale = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      paper_scale = std::strcmp(argv[i + 1], "small") != 0;
    }
  }

  const int hw = ThreadPool::hardware_workers();
  const int workers = 8;
  const SimTime duration = paper_scale ? hours(2) : minutes(30);
  std::printf("hardware concurrency: %d, scale: %s\n", hw,
              paper_scale ? "paper" : "small");

  bench::heading("full loop: speedup and determinism (medium two-DC)");
  agent::RecordColumns medium_records;
  RunResult serial = run(1, duration, &medium_records);
  std::printf("  serial   (1 worker):  %6.2fs wall, %lu probes\n", serial.wall_seconds,
              static_cast<unsigned long>(serial.probes));
  RunResult par = run(workers, duration, nullptr);
  std::printf("  parallel (%d workers): %6.2fs wall, %lu probes\n", par.workers,
              par.wall_seconds, static_cast<unsigned long>(par.probes));

  bool identical = serial.probes == par.probes && serial.records == par.records &&
                   serial.sla == par.sla;
  double speedup = par.wall_seconds > 0 ? serial.wall_seconds / par.wall_seconds : 0.0;

  bench::compare_row("stored records + SLA rows, 1 vs 8 workers", "bit-identical",
                     identical ? "bit-identical" : "DIVERGED");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx on %d cores", speedup, hw);
  bench::compare_row("tick_agents speedup at 8 workers", ">=3x (8 cores)", buf);
  bench::json_metric("speedup_8_workers", speedup, "x");
  bench::json_metric("hardware_concurrency", hw);
  bench::json_metric("bit_identical", identical ? 1 : 0);
  bench::json_metric("probes", static_cast<double>(serial.probes));

  bench::heading("encode + scan throughput: CSV vs binary columnar");
  bench_encode_scan(medium_records);

  bench::heading(paper_scale ? "paper-scale fleet tick (100k servers)"
                             : "fleet tick (small scale)");
  bench_paper_tick(paper_scale);

  if (!identical) {
    bench::note("FAIL: parallel run diverged from the serial run");
    return 1;
  }
  if (hw >= 8 && speedup < 3.0) {
    bench::note("warning: speedup below the 3x target despite >=8 cores");
  }
  return 0;
}
