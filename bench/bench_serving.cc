// Serving-tier load generator (DESIGN.md §13): measures the interactive
// read path end to end.
//
//  1. Build rollups live from a simulated fleet (uploader tap -> RollupStore
//     with shrunken tiers so all three levels seal within the run).
//  2. Closed-loop HTTP load against QueryService over loopback: cold pass
//     (every path distinct -> render + cache fill) then warm pass (repeats
//     -> LRU hits), reporting QPS and per-request P50/P99.
//  3. Conditional-GET pinglist herd against ControllerHttpService: after one
//     warm fetch per agent, every re-poll presents If-None-Match and must
//     come back 304 with zero additional pinglist renders.
//  4. Cross-validation: rollup percentiles vs an exact rescan of the same
//     record stream, which must agree within the sketch's error bound.
//  5. Restart recovery: a PersistentRollupStore WALs + checkpoints the same
//     stream through Cosmos during the run; afterwards a cold store is
//     rebuilt from those streams, timed, and digest-compared against the
//     writer — plus a cross-replica conditional GET (pre-restart ETag must
//     revalidate as 304 on a service over the recovered store).
//
// The perf-smoke gate keys on: serving_query_qps (throughput floor),
// serving_query_p99_us (latency ceiling), serving_herd_renders (== 0),
// serving_rollup_within_bounds (== 1), serving_recovery_ms (ceiling), and
// serving_recovery_digest_match / serving_recovery_cross_replica_304 (== 1).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "bench_util.h"
#include "controller/service.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "net/http.h"
#include "net/reactor.h"
#include "net/sockaddr.h"
#include "serve/persist.h"
#include "serve/query_service.h"
#include "serve/rollup.h"

namespace pingmesh {
namespace {

using std::chrono::steady_clock;

/// Ground truth beside the rollups: the same tapped record stream, kept
/// exact (per-pair clean-RTT vectors) for percentile cross-validation.
class ExactTap final : public dsa::RecordTap {
 public:
  explicit ExactTap(const topo::Topology& topo) : topo_(&topo) {}

  void on_records(const agent::RecordColumns& batch, SimTime) override {
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
      auto src = topo_->find_server_by_ip(IpAddr(batch.src_ips()[i]));
      auto dst = topo_->find_server_by_ip(IpAddr(batch.dst_ips()[i]));
      if (!src || !dst) continue;
      std::uint64_t key =
          (static_cast<std::uint64_t>(topo_->server(*src).pod.value) << 32) |
          topo_->server(*dst).pod.value;
      if (batch.successes()[i] != 0 &&
          agent::syn_drop_signature(batch.rtts()[i]) == 0) {
        clean_rtts_[key].push_back(batch.rtts()[i]);
      }
    }
  }

  /// Nearest-rank percentile (ceil(q * n)), the sketch's rank convention.
  [[nodiscard]] std::map<std::uint64_t, std::vector<SimTime>>& pairs() {
    return clean_rtts_;
  }

 private:
  const topo::Topology* topo_;
  std::map<std::uint64_t, std::vector<SimTime>> clean_rtts_;
};

std::int64_t nearest_rank(std::vector<SimTime>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

std::int64_t pctl(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

struct PassResult {
  double qps = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::size_t responses_200 = 0;
  std::size_t responses_304 = 0;
};

/// Closed-loop pass: `concurrency` clients, each issuing the next request
/// the moment its response lands. Headers are per-request (herd passes set
/// If-None-Match).
PassResult run_pass(net::Reactor& reactor, std::uint16_t port,
                    const std::vector<net::HttpRequest>& seq, int concurrency) {
  net::HttpClient client(reactor);
  net::SockAddr dst = net::SockAddr::loopback(port);
  std::vector<std::int64_t> latencies;
  latencies.reserve(seq.size());
  PassResult out;
  std::size_t next = 0;
  std::size_t done = 0;
  std::function<void()> issue = [&]() {
    if (next >= seq.size()) return;
    net::HttpRequest req = seq[next++];
    client.request(dst, std::move(req), std::chrono::milliseconds(2000),
                   [&](const net::HttpResult& r) {
                     if (r.ok) {
                       latencies.push_back(r.total_ns);
                       if (r.response.status == 200) ++out.responses_200;
                       if (r.response.status == 304) ++out.responses_304;
                     }
                     ++done;
                     issue();
                   });
  };
  auto t0 = steady_clock::now();
  for (int i = 0; i < concurrency; ++i) issue();
  reactor.run_until([&] { return done == seq.size(); },
                    steady_clock::now() + std::chrono::seconds(120));
  double elapsed_s = std::chrono::duration<double>(steady_clock::now() - t0).count();
  out.qps = elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0;
  out.p50_ns = pctl(latencies, 0.50);
  out.p99_ns = pctl(latencies, 0.99);
  return out;
}

}  // namespace
}  // namespace pingmesh

int main(int argc, char** argv) {
  using namespace pingmesh;  // NOLINT
  bench::parse_args(argc, argv);

  // ---- 1. build rollups from a live fleet ---------------------------------
  bench::heading("serving tier: rollup build (uploader tap)");
  core::SimulationConfig cfg = core::streaming_test_config(42);
  core::PingmeshSimulation sim(cfg);
  const topo::Topology& topo = sim.topology();

  std::vector<ServerId> search = topo.pod(PodId{0}).servers;
  std::vector<ServerId> storage = topo.pod(PodId{1}).servers;
  sim.services().add_service("Search", search);
  sim.services().add_service("Storage", storage);

  serve::RollupConfig rcfg;
  rcfg.tier_width[0] = minutes(1);  // shrunken: all three tiers seal in-run
  rcfg.tier_width[1] = minutes(10);
  rcfg.tier_width[2] = hours(1);
  serve::RollupStore store(topo, &sim.services(), rcfg);
  // The durable twin: same batches, but WAL-appended and checkpointed
  // through the sim's Cosmos store before every apply (section 5).
  serve::PersistentRollupStore durable(topo, &sim.services(), rcfg, sim.cosmos());
  ExactTap exact(topo);
  sim.add_record_tap(&store);
  sim.add_record_tap(&durable);
  sim.add_record_tap(&exact);

  auto t_build0 = std::chrono::steady_clock::now();
  sim.run_for(minutes(30));
  double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_build0).count();

  double staleness_s =
      static_cast<double>(store.now() - store.sealed_until(0)) / kNanosPerSecond;
  bench::note("placed " + std::to_string(store.placed()) + " records into " +
              std::to_string(store.cell_count()) + " cells across " +
              std::to_string(store.pair_series_count()) + " pair series (" +
              std::to_string(build_s) + " s wall)");
  bench::json_metric("rollup_records_placed", static_cast<double>(store.placed()));
  bench::json_metric("rollup_cells", static_cast<double>(store.cell_count()));
  bench::json_metric("rollup_memory_mb",
                     static_cast<double>(store.memory_bytes()) / (1024.0 * 1024.0), "MB");
  bench::json_metric("rollup_staleness_s", staleness_s, "s");
  bench::json_metric("rollup_conservation_ok", store.check_conservation() ? 1 : 0);

  // ---- 2. closed-loop query load ------------------------------------------
  bench::heading("query API: closed-loop QPS vs latency (cold vs warm cache)");
  net::Reactor reactor;
  serve::QueryServiceConfig qcfg;
  qcfg.cache_capacity = 128;
  serve::QueryService svc(reactor, net::SockAddr::loopback(0), topo, store,
                          &sim.services(), qcfg);

  std::vector<net::HttpRequest> cold;
  for (int m = 1; m <= 12; ++m) {
    cold.push_back({"GET", "/query/heatmap?minutes=" + std::to_string(m), {}, ""});
    cold.push_back({"GET", "/query/topk?k=8&metric=p99&minutes=" + std::to_string(m), {}, ""});
    cold.push_back(
        {"GET", "/query/sla?service=Search&minutes=" + std::to_string(m), {}, ""});
    cold.push_back(
        {"GET", "/query/sla?service=Storage&minutes=" + std::to_string(m), {}, ""});
  }
  std::vector<net::HttpRequest> warm;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& r : cold) warm.push_back(r);
  }

  PassResult cold_r = run_pass(reactor, svc.port(), cold, 8);
  std::uint64_t hits_before = svc.cache_hits();
  PassResult warm_r = run_pass(reactor, svc.port(), warm, 8);
  double warm_hit_rate =
      warm.empty() ? 0
                   : static_cast<double>(svc.cache_hits() - hits_before) /
                         static_cast<double>(warm.size());

  bench::compare_row("cold pass P99 (render + fill)", "interactive",
                     std::to_string(cold_r.p99_ns / 1000) + " us");
  bench::compare_row("warm pass P99 (LRU hit)", "interactive",
                     std::to_string(warm_r.p99_ns / 1000) + " us");
  bench::note("warm QPS " + std::to_string(warm_r.qps) + ", hit rate " +
              std::to_string(warm_hit_rate));
  bench::json_metric("serving_query_qps", warm_r.qps, "req/s");
  bench::json_metric("serving_query_p50_us",
                     static_cast<double>(warm_r.p50_ns) / 1000.0, "us");
  bench::json_metric("serving_query_p99_us",
                     static_cast<double>(warm_r.p99_ns) / 1000.0, "us");
  bench::json_metric("serving_cold_p99_us",
                     static_cast<double>(cold_r.p99_ns) / 1000.0, "us");
  bench::json_metric("serving_warm_hit_rate", warm_hit_rate);
  // "Interactive latency": P99 well under one tier-0 sub-window.
  bench::json_metric("serving_p99_under_subwindow",
                     warm_r.p99_ns < rcfg.tier_width[0] ? 1 : 0);

  // ---- 3. conditional-GET pinglist herd -----------------------------------
  bench::heading("pinglist herd: warm conditional GET must cost zero renders");
  controller::ControllerHttpService ctrl(reactor, net::SockAddr::loopback(0), topo,
                                         sim.generator());
  const std::size_t herd_agents = 64;
  std::vector<std::string> ips;
  std::vector<std::string> etags(herd_agents);
  for (std::size_t i = 0; i < herd_agents && i < topo.server_count(); ++i) {
    ips.push_back(topo.server(ServerId{static_cast<std::uint32_t>(i)}).ip.str());
  }
  // Warm fetch: one render per agent; remember each validator.
  {
    net::HttpClient client(reactor);
    std::size_t done = 0;
    for (std::size_t i = 0; i < ips.size(); ++i) {
      client.get(net::SockAddr::loopback(ctrl.port()), "/pinglist/" + ips[i],
                 std::chrono::milliseconds(2000), [&etags, &done, i](const net::HttpResult& r) {
                   if (r.ok) {
                     if (auto it = r.response.headers.find("etag");
                         it != r.response.headers.end()) {
                       etags[i] = it->second;
                     }
                   }
                   ++done;
                 });
    }
    reactor.run_until([&] { return done == ips.size(); },
                      steady_clock::now() + std::chrono::seconds(60));
  }
  std::uint64_t renders_before = ctrl.files_rendered();

  std::vector<net::HttpRequest> herd;
  const int herd_rounds = 8;
  for (int round = 0; round < herd_rounds; ++round) {
    for (std::size_t i = 0; i < ips.size(); ++i) {
      herd.push_back({"GET",
                      "/pinglist/" + ips[i],
                      {{"if-none-match", etags[i]}},
                      ""});
    }
  }
  PassResult herd_r = run_pass(reactor, ctrl.port(), herd, 16);
  double herd_304_rate =
      herd.empty() ? 0
                   : static_cast<double>(herd_r.responses_304) /
                         static_cast<double>(herd.size());
  double herd_renders = static_cast<double>(ctrl.files_rendered() - renders_before);
  bench::compare_row("herd re-poll renders", "0", std::to_string(herd_renders));
  bench::note("herd " + std::to_string(herd.size()) + " conditional GETs, " +
              std::to_string(herd_r.qps) + " req/s, 304 rate " +
              std::to_string(herd_304_rate));
  bench::json_metric("serving_herd_qps", herd_r.qps, "req/s");
  bench::json_metric("serving_herd_304_rate", herd_304_rate);
  bench::json_metric("serving_herd_renders", herd_renders);

  // ---- 4. rollup answers vs exact rescan ----------------------------------
  bench::heading("rollup percentiles vs exact rescan (sketch error bound)");
  const double bound = store.relative_error_bound() * 1.10 + 0.005;
  std::size_t checked = 0;
  std::size_t within = 0;
  for (auto& [key, rtts] : exact.pairs()) {
    if (rtts.size() < 100) continue;
    PodId src{static_cast<std::uint32_t>(key >> 32)};
    PodId dst{static_cast<std::uint32_t>(key & 0xffffffffu)};
    auto stats = store.query_pair(src, dst, 0, store.now() + rcfg.tier_width[0]);
    if (!stats) continue;
    ++checked;
    std::int64_t exact_p99 = nearest_rank(rtts, 0.99);
    double rel = exact_p99 > 0
                     ? std::abs(static_cast<double>(stats->p99_ns - exact_p99)) /
                           static_cast<double>(exact_p99)
                     : 0.0;
    if (rel <= bound) ++within;
  }
  double within_frac = checked > 0 ? static_cast<double>(within) /
                                         static_cast<double>(checked)
                                   : 0.0;
  bench::compare_row("pairs within sketch bound",
                     std::to_string(checked) + "/" + std::to_string(checked),
                     std::to_string(within) + "/" + std::to_string(checked));
  bench::json_metric("serving_rollup_pairs_checked", static_cast<double>(checked));
  bench::json_metric("serving_rollup_within_bounds", within_frac >= 1.0 ? 1 : 0);

  // ---- 5. restart recovery -------------------------------------------------
  bench::heading("restart recovery: cold rebuild from checkpoint + WAL");
  serve::RollupStore recovered(topo, &sim.services(), rcfg);
  auto t_rec0 = steady_clock::now();
  serve::RollupRecoveryStats rst = serve::recover_rollup_store(recovered, sim.cosmos());
  double recovery_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - t_rec0).count();
  bool digest_match = recovered.digest() == durable.store().digest();
  bench::compare_row("recovered digest", "writer-identical",
                     digest_match ? "writer-identical" : "MISMATCH");
  bench::note("replayed " + std::to_string(rst.wal_frames_replayed) + " WAL frames (" +
              std::to_string(rst.replayed_records) + " records) over " +
              (rst.from_checkpoint
                   ? "checkpoint seq " + std::to_string(rst.checkpoint_seq)
                   : std::string("no checkpoint")) +
              " in " + std::to_string(recovery_ms) + " ms");
  bench::json_metric("serving_recovery_ms", recovery_ms, "ms");
  bench::json_metric("serving_recovery_digest_match", digest_match ? 1 : 0);
  bench::json_metric("serving_recovery_wal_frames",
                     static_cast<double>(rst.wal_frames_replayed));
  bench::json_metric("serving_wal_mb",
                     static_cast<double>(durable.wal_bytes()) / (1024.0 * 1024.0), "MB");
  bench::json_metric("serving_segments_written",
                     static_cast<double>(durable.segments_written()));

  // Cross-replica revalidation: the ETag a live replica minted before the
  // restart must come back 304 from a service over the recovered store —
  // the validator is derived from (store version, path) only, and recovery
  // restores the version.
  serve::QueryService pre(topo, store, &sim.services());
  serve::QueryService post(topo, recovered, &sim.services());
  net::HttpRequest hm{"GET", "/query/heatmap?minutes=10", {}, ""};
  net::HttpResponse warm200 = pre.handle(hm);
  int cross_304 = 0;
  if (warm200.status == 200) {
    net::HttpRequest cond = hm;
    cond.headers["if-none-match"] = warm200.headers.at("etag");
    cross_304 = post.handle(cond).status == 304 ? 1 : 0;
  }
  bench::compare_row("pre-restart ETag on recovered replica", "304",
                     cross_304 != 0 ? "304" : "MISS");
  bench::json_metric("serving_recovery_cross_replica_304", cross_304);

  bool ok = herd_renders == 0 && herd_304_rate >= 1.0 && within_frac >= 1.0 &&
            checked > 0 && store.check_conservation() && warm_hit_rate > 0.9 &&
            digest_match && cross_304 == 1 && durable.segments_written() > 0;
  bench::note(ok ? "serving tier OK" : "serving tier FAILED");
  return ok ? 0 : 1;
}
