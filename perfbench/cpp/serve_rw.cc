// serve_rw: the serving tier under concurrent reads and writes.
//
// Set-up records one simulated record stream (small_test_config: one DC of
// 64 servers, each uploading every 30 s) and builds a RollupStore from its
// first 20 minutes. The measured phase serves QueryService over loopback
// HTTP (server reactor on its own thread) while a writer thread replays the
// rest of the recorded upload batches through RollupStore::on_records.
//
//   phase A  closed loop: kClients requests outstanding      -> throughput, CPU
//   phase B  open loop at kOfferedRate, timed from due time   -> latency
//
// The two phases alternate over kRounds rounds, and each figure pools all
// rounds, so a slow spell of the host lands on both and on no single one.
// The tail is the median of the p99s of windows of kRoundsPerWindow rounds
// (1,200 requests, 12 beyond the p99, in a 10 s run), so a stall of the host
// of a few milliseconds, which can set a pooled p99, spoils one window only.
//
// The client polls its reactor without sleeping, and so does the server
// thread during phase B, so a VM's virtual-CPU wake-ups stay out of the
// figures. CPU per query is the server thread's own CPU time (HTTP plus
// handle()) in phase A, where it sleeps whenever it has nothing to do.
//
// Where the load comes from:
//  - Writes: the stream's own upload batches, each applied when its
//    simulated time falls due, with simulated time running kTimeScale times
//    faster than wall time. 64 servers x 100 is the upload cadence of 6,400
//    servers (one large_dc_spec DC), about 213 batches per second. Every
//    batch that places a record bumps the store version, and so
//    invalidates the response cache.
//  - Reads: bench_serving's query set (heatmap, topk p99 and the SLA of its
//    two services, "Search" on pod 0 and "Storage" on pod 1, each over 1 to
//    12 minutes: 48 paths), drawn uniformly, as its warm pass repeats every
//    path equally often. bench_serving's serving passes send 1,008 plain
//    queries (cold and warm passes) and 512 conditional GETs (the herd), so
//    here a request presents If-None-Match with probability 512 / 1,520
//    when the client holds an ETag for its path.
//  - The open-loop rate, kOfferedRate, has no source in the repository: it
//    is a placeholder, well under a tenth of the closed loop's capacity on
//    a 4-vCPU KVM guest, until a recorded read trace exists.
//
// The route wrapper serializes each handle() against the writer with a
// reader/writer lock that the writer takes once per batch, the same
// granularity as RollupStore's own lock, so a response is always rendered at
// one store version. Afterwards every 200 and every 304 is checked against a
// fresh handle() on a replica of the store replayed batch by batch.
//
// The benchmark's own bookkeeping is of fixed size (latency histograms, a
// per-version-and-path table allocated before the phase), so peak RSS is
// the program's, whatever the request count.
#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenarios.h"
#include "core/simulation.h"
#include "net/http.h"
#include "net/reactor.h"
#include "net/sockaddr.h"
#include "serve/query_service.h"
#include "serve/rollup.h"
#include "workloads.h"

namespace pmbench {
namespace {

using namespace pingmesh;  // NOLINT
using namespace std::chrono_literals;

constexpr int kClients = 4;             // closed-loop connections
constexpr double kOfferedRate = 1000;   // open-loop requests per second (placeholder)
constexpr double kTimeScale = 100;      // simulated seconds replayed per wall second
constexpr std::uint64_t kConditional = 512;  // bench_serving: conditional GETs ...
constexpr std::uint64_t kAllRequests = 1520; // ... of all its serving requests
constexpr double kClosedShare = 0.4;    // share of --seconds spent in phase A
constexpr double kLagLimitUs = 5000;    // generator lag p99 beyond this: run invalid
constexpr int kRounds = 10;             // phases A and B alternate this many times
constexpr int kRoundsPerWindow = 2;     // open-loop tail: median over windows of this many rounds
constexpr SimTime kBuild = minutes(20); // stream folded into the store during set-up

/// One recorded upload batch.
struct Batch {
  SimTime now = 0;
  agent::RecordColumns records;
};

class RecordingTap final : public dsa::RecordTap {
 public:
  void on_records(const agent::RecordColumns& batch, SimTime now) override {
    batches.emplace_back();
    batches.back().now = now;
    batches.back().records.append(batch);
  }
  std::vector<Batch> batches;
};

serve::RollupConfig rollup_config() {
  serve::RollupConfig c;
  c.tier_width[0] = minutes(1);  // shrunken so all three tiers seal in-run
  c.tier_width[1] = minutes(10);
  c.tier_width[2] = hours(1);
  return c;
}

struct Rig {
  RecordingTap tap;
  std::unique_ptr<core::PingmeshSimulation> sim;
  std::unique_ptr<serve::RollupStore> store;
  std::size_t next_batch = 0;  ///< first recorded batch not applied yet
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed, SimTime phase_span) {
  auto rig = std::make_unique<Rig>();
  core::SimulationConfig cfg = core::small_test_config(seed);
  cfg.worker_threads = 4;
  rig->sim = std::make_unique<core::PingmeshSimulation>(cfg);
  core::PingmeshSimulation& sim = *rig->sim;
  const topo::Topology& topo = sim.topology();
  sim.services().add_service("Search", topo.pod(PodId{0}).servers);
  sim.services().add_service("Storage", topo.pod(PodId{1}).servers);
  sim.add_record_tap(&rig->tap);

  sim.run_until(kBuild + phase_span);
  rig->store = std::make_unique<serve::RollupStore>(topo, &sim.services(), rollup_config());
  while (rig->next_batch < rig->tap.batches.size() &&
         rig->tap.batches[rig->next_batch].now <= kBuild) {
    const Batch& b = rig->tap.batches[rig->next_batch++];
    rig->store->on_records(b.records, b.now);
  }
  return rig;
}

/// bench_serving's query set.
std::vector<std::string> query_paths() {
  std::vector<std::string> paths;
  for (int m = 1; m <= 12; ++m) {
    const std::string minutes = std::to_string(m);
    paths.push_back("/query/heatmap?minutes=" + minutes);
    paths.push_back("/query/topk?k=8&metric=p99&minutes=" + minutes);
    paths.push_back("/query/sla?service=Search&minutes=" + minutes);
    paths.push_back("/query/sla?service=Storage&minutes=" + minutes);
  }
  return paths;
}

/// Version embedded in a QueryService ETag ("q-<version>-<path hash>").
bool etag_version(const std::string& etag, std::uint64_t* version) {
  auto p = etag.find("q-");
  if (p == std::string::npos) return false;
  char* end = nullptr;
  *version = std::strtoull(etag.c_str() + p + 2, &end, 10);
  return end != etag.c_str() + p + 2 && *end == '-';
}

std::size_t body_hash(const std::string& body) { return std::hash<std::string>{}(body); }

/// Answers served for one (store version, path): the first body's hash, how
/// many answers carried it, and how many carried any other body.
struct Served {
  std::size_t hash = 0;
  std::uint32_t same = 0;
  std::uint32_t other = 0;
};

/// Per-request server-side timing (traced runs), indexed by request id.
struct ServerTiming {
  std::int64_t route_ns = -1;   ///< lock wait + handle
  std::int64_t handle_ns = 0;
  std::uint8_t kind = 0;        ///< 1 hit, 2 render, 3 not modified
};

struct Client {
  net::Reactor reactor;
  net::HttpClient http{reactor};
  net::SockAddr dst;
  std::vector<std::string> paths;
  std::vector<std::string> etag;      ///< last ETag seen per path
  std::vector<std::size_t> held;      ///< body hash held per path
  std::mt19937_64 rng;
  /// served[(version - first_version) * paths + path], sized before the
  /// phase for every version the replayed batches can reach.
  std::vector<Served> served;
  std::uint64_t first_version = 0;
  std::uint64_t issued = 0;
  std::uint64_t done = 0;
  std::uint64_t bad = 0;  ///< timeouts, errors, statuses other than 200/304
  std::uint64_t out_of_range = 0;  ///< versions outside the table
  std::uint64_t next_id = 0;

  /// Issue one request; `on_done(latency_ns_from_start, id)` fires on completion.
  void issue(SteadyClock::time_point start, std::function<void(std::int64_t, std::uint64_t)> on_done) {
    const auto idx = static_cast<std::uint32_t>(rng() % paths.size());
    net::HttpRequest req{"GET", paths[idx], {}, ""};
    if (rng() % kAllRequests < kConditional && !etag[idx].empty()) {
      req.headers["if-none-match"] = etag[idx];
    }
    const std::uint64_t id = next_id++;
    req.headers["x-req"] = std::to_string(id);
    ++issued;
    http.request(dst, std::move(req), 2000ms,
                 [this, idx, start, id, on_done = std::move(on_done)](const net::HttpResult& r) {
                   const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                               SteadyClock::now() - start)
                                               .count();
                   ++done;
                   record(idx, r);
                   on_done(ns, id);
                 });
  }

  void record(std::uint32_t idx, const net::HttpResult& r) {
    if (!r.ok || (r.response.status != 200 && r.response.status != 304)) {
      ++bad;
      return;
    }
    auto it = r.response.headers.find("etag");
    std::uint64_t version = 0;
    if (it == r.response.headers.end() || !etag_version(it->second, &version)) {
      ++bad;
      return;
    }
    if (r.response.status == 200) {
      etag[idx] = it->second;
      held[idx] = body_hash(r.response.body);
    } else if (it->second != etag[idx]) {
      ++bad;  // a 304 must revalidate the ETag the client presented
      return;
    }
    const std::size_t slot =
        static_cast<std::size_t>(version - first_version) * paths.size() + idx;
    if (version < first_version || slot >= served.size()) {
      ++out_of_range;
      return;
    }
    Served& s = served[slot];
    if (s.same == 0) s.hash = held[idx];
    ++(s.hash == held[idx] ? s.same : s.other);
  }
};

/// CPU time of the thread whose CPU clock is `clock`, in seconds.
double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Poll `reactor` without sleeping until `done()` or two minutes pass.
void spin_until(net::Reactor& reactor, const std::function<bool()>& done) {
  const auto deadline = SteadyClock::now() + std::chrono::seconds(120);
  while (!done() && SteadyClock::now() < deadline) reactor.run_once(0ms);
}

/// Sets `stop` and joins `thread` on every way out of the scope, exceptions
/// included, so no thread outlives the data it uses.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& stop, std::thread& thread) : stop_(stop), thread_(thread) {}
  ~StopAndJoin() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

/// One phase's totals, summed over the rounds that ran it.
struct PhaseResult {
  double wall_s = 0;
  double server_cpu_s = 0;  ///< closed loop: the server thread's CPU time
  std::uint64_t requests = 0;
  Histogram latency_us;  ///< closed loop
  Histogram lag_us;
  std::vector<std::pair<std::uint64_t, std::int64_t>> id_latency;  ///< (id, ns), traced only
};

/// Closed loop: `limit` requests (0 = until `seconds` pass), kClients in
/// flight, added to `res`. With `keep_ids`, each request's (id, latency) is
/// kept for the traced per-layer figures. `server_clock` is the server
/// thread's CPU clock.
void closed_loop(Client& c, clockid_t server_clock, double seconds, std::uint64_t limit,
                 bool keep_ids, PhaseResult& res) {
  const double t0 = wall_s();
  const double cpu0 = thread_cpu_s(server_clock);
  std::uint64_t started = 0;
  std::uint64_t finished = 0;
  bool stop = false;
  std::function<void()> next = [&] {
    if (stop) return;
    if (limit > 0 ? started >= limit : wall_s() - t0 >= seconds) {
      stop = true;
      return;
    }
    ++started;
    c.issue(SteadyClock::now(), [&](std::int64_t ns, std::uint64_t id) {
      ++finished;
      res.latency_us.add(static_cast<double>(ns) / 1e3);
      if (keep_ids) res.id_latency.emplace_back(id, ns);
      next();
    });
  };
  for (int i = 0; i < kClients; ++i) next();
  spin_until(c.reactor, [&] { return stop && finished == started; });
  res.wall_s += wall_s() - t0;
  res.server_cpu_s += thread_cpu_s(server_clock) - cpu0;
  res.requests += finished;
}

/// Open loop at kOfferedRate for `seconds`, added to `res`; latency counts
/// from the due time and goes into `latency_us`.
void open_loop(Client& c, double seconds, PhaseResult& res, Histogram& latency_us) {
  const auto start = SteadyClock::now();
  const auto period = std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / kOfferedRate));
  const auto total = static_cast<std::uint64_t>(seconds * kOfferedRate);
  std::uint64_t finished = 0;
  std::uint64_t k = 0;
  spin_until(c.reactor, [&] {
    const auto now = SteadyClock::now();
    // Issue every request that is due; each is timed from its due time.
    while (k < total && start + period * static_cast<std::int64_t>(k) <= now) {
      const auto due = start + period * static_cast<std::int64_t>(k);
      res.lag_us.add(std::chrono::duration<double, std::micro>(now - due).count());
      ++k;
      c.issue(due, [&](std::int64_t ns, std::uint64_t) {
        ++finished;
        latency_us.add(static_cast<double>(ns) / 1e3);
      });
    }
    return k == total && finished == total;
  });
  res.wall_s += std::chrono::duration<double>(SteadyClock::now() - start).count();
  res.requests += finished;
}

}  // namespace

void run_serve_rw(const Options& opt, Report& report, Values& v) {
  const double seconds = opt.seconds;
  // Enough recorded stream for the whole measured phase, with margin.
  const auto phase_span = static_cast<SimTime>(seconds * kTimeScale * 1.3 * 1e9) + minutes(1);

  std::vector<double> setups;
  std::unique_ptr<Rig> rig =
      repeated_setup([&] { return build_rig(opt.seed, phase_span); }, &setups);
  const topo::Topology& topo = rig->sim->topology();
  const topo::ServiceMap& services = rig->sim->services();
  serve::RollupStore& store = *rig->store;
  const std::string snapshot = store.encode_state();
  const std::vector<Batch>& batches = rig->tap.batches;
  const std::size_t first_batch = rig->next_batch;

  // Server: QueryService's handle() behind an HttpServer on its own thread.
  serve::QueryService svc(topo, store, &services);
  std::shared_mutex store_mu;  // readers: handle(); writer: one on_records
  // Per-request server timing, recorded only while `timing_on` (traced
  // phase A); the server thread writes slots, the main thread reads them
  // after joining it.
  std::vector<ServerTiming> timing(opt.trace ? 1'000'000 : 0);
  std::atomic<bool> timing_on{false};
  net::Reactor server_reactor;
  net::HttpServer server(server_reactor, net::SockAddr::loopback(0));
  server.route("/query/", [&](const net::HttpRequest& req) {
    const auto t0 = SteadyClock::now();
    std::shared_lock<std::shared_mutex> lock(store_mu);
    if (!timing_on.load(std::memory_order_relaxed)) return svc.handle(req);
    const std::uint64_t hits = svc.cache_hits();
    const std::uint64_t nm = svc.not_modified();
    const auto t1 = SteadyClock::now();
    net::HttpResponse resp = svc.handle(req);
    const auto t2 = SteadyClock::now();
    auto it = req.headers.find("x-req");
    const std::uint64_t id = it != req.headers.end() ? std::strtoull(it->second.c_str(), nullptr, 10)
                                                     : timing.size();
    if (id < timing.size()) {
      ServerTiming& st = timing[id];
      st.route_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t0).count();
      st.handle_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
      st.kind = svc.not_modified() > nm ? 3 : svc.cache_hits() > hits ? 1 : 2;
    }
    return resp;
  });

  Client client;
  client.dst = net::SockAddr::loopback(server.port());
  client.paths = query_paths();
  client.etag.assign(client.paths.size(), "");
  client.held.assign(client.paths.size(), 0);
  client.rng.seed(opt.seed);
  // Each on_records bumps the version at most twice (placed records, then a
  // seal), so this table covers every version the phase can serve.
  client.first_version = store.version();
  client.served.resize(2 * (batches.size() - first_batch + 1) * client.paths.size());

  std::atomic<bool> stop_server{false};
  std::atomic<bool> server_spin{false};  // set during phase B
  // A thread that throws records it here instead of ending the process.
  std::atomic<bool> thread_failed{false};
  std::atomic<bool> server_clock_set{false};
  clockid_t server_clock{};
  std::thread server_thread([&] {
    if (pthread_getcpuclockid(pthread_self(), &server_clock) == 0) server_clock_set.store(true);
    try {
      serve_until(server_reactor, stop_server, server_spin);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pmbench: server thread: %s\n", e.what());
      thread_failed.store(true);
    }
  });
  StopAndJoin server_guard(stop_server, server_thread);

  // Writer: applies each recorded batch when its simulated time is due,
  // holding the store exclusively for that one batch.
  std::atomic<bool> stop_writer{false};
  std::atomic<std::size_t> batches_applied{0};
  std::int64_t place_ns = 0;
  std::uint64_t placed_records = 0;
  Histogram writer_lag_us;
  bool batches_ran_out = false;
  std::thread writer([&] {
    const auto start = SteadyClock::now();
    try {
      for (std::size_t k = first_batch; !stop_writer.load(); ++k) {
        if (k >= batches.size()) {
          batches_ran_out = true;
          break;
        }
        const Batch& b = batches[k];
        const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                     static_cast<double>(b.now - kBuild) / kTimeScale));
        std::this_thread::sleep_until(due);
        if (stop_writer.load()) break;
        writer_lag_us.add(std::chrono::duration<double, std::micro>(SteadyClock::now() - due).count());
        std::unique_lock<std::shared_mutex> lock(store_mu);
        const auto t0 = SteadyClock::now();
        store.on_records(b.records, b.now);
        place_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - t0)
                        .count();
        lock.unlock();
        placed_records += b.records.size();
        batches_applied.store(k + 1 - first_batch);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pmbench: writer thread: %s\n", e.what());
      thread_failed.store(true);
    }
  });
  StopAndJoin writer_guard(stop_writer, writer);

  while (!server_clock_set.load() && !thread_failed.load()) std::this_thread::yield();
  PhaseResult a;
  PhaseResult a_traced;
  PhaseResult b;
  std::vector<Histogram> windows(opt.trace ? 1 : kRounds / kRoundsPerWindow);
  if (!opt.trace) {
    const double round = seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      closed_loop(client, server_clock, round * kClosedShare, 0, false, a);
      server_spin.store(true);
      open_loop(client, round * (1 - kClosedShare), b, windows[r / kRoundsPerWindow]);
      server_spin.store(false);
    }
  } else {
    // The same request count untraced, then traced: the difference is the
    // tracing overhead.
    closed_loop(client, server_clock, seconds * kClosedShare / 2, 0, true, a);
    timing_on.store(true);
    closed_loop(client, server_clock, 0, a.requests, true, a_traced);
    timing_on.store(false);
    server_spin.store(true);
    open_loop(client, seconds * (1 - kClosedShare) / 2, b, windows[0]);
    server_spin.store(false);
  }
  const Histogram open_latency_us = pooled(windows);
  stop_writer.store(true);
  writer.join();
  stop_server.store(true);
  server_thread.join();
  v["peak_rss_mib"] = peak_rss_mib();

  // ---- output checks ----------------------------------------------------
  report.add_attempted(client.issued);
  report.add_failed(client.bad + (client.issued - client.done) + client.out_of_range);
  report.check(client.bad == 0 && client.issued == client.done,
               "every request answered 200/304 with a QueryService ETag");
  report.check(client.out_of_range == 0, "every served version lies in the phase's range");
  report.check(!thread_failed.load(), "server and writer threads ran to the end");
  report.check(!batches_ran_out, "the recorded stream covered the whole phase");
  report.check(store.check_conservation(), "rollup conservation ledger");
  const std::size_t applied = batches_applied.load();
  report.check(applied > 0, "writer applied batches during the phase");

  // Replay the batches on a replica, one at a time, and compare every
  // answer with a fresh handle() at the version it was served at.
  serve::RollupStore replica(topo, &services, rollup_config());
  const bool restored = replica.restore_state(snapshot);
  report.check(restored, "store snapshot restores");
  std::uint64_t mismatched = 0;
  std::uint64_t verified = 0;
  std::vector<bool> reached(client.served.size() / client.paths.size(), false);
  auto verify_current = [&] {
    const std::uint64_t row = replica.version() - client.first_version;
    if (replica.version() < client.first_version || row >= reached.size() || reached[row]) return;
    reached[row] = true;
    serve::QueryService fresh(topo, replica, &services);
    for (std::size_t path = 0; path < client.paths.size(); ++path) {
      const Served& s = client.served[row * client.paths.size() + path];
      if (s.same + s.other == 0) continue;
      const std::size_t want = body_hash(fresh.handle({"GET", client.paths[path], {}, ""}).body);
      // Two bodies for one version are a fault whichever matches.
      mismatched += (s.hash == want ? 0 : s.same) + s.other;
      verified += s.same + s.other;
    }
  };
  verify_current();
  for (std::size_t k = 0; k < applied && restored; ++k) {
    const Batch& w = batches[first_batch + k];
    replica.on_records(w.records, w.now);
    verify_current();
  }
  std::uint64_t unverifiable = 0;
  for (std::size_t row = 0; row < reached.size(); ++row) {
    if (reached[row]) continue;
    for (std::size_t path = 0; path < client.paths.size(); ++path) {
      const Served& s = client.served[row * client.paths.size() + path];
      unverifiable += s.same + s.other;
    }
  }
  report.check(replica.digest() == store.digest(), "replayed replica matches the served store");
  report.check(mismatched == 0, "every 200/304 body equals a fresh render at its version");
  report.check(unverifiable == 0, "every served version was reached by the replay");
  report.add_failed(mismatched + unverifiable);
  report.info("answers_verified", static_cast<double>(verified), "count");
  report.info("batches_applied", static_cast<double>(applied), "count");
  report.info("store_versions", static_cast<double>(store.version() - client.first_version),
              "count");
  if (applied > 0) {
    report.info("records_per_batch",
                static_cast<double>(placed_records) / static_cast<double>(applied), "count");
    report.info("batch_us", static_cast<double>(place_ns) / 1e3 / static_cast<double>(applied),
                "us", "mean time the writer held the store exclusively");
    report.info("writer_lag_p99_us", writer_lag_us.quantile(0.99), "us");
  }

  const double lag_p99 = b.lag_us.quantile(0.99);
  const bool behind = lag_p99 > kLagLimitUs;
  report.check(!behind, "open-loop generator kept its schedule (lag p99 " +
                            std::to_string(static_cast<int>(lag_p99)) + " us)");

  if (!opt.trace) {
    const Tail t = median_tail(windows);
    v["throughput_per_s"] = static_cast<double>(a.requests) / a.wall_s;
    v["latency_p50_us"] = open_latency_us.median();
    v["latency_tail_us"] = t.value;
    v["cpu_us_per_op"] =
        a.requests > 0 ? a.server_cpu_s * 1e6 / static_cast<double>(a.requests) : 0;
    v["setup_s"] = median(setups);
    report.info("query_qps", v["throughput_per_s"], "1/s",
                "closed loop, " + std::to_string(kClients) + " connections");
    report.info("query_p50_us", v["latency_p50_us"], "us",
                "open loop at " + std::to_string(static_cast<int>(kOfferedRate)) + "/s");
    char note[160];
    std::snprintf(note, sizeof(note), "median of %zu windows' p%g; %zu requests, %zu beyond",
                  windows.size(), t.percentile, t.samples, t.beyond);
    report.info("query_p99_us", open_latency_us.quantile(0.99), "us", "pooled");
    report.info("query_tail_us", t.value, "us", note);
    report.info("query_cpu_us", v["cpu_us_per_op"], "us", "server thread CPU per query");
    report.info("setup_s", v["setup_s"], "s", "median of " + std::to_string(setups.size()));
    report.info("peak_rss_mib", v["peak_rss_mib"], "MiB");
    report.info("gen_lag_p99_us", lag_p99, "us");
    return;
  }

  // ---- per-layer (traced) -------------------------------------------------
  double hit_ns = 0, render_ns = 0;
  std::uint64_t hits = 0, renders = 0, not_modified = 0, answered = 0;
  std::vector<double> overhead_us;
  for (const auto& [id, ns] : a_traced.id_latency) {
    if (id >= timing.size() || timing[id].route_ns < 0) continue;
    overhead_us.push_back(static_cast<double>(ns - timing[id].route_ns) / 1e3);
  }
  for (const ServerTiming& st : timing) {
    if (st.route_ns < 0) continue;
    ++answered;
    if (st.kind == 1) ++hits, hit_ns += static_cast<double>(st.handle_ns);
    if (st.kind == 2) ++renders, render_ns += static_cast<double>(st.handle_ns);
    if (st.kind == 3) ++not_modified;
  }
  v["serve.place_ns_per_record"] =
      placed_records > 0 ? static_cast<double>(place_ns) / static_cast<double>(placed_records) : 0;
  v["serve.render_us"] = renders > 0 ? render_ns / 1e3 / static_cast<double>(renders) : 0;
  v["serve.hit_us"] = hits > 0 ? hit_ns / 1e3 / static_cast<double>(hits) : 0;
  v["serve.cache_hit_frac"] =
      hits + renders > 0 ? static_cast<double>(hits) / static_cast<double>(hits + renders) : 0;
  v["serve.not_modified_frac"] =
      answered > 0 ? static_cast<double>(not_modified) / static_cast<double>(answered) : 0;
  v["net.http_overhead_us"] = median(overhead_us);
  v["gen.lag_p99_us"] = lag_p99;
  v["trace.overhead_s"] = a_traced.wall_s - a.wall_s;
  double route_ns = 0, client_ns = 0;
  for (const auto& [id, ns] : a_traced.id_latency) {
    client_ns += static_cast<double>(ns);
    if (id < timing.size() && timing[id].route_ns >= 0) route_ns += static_cast<double>(timing[id].route_ns);
  }
  // Client time not inside the server's route: sockets, HTTP parsing, and
  // the reactors' scheduling.
  v["trace.unexplained_frac"] = client_ns > 0 ? 1.0 - route_ns / client_ns : 0;

  // Spans: one client request (root) and its server route (child) per line.
  std::filesystem::create_directories(opt.trace_dir);
  const std::string path = opt.trace_dir + "/serve_rw-seed" + std::to_string(opt.seed) + ".tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "request\tclient_ns\troute_ns\thandle_ns\tkind\n");
    for (const auto& [id, ns] : a_traced.id_latency) {
      if (id >= timing.size()) continue;
      const ServerTiming& st = timing[id];
      std::fprintf(f, "%llu\t%lld\t%lld\t%lld\t%d\n", static_cast<unsigned long long>(id),
                   static_cast<long long>(ns), static_cast<long long>(st.route_ns),
                   static_cast<long long>(st.handle_ns), st.kind);
    }
  }
  report.check(f != nullptr && std::fclose(f) == 0, "spans written to " + path);
}

}  // namespace pmbench
