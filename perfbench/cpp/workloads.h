// The benchmark's workloads and the metric names they report. README.md
// explains each workload and which end-to-end metric each per-layer metric
// should move.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <string>

#include "harness.h"
#include "net/reactor.h"

namespace pmbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every workload on an untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},  // probes, queries or probes completed per wall-second
    {"latency_p50_us", "us"},     // median step / query / probe RTT
    {"latency_tail_us", "us"},    // highest percentile with >= 10 samples beyond it
    {"cpu_us_per_op", "us"},      // process CPU per completed operation
    {"setup_s", "s"},             // median of several set-ups in the run
    {"peak_rss_mib", "MiB"},      // VmHWM of the workload's process
};

/// Reported by every workload on a traced run (--trace 1). A layer the
/// workload never reaches reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"core.shard_busy_frac", "frac"},
    {"netsim.probe_ns", "ns"},
    {"netsim.packets_per_probe", "count"},
    {"netsim.slow_path_frac", "frac"},
    {"agent.tick_ns_per_probe", "ns"},
    {"agent.records_per_upload", "count"},
    {"controller.pinglist_us", "us"},
    {"controller.fetches", "count"},
    {"dsa.upload_ns_per_record", "ns"},
    {"dsa.extent_bytes_per_record", "B"},
    {"dsa.scan_ns_per_record", "ns"},
    {"dsa.scan_cache_hit_frac", "frac"},
    {"dsa.job_pod_pair_ms", "ms"},
    {"dsa.job_sla_ms", "ms"},
    {"dsa.pa_ms", "ms"},
    {"streaming.ingest_ns_per_record", "ns"},
    {"streaming.eval_ms", "ms"},
    {"heal.tick_ms", "ms"},
    {"serve.place_ns_per_record", "ns"},
    {"serve.render_us", "us"},
    {"serve.hit_us", "us"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.not_modified_frac", "frac"},
    {"net.http_overhead_us", "us"},
    {"net.inflight_max", "count"},
    {"gen.lag_p99_us", "us"},
    {"trace.overhead_s", "s"},
    {"trace.unexplained_frac", "frac"},
};

/// Metric name -> value, filled by a workload and emitted from the tables.
using Values = std::map<std::string, double>;

void run_probe_path(const Options& opt, Report& report, Values& values);
void run_loop_full(const Options& opt, Report& report, Values& values);
void run_serve_rw(const Options& opt, Report& report, Values& values);
void run_live_probe(const Options& opt, Report& report, Values& values);

/// Run `reactor` on the calling thread until `stop`. While `spin` is set it
/// polls without sleeping, so no request waits for this thread to be woken
/// (on a VM that wake-up, not the code, would set the latency); otherwise
/// it sleeps in the reactor between events.
inline void serve_until(pingmesh::net::Reactor& reactor, const std::atomic<bool>& stop,
                        const std::atomic<bool>& spin) {
  while (!stop.load()) {
    reactor.run_once(std::chrono::milliseconds(spin.load() ? 0 : 10));
  }
}

/// Build a workload's rig several times and keep the last one; `times`
/// receives each build's wall time (setup_s is their median). Cheap set-ups
/// repeat until about a second was spent, so their median stays steady.
template <class Build>
auto repeated_setup(Build build, std::vector<double>* times) {
  constexpr std::size_t kMin = 5;
  constexpr std::size_t kMax = 60;
  constexpr double kBudgetS = 1.0;
  decltype(build()) rig;
  double total = 0;
  while (times->size() < kMin || (total < kBudgetS && times->size() < kMax)) {
    rig.reset();
    const double t0 = wall_s();
    rig = build();
    times->push_back(wall_s() - t0);
    total += times->back();
  }
  return rig;
}

}  // namespace pmbench
