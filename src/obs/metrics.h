// MetricsRegistry — the fleet-wide metrics substrate (paper §3.5: "All
// Pingmesh services are monitored ... latency data generation, data
// analysis pipeline, alerting accuracy" — a measurement system must itself
// be measurable to be trusted).
//
// Three instrument kinds, all named `subsystem.metric` with optional
// `{label=value,...}` labels:
//
//  - Counter: monotonically increasing u64. Lock-free (one relaxed atomic
//    add), safe to bump from parallel tick shards.
//  - Gauge: a settable double (atomic store), or a callback (`gauge_fn`)
//    evaluated lazily at exposition time — the polling form, used to mirror
//    existing component accessors (cache hit counts, pool stats) without
//    coupling those components to this module.
//  - Histogram: a LatencySketch behind a tiny spinlock. Bucket increments
//    are commutative, so concurrent observers from any thread interleaving
//    produce identical counts — exposition quantiles of a deterministic
//    workload are deterministic at any worker count.
//
// Registration is idempotent: counter(name, labels) returns the same
// instrument for the same key, so N agents sharing one registry share one
// fleet-wide counter. Returned pointers are stable for the registry's
// lifetime (instruments are heap-allocated, never rehashed away).
//
// Ownership: there is NO process-global registry, by design and by lint
// rule (`metrics-global`): every instrumented component takes a
// MetricsRegistry& at enable_observability() time. The simulation owns one
// per run, so two simulations in one test never share state.
//
// expose() writes a Prometheus-style text exposition, sorted by
// (name, labels) for byte-stable golden tests. Histograms render as
// summaries (quantile lines + _count); the _sum line is deliberately
// omitted — float accumulation order varies across worker counts, and the
// golden snapshot test pins the exposition bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/sketch.h"

namespace pingmesh::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// LatencySketch behind a spinlock: observe() is a few atomic ops plus a
/// bucket increment, cheap enough for the fleet tick path.
class Histogram {
 public:
  explicit Histogram(LatencySketch::Config cfg) : sketch_(cfg) {}

  void observe(std::int64_t value) {
    lock();
    sketch_.record(value);
    unlock();
  }

  /// Copy of the sketch for quantile queries (exposition, tests).
  [[nodiscard]] LatencySketch snapshot() const {
    lock();
    LatencySketch copy = sketch_;
    unlock();
    return copy;
  }

 private:
  void lock() const {
    while (busy_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() const { busy_.clear(std::memory_order_release); }

  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  LatencySketch sketch_;
};

class MetricsRegistry {
 public:
  /// Default sketch geometry for histograms: 1% relative error over
  /// 1 us .. 60 s — covers clean RTTs through the SYN-retransmit band.
  static LatencySketch::Config default_histogram_config() {
    return LatencySketch::Config{};
  }

  /// Get-or-create. `name` must be `subsystem.metric` ([a-z0-9_] segments,
  /// '.'-separated); `labels` must be empty or `k=v[,k=v...]`. Returns a
  /// stable reference shared by every caller using the same (name, labels).
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels,
                       LatencySketch::Config cfg);

  /// Register (or replace) a callback gauge, evaluated at expose() time.
  /// The callback must stay valid for the registry's lifetime.
  void gauge_fn(std::string_view name, std::string_view labels,
                std::function<double()> fn);

  /// Prometheus-style text exposition of every instrument, sorted by
  /// (name, labels).
  [[nodiscard]] std::string expose() const;
  /// Same, restricted to metrics whose name starts with any given prefix —
  /// the golden-snapshot tests use this to pin only deterministic metrics.
  [[nodiscard]] std::string expose(const std::vector<std::string>& name_prefixes) const;

  [[nodiscard]] std::size_t instrument_count() const;

 private:
  struct Key {
    std::string name;
    std::string labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  static void validate_name(std::string_view name);
  static void validate_labels(std::string_view labels);

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ PM_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ PM_GUARDED_BY(mu_);
  std::map<Key, std::function<double()>> gauge_fns_ PM_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ PM_GUARDED_BY(mu_);
};

}  // namespace pingmesh::obs
