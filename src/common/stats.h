// Small statistics helpers: running moments, exact quantiles for tests and
// small reports, and latency/rate formatting. Quantile sketches live in
// common/sketch.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pingmesh {

/// Simple accumulating counter set with mean/min/max, for perf counters that
/// are not latency-shaped (CPU %, memory bytes, probe counts).
class RunningStat {
 public:
  void record(double v);
  void merge(const RunningStat& other);
  void clear();

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Population variance / stddev.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantiles from a batch of samples (used in tests to validate the
/// quantile sketch, and by small-scale reports).
double exact_quantile(std::vector<double> samples, double q);

/// Render nanoseconds as a human-readable latency ("216us", "1.34ms", "3.0s").
std::string format_latency_ns(std::int64_t ns);

/// Render a probability/rate in scientific-ish form ("1.31e-5").
std::string format_rate(double r);

}  // namespace pingmesh
