// LatencySketch — a mergeable quantile sketch with a *bounded relative
// error*, the repository's one quantile sketch: probe RTT percentiles on
// every analysis path (agent::ProbeStats), the benches' latency CDFs and
// the obs histograms. Fast approximate tail estimates are what online
// detection needs (paper §5 lessons-learned: "moving towards streaming";
// "Scalable Tail Latency Estimation for Data Center Networks").
//
// Design (DDSketch-style): geometric buckets at gamma^k boundaries with
// gamma = (1 + alpha) / (1 - alpha). A bucket's representative value is its
// geometric midpoint, so any quantile estimate q' satisfies
//
//     |q' - q| <= (sqrt(gamma) - 1) * q  ~=  alpha * q
//
// for the true bucketed sample q (for alpha <= 0.05 the bound
// sqrt(gamma) - 1 is within 3% of alpha itself; we document the error as
// `relative_error_bound()`, the exact sqrt(gamma) - 1 value).
//
// Properties the aggregation paths rely on:
//  - fixed memory decided at construction (no allocation on record/merge
//    /clear — the hot ingest path stays allocation-free after warm-up);
//  - O(buckets) merge that is associative and commutative: merging
//    per-server or per-sub-window sketches equals sketching the union;
//  - one rank convention everywhere (target rank ceil(q * count),
//    representative clamped to the observed min/max): the batch jobs, the
//    streaming windows and the serving rollups all read probe RTTs through
//    agent::ProbeStats's one geometry, so their percentiles over the same
//    samples are equal, not merely close.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace pingmesh {

class LatencySketch {
 public:
  struct Config {
    /// Target relative accuracy alpha of quantile estimates, in (0, 0.5).
    double relative_error = 0.01;
    /// Values below this clamp into the first bucket (default 1 us).
    std::int64_t min_value_ns = 1'000;
    /// Values at or above this clamp into the last bucket. The default
    /// covers every clean RTT plus the 3 s / 9 s retransmit band.
    std::int64_t max_value_ns = 60 * kNanosPerSecond;

    [[nodiscard]] bool operator==(const Config& o) const {
      return relative_error == o.relative_error && min_value_ns == o.min_value_ns &&
             max_value_ns == o.max_value_ns;
    }
  };

  LatencySketch();  // default Config (1% error, 1 us .. 60 s)
  explicit LatencySketch(Config cfg);

  void record(std::int64_t value_ns) { record(value_ns, 1); }
  void record(std::int64_t value_ns, std::uint64_t count);

  /// Merge another sketch with identical geometry. O(bucket_count), no
  /// allocation; associative and commutative.
  void merge(const LatencySketch& other);

  /// Quantile in [0, 1]; representative value of the bucket holding the
  /// ceil(q * count)-th ranked sample, clamped to the observed range.
  /// 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;
  [[nodiscard]] std::int64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::int64_t p99() const { return quantile(0.99); }
  [[nodiscard]] std::int64_t p999() const { return quantile(0.999); }

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::int64_t min() const { return total_ ? observed_min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return total_ ? observed_max_ : 0; }
  [[nodiscard]] double mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

  /// Reset to empty without touching the bucket layout (no allocation).
  void clear();

  // -- state round-trips (serve rollup persistence) --------------------------
  /// Raw bucket counts, for serialization. The layout is fully determined
  /// by Config, so counts alone (plus the scalars below) round-trip the
  /// sketch exactly — quantiles, mean, and merges are all preserved.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// Raw running sum (serialization counterpart of mean()).
  [[nodiscard]] double sum() const { return sum_; }
  /// observed min/max as stored — sentinel extremes when empty, unlike the
  /// public min()/max() which report 0. Serialization must keep sentinels.
  [[nodiscard]] std::int64_t observed_min_raw() const { return observed_min_; }
  [[nodiscard]] std::int64_t observed_max_raw() const { return observed_max_; }
  /// Restore state previously captured through the accessors above. The
  /// input is validated as untrusted (persisted segments cross a disk
  /// boundary): bucket count must match this sketch's geometry, the counts
  /// must sum to `total` without overflow, and min/max must be a plausible
  /// observed range (exact sentinels when total == 0). Returns false and
  /// leaves the sketch unchanged on any mismatch.
  [[nodiscard]] bool restore_state(const std::vector<std::uint64_t>& counts,
                                   std::uint64_t total, double sum,
                                   std::int64_t observed_min, std::int64_t observed_max);

  [[nodiscard]] const Config& config() const { return cfg_; }
  /// The documented worst-case relative error, sqrt(gamma) - 1 (~alpha).
  [[nodiscard]] double relative_error_bound() const { return rel_error_bound_; }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return counts_.capacity() * sizeof(std::uint64_t) + sizeof(*this);
  }
  /// Two sketches can be merged iff their configs are identical.
  [[nodiscard]] bool mergeable_with(const LatencySketch& other) const {
    return cfg_ == other.cfg_;
  }

 private:
  [[nodiscard]] std::size_t bucket_index(std::int64_t value) const;
  [[nodiscard]] std::int64_t bucket_representative(std::size_t idx) const;

  Config cfg_;
  double inv_log2_gamma_ = 0.0;  // 1 / log2(gamma)
  double log2_min_ = 0.0;        // log2(min_value_ns)
  double rel_error_bound_ = 0.0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  std::int64_t observed_min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t observed_max_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace pingmesh
