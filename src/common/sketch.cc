#include "common/sketch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace pingmesh {

LatencySketch::LatencySketch() : LatencySketch(Config{}) {}

LatencySketch::LatencySketch(Config cfg) : cfg_(cfg) {
  if (!(cfg_.relative_error > 0.0) || !(cfg_.relative_error < 0.5)) {
    throw std::invalid_argument("LatencySketch relative_error must be in (0, 0.5)");
  }
  if (cfg_.min_value_ns <= 0 || cfg_.max_value_ns <= cfg_.min_value_ns) {
    throw std::invalid_argument("LatencySketch requires 0 < min_value < max_value");
  }
  double gamma = (1.0 + cfg_.relative_error) / (1.0 - cfg_.relative_error);
  double log2_gamma = std::log2(gamma);
  inv_log2_gamma_ = 1.0 / log2_gamma;
  log2_min_ = std::log2(static_cast<double>(cfg_.min_value_ns));
  rel_error_bound_ = std::sqrt(gamma) - 1.0;
  // Buckets covering [min, max) at gamma^k boundaries, plus one overflow
  // bucket for values >= max.
  double span = std::log2(static_cast<double>(cfg_.max_value_ns)) - log2_min_;
  auto regular = static_cast<std::size_t>(std::ceil(span * inv_log2_gamma_));
  counts_.assign(regular + 1, 0);
  PINGMESH_CHECK_MSG(counts_.size() >= 2, "sketch needs at least one regular bucket");
}

std::size_t LatencySketch::bucket_index(std::int64_t value) const {
  if (value <= cfg_.min_value_ns) return 0;
  double pos = (std::log2(static_cast<double>(value)) - log2_min_) * inv_log2_gamma_;
  PINGMESH_DCHECK(pos >= 0.0);
  auto idx = static_cast<std::size_t>(pos);
  return idx < counts_.size() - 1 ? idx : counts_.size() - 1;
}

std::int64_t LatencySketch::bucket_representative(std::size_t idx) const {
  if (idx >= counts_.size() - 1) return cfg_.max_value_ns;  // saturating top
  // Geometric midpoint of [min * gamma^idx, min * gamma^(idx+1)): the value
  // whose worst-case ratio against any bucket member is sqrt(gamma).
  double lo = std::exp2(log2_min_ + static_cast<double>(idx) / inv_log2_gamma_);
  return static_cast<std::int64_t>(lo * (1.0 + rel_error_bound_));
}

void LatencySketch::record(std::int64_t value_ns, std::uint64_t count) {
  if (count == 0) return;
  if (value_ns < 1) value_ns = 1;
  std::size_t idx = bucket_index(value_ns);
  PINGMESH_DCHECK(idx < counts_.size());
  counts_[idx] += count;
  total_ += count;
  sum_ += static_cast<double>(value_ns) * static_cast<double>(count);
  observed_min_ = std::min(observed_min_, value_ns);
  observed_max_ = std::max(observed_max_, value_ns);
}

void LatencySketch::merge(const LatencySketch& other) {
  if (!mergeable_with(other)) {
    throw std::invalid_argument("LatencySketch geometry mismatch in merge");
  }
  PINGMESH_DCHECK(counts_.size() == other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  if (other.total_ > 0) {
    observed_min_ = std::min(observed_min_, other.observed_min_);
    observed_max_ = std::max(observed_max_, other.observed_max_);
  }
}

std::int64_t LatencySketch::quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= target) {
      return std::clamp(bucket_representative(i), observed_min_, observed_max_);
    }
  }
  return observed_max_;
}

bool LatencySketch::restore_state(const std::vector<std::uint64_t>& counts,
                                  std::uint64_t total, double sum,
                                  std::int64_t observed_min, std::int64_t observed_max) {
  if (counts.size() != counts_.size()) return false;
  std::uint64_t check = 0;
  for (std::uint64_t c : counts) {
    if (c > total - check) return false;  // overflow-safe: sum stays <= total
    check += c;
  }
  if (check != total) return false;
  if (total == 0) {
    if (observed_min != std::numeric_limits<std::int64_t>::max() ||
        observed_max != std::numeric_limits<std::int64_t>::min()) {
      return false;
    }
  } else if (observed_min < 1 || observed_max < observed_min) {
    return false;  // record() clamps values to >= 1
  }
  if (!(sum >= 0.0) || (total == 0 && sum != 0.0)) return false;  // rejects NaN too
  counts_ = counts;
  total_ = total;
  sum_ = sum;
  observed_min_ = observed_min;
  observed_max_ = observed_max;
  return true;
}

void LatencySketch::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  observed_min_ = std::numeric_limits<std::int64_t>::max();
  observed_max_ = std::numeric_limits<std::int64_t>::min();
}

}  // namespace pingmesh
