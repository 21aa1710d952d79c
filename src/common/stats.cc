#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pingmesh {

void RunningStat::record(double v) {
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  sum_ += v;
  sum_sq_ += v * v;
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void RunningStat::clear() { *this = RunningStat{}; }

double RunningStat::variance() const {
  if (n_ == 0) return 0.0;
  double m = mean();
  double v = sum_sq_ / static_cast<double>(n_) - m * m;
  return v > 0.0 ? v : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  if (idx >= samples.size()) idx = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::string format_latency_ns(std::int64_t ns) {
  char buf[64];
  if (ns < 1'000) {
    std::snprintf(buf, sizeof(buf), "%ldns", static_cast<long>(ns));
  } else if (ns < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.0fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string format_rate(double r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", r);
  return buf;
}

}  // namespace pingmesh
