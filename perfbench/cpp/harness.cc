#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pmbench {

double wall_s() {
  return std::chrono::duration<double>(SteadyClock::now().time_since_epoch()).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

namespace {

/// The percentile tail() reports for `n` samples, and how many lie beyond it.
Tail tail_rank(std::size_t n, double max_percentile) {
  static constexpr double kLadder[] = {99, 98, 97.5, 95, 90, 80, 75};
  Tail t;
  t.samples = n;
  for (double p : kLadder) {
    if (p > max_percentile) continue;
    auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
    if (beyond >= 10) {
      t.percentile = p;
      t.beyond = beyond;
      return t;
    }
  }
  t.percentile = 50;
  t.beyond = n / 2;
  return t;
}

}  // namespace

Tail tail(std::vector<double> v) {
  Tail t = tail_rank(v.size(), 99);
  t.value = quantile(std::move(v), t.percentile / 100.0);
  return t;
}

Histogram::Histogram() : buckets_(static_cast<std::size_t>(kMaxExp + 1) << kSubBits, 0) {}

std::size_t Histogram::index(std::uint64_t ns) {
  constexpr std::uint64_t kSub = 1ULL << kSubBits;
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int exp = 63 - __builtin_clzll(ns);  // >= kSubBits
  const int shift = exp - kSubBits;
  const std::uint64_t sub = (ns >> shift) - kSub;  // in [0, kSub)
  return static_cast<std::size_t>((static_cast<std::uint64_t>(shift + 1) << kSubBits) + sub);
}

void Histogram::add(double us) {
  const double ns = std::max(0.0, us * 1e3);
  const auto capped = static_cast<std::uint64_t>(std::min(ns, std::ldexp(1.0, kMaxExp) - 1));
  ++buckets_[std::min(index(capped), buckets_.size() - 1)];
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  constexpr std::uint64_t kSub = 1ULL << kSubBits;
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (below + n < rank) {
      below += n;
      continue;
    }
    // Bucket i covers [lo, lo + width) ns; spread its n samples evenly.
    const std::uint64_t block = i >> kSubBits;
    const std::uint64_t sub = i & (kSub - 1);
    const double width = block == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(block) - 1);
    const double lo = block == 0 ? static_cast<double>(sub)
                                 : static_cast<double>(kSub + sub) * width;
    const double within = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(n);
    return (lo + within * width) / 1e3;
  }
  return 0;
}

Tail Histogram::tail(double max_percentile) const {
  Tail t = tail_rank(static_cast<std::size_t>(count_), max_percentile);
  t.value = quantile(t.percentile / 100.0);
  return t;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

Tail median_tail(const std::vector<Histogram>& windows) {
  Tail t;
  t.percentile = 100;
  std::vector<double> values;
  for (const Histogram& w : windows) {
    const Tail wt = w.tail();
    values.push_back(wt.value);
    t.percentile = std::min(t.percentile, wt.percentile);
    t.beyond += wt.beyond;
    t.samples += wt.samples;
  }
  t.value = median(values);
  return t;
}

Histogram pooled(const std::vector<Histogram>& windows) {
  Histogram all;
  for (const Histogram& w : windows) all.merge(w);
  return all;
}

SpanRecorder::SpanRecorder() : origin_(SteadyClock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - origin_)
      .count();
}

int SpanRecorder::open(std::string_view name, int parent) {
  spans_.push_back(Span{std::string(name), now_ns(), -1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanRecorder::rename(int id, std::string_view name) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].name = std::string(name);
}

double SpanRecorder::total_ns(std::string_view name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) sum += static_cast<double>(s.end_ns - s.start_ns);
  }
  return sum;
}

std::size_t SpanRecorder::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\n", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
  std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  const std::string& note) {
  std::printf("  %-36s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void Report::note(const std::string& text) { std::printf("  # %s\n", text.c_str()); }

void Report::check(bool ok, const std::string& what) {
  std::printf("  check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct_ = false;
}

int Report::finish() {
  const double frac =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
  info("fail_frac", frac, "", std::to_string(failed_) + " of " + std::to_string(attempted_));
  const bool ok = correct();
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i ? ", " : "") + std::string("\"") + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace pmbench
