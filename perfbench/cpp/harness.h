// Shared pieces of the benchmark driver: command-line options, process
// clocks, percentile helpers, the in-memory span recorder used by traced
// runs, a content digest, and the report that prints the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the smoke test: every metric is still produced.
  bool smoke = false;
  /// Where a traced run writes its spans (relative to the working directory).
  std::string trace_dir = ".bench_build/traces";
};

using SteadyClock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary epoch.
double wall_s();
/// User + system CPU of the whole process (all threads), in seconds.
double process_cpu_s();
/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest of a fixed ladder of percentiles, p99 at most, that still has
/// at least ten samples above it; falls back to the median for tiny samples.
/// Above p99 a VM's virtual-CPU wake-ups, not the code, set the value, so
/// the ladder stops there.
struct Tail {
  double value = 0;
  double percentile = 50;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// Latency histogram of fixed size: log-linear buckets, 128 per power of
/// two (under 0.8 % wide), over 1 ns .. 2^42 ns. Its memory does not grow
/// with the sample count, so a run that does more operations in its fixed
/// time does not report a higher peak RSS. Values are added and read in
/// microseconds; a quantile interpolates by rank inside its bucket.
class Histogram {
 public:
  Histogram();
  void add(double us);
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// The same percentile ladder as tail(std::vector<double>), stopping at
  /// `max_percentile`.
  [[nodiscard]] Tail tail(double max_percentile = 99) const;
  void merge(const Histogram& other);

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxExp = 42;
  static std::size_t index(std::uint64_t ns);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The median over `windows` of each window's tail(); `percentile` is the
/// lowest a window used, and the counts are summed. A stall of the host that
/// spoils one or two windows of a run barely moves it, where it would set
/// the pooled tail.
Tail median_tail(const std::vector<Histogram>& windows);
/// All `windows` pooled into one histogram.
Histogram pooled(const std::vector<Histogram>& windows);

/// Spans kept in memory and written out when the run ends. Each span has a
/// name, start and end (ns since the recorder was made) and a parent index
/// (-1 for a root).
class SpanRecorder {
 public:
  SpanRecorder();
  /// Open a span; returns its index.
  int open(std::string_view name, int parent = -1);
  void close(int id);
  /// Rename an open or closed span (a step is classified once it ended).
  void rename(int id, std::string_view name);

  /// Sum of durations of spans called `name`, in ns.
  [[nodiscard]] double total_ns(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Write one tab-separated line per span; returns false on I/O error.
  bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, int parent = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// FNV-1a, 64 bit, over raw bytes.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <class T>
  void add(const T& v) {
    bytes(&v, sizeof(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::string hex64(std::uint64_t v);

/// Collects the run's outcome. metric() values go into the final JSON line;
/// info() values are printed for people only. check() counts an output check.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void note(const std::string& text);
  /// Record an output check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  /// Print fail_frac and the JSON result line; returns the exit code.
  int finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace pmbench
