// Probe statistics: the one reading of a probe outcome every analysis
// shares, and the agent-local performance counters built on it (paper
// §3.5): "the Pingmesh Agent performs local calculation on the latency data
// and produces a set of performance counters including the packet drop
// rate, the network latency at 50th the 99th percentile". These are the
// counters the Autopilot Perfcounter Aggregator collects on its faster
// 5-minute pipeline.
#pragma once

#include <cstdint>

#include "common/sketch.h"
#include "common/types.h"

namespace pingmesh::agent {

// Thresholds on this reading that more than one detector applies.

/// §4.3: "If the packet drop rate is greater than 1e-3 ... fire alerts".
/// AlertThresholds' default, the drop-spike rule and the silent-drop bar.
inline constexpr double kAlertDropRate = 1e-3;
/// Fewest 3 s / 9 s signatures behind a PA or drop-spike alert: one alone
/// breaches kAlertDropRate in a window of a few hundred probes.
inline constexpr std::uint64_t kMinDropSignatures = 3;
/// Connect-failure fraction that makes a server pair "black" (§5.1): the
/// black-hole localizer's per-pair bar and the streaming fail-rate rule.
inline constexpr double kBlackPairFailureRate = 0.15;

/// SYN-drop signature of a successful probe's connect RTT (paper §4.2):
/// an RTT around 3 s means the first SYN was lost (initial RTO), around
/// 9 s means two SYNs were lost (3 s + doubled 6 s). Returns 0, 1, or 2.
[[nodiscard]] constexpr int syn_drop_signature(SimTime rtt) {
  // Generous bands: the residual RTT after the retransmit wait is sub-second.
  if (rtt >= seconds(2) + millis(500) && rtt < seconds(6)) return 1;
  if (rtt >= seconds(8) && rtt < seconds(15)) return 2;
  return 0;
}

/// The §3.5/§4.2 probe rule as five counters. A probe failed (its connect
/// never completed), or it carries a 3 s or 9 s SYN-drop signature, or its
/// connect RTT is a clean latency sample. Every per-server, pod-pair,
/// service and window aggregate counts probes through add().
struct ProbeCounts {
  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;   ///< connect never completed
  std::uint64_t probes_3s = 0;  ///< one-SYN-drop signatures
  std::uint64_t probes_9s = 0;  ///< two-SYN-drop signatures

  /// Count one outcome. True when `rtt` is a clean latency sample: a
  /// success without a retransmit signature (a 3 s connect is a drop
  /// artifact, not a latency sample).
  bool add(bool success, SimTime rtt) {
    ++probes;
    if (!success) {
      ++failures;
      return false;
    }
    ++successes;
    switch (syn_drop_signature(rtt)) {
      case 1:
        ++probes_3s;
        return false;
      case 2:
        ++probes_9s;
        return false;
      default:
        return true;
    }
  }

  void merge(const ProbeCounts& o) {
    probes += o.probes;
    successes += o.successes;
    failures += o.failures;
    probes_3s += o.probes_3s;
    probes_9s += o.probes_9s;
  }

  [[nodiscard]] std::uint64_t drop_signatures() const { return probes_3s + probes_9s; }
  /// The paper's drop-rate estimator:
  ///   (probes with 3s rtt + probes with 9s rtt) / total successful probes.
  /// Failed probes stay out of the denominator (a drop and a dead receiver
  /// look alike), and a 9 s probe counts once.
  [[nodiscard]] double drop_rate() const {
    return successes ? static_cast<double>(drop_signatures()) / static_cast<double>(successes)
                     : 0.0;
  }
  /// Fraction of probes whose connect never completed (black-hole shape).
  [[nodiscard]] double failure_rate() const {
    return probes ? static_cast<double>(failures) / static_cast<double>(probes) : 0.0;
  }

  [[nodiscard]] bool operator==(const ProbeCounts&) const = default;
};

/// ProbeCounts plus a sketch of the clean RTTs: the mergeable probe
/// aggregate behind the agent counters, the PA, the SCOPE jobs, the
/// streaming sub-windows and the serving rollup cells. They all share one
/// sketch geometry, so batch, streaming and serving percentiles over the
/// same probes come from the same bucket counts.
struct ProbeStats : ProbeCounts {
  /// 2% relative error over 1 us .. 16 s (416 buckets, ~3.3 KB): every
  /// clean RTT, with the signature bands counted rather than sketched.
  static constexpr LatencySketch::Config kSketch{/*relative_error=*/0.02,
                                                 /*min_value_ns=*/1'000,
                                                 /*max_value_ns=*/16 * kNanosPerSecond};

  LatencySketch latency{kSketch};

  void add(bool success, SimTime rtt) {
    if (ProbeCounts::add(success, rtt)) latency.record(rtt);
  }
  void merge(const ProbeStats& o) {
    ProbeCounts::merge(o);
    latency.merge(o.latency);
  }
  /// Back to empty, keeping the sketch's buckets (no allocation).
  void clear() {
    static_cast<ProbeCounts&>(*this) = ProbeCounts{};
    latency.clear();
  }
};

/// Counters and percentiles of a merged ProbeStats over [window_start,
/// window_end): one pod pair's or one service's live window or rollup
/// range, as the streaming path and the serving tier report it.
struct WindowStats : ProbeCounts {
  SimTime window_start = 0;
  SimTime window_end = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;

  [[nodiscard]] static WindowStats of(const ProbeStats& merged, SimTime start, SimTime end) {
    WindowStats out;
    static_cast<ProbeCounts&>(out) = merged;
    out.window_start = start;
    out.window_end = end;
    out.p50_ns = merged.latency.p50();
    out.p99_ns = merged.latency.p99();
    out.p999_ns = merged.latency.p999();
    return out;
  }
};

/// One window of an agent's counters.
struct CounterSnapshot : ProbeStats {
  SimTime window_start = 0;
  SimTime window_end = 0;
};

/// Windowed counters; collect() returns the finished window and starts a
/// fresh one.
class PerfCounters {
 public:
  explicit PerfCounters(SimTime window_start = 0) { cur_.window_start = window_start; }

  void record_probe(bool success, SimTime rtt) { cur_.add(success, rtt); }

  [[nodiscard]] CounterSnapshot peek(SimTime now) const;
  CounterSnapshot collect(SimTime now);

  /// Approximate memory footprint (agent memory budget accounting). The
  /// sketch is fixed-size, so agent memory is bounded regardless of probe
  /// volume (§3.4.2 safety requirement).
  [[nodiscard]] std::size_t memory_bytes() const { return cur_.latency.memory_bytes(); }

 private:
  CounterSnapshot cur_;
};

}  // namespace pingmesh::agent
