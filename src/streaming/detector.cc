#include "streaming/detector.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "agent/counters.h"
#include "common/stats.h"

namespace pingmesh::streaming {

// Latency-boost rule (windowed median vs learned baseline).
constexpr double kLatencyBoostFactor = 3.0;    ///< open when p50 > factor * baseline
constexpr SimTime kLatencyAbsFloor = millis(1);  ///< and p50 above this absolute floor
constexpr double kEwmaWeight = 0.2;            ///< baseline <- w * p50 + (1-w) * baseline

// Silent-pair rule.
constexpr std::uint64_t kSilentMinProbes = 6;  ///< window probes before "silent" is trusted
constexpr SimTime kSilentAfter = seconds(30);  ///< grace after the last success (and a later probe)

// Failure-rate rule (partial-blackhole shape); the rate bar is
// agent::kBlackPairFailureRate.
constexpr std::uint64_t kMinFailures = 8;  ///< absolute failure floor per window

constexpr std::uint64_t kMinProbes = 6;  ///< window probes before any metric is trusted
constexpr int kOpenAfter = 2;   ///< consecutive breaching evaluations to open
constexpr int kCloseAfter = 3;  ///< consecutive clean evaluations to close

OnlineDetector::OnlineDetector(const topo::Topology& topo, dsa::Database& db)
    : topo_(&topo), db_(&db) {}

const char* OnlineDetector::rule_name(Rule r) {
  switch (r) {
    case kLatencyBoost: return "stream:latency_boost";
    case kDropSpike: return "stream:drop_spike";
    case kSilentPair: return "stream:silent_pair";
    case kFailRate: return "stream:fail_rate";
    default: return "stream:?";
  }
}

std::string OnlineDetector::pair_scope(PodId src, PodId dst) const {
  auto name = [this](PodId p) {
    if (p.value < topo_->pods().size()) return topo_->sw(topo_->pod(p).tor).name;
    return '#' + std::to_string(p.value);
  };
  return "pair " + name(src) + "->" + name(dst);
}

bool OnlineDetector::step_rule(PairTrack& track, Rule rule, bool breach, SimTime now) {
  if (breach) {
    track.clean_streak[rule] = 0;
    if (++track.breach_streak[rule] < kOpenAfter || track.open[rule]) return false;
    track.open[rule] = db_->open_alert(track.scope, rule_name(rule), now);
    return track.open[rule];
  }
  track.breach_streak[rule] = 0;
  if (++track.clean_streak[rule] >= kCloseAfter && track.open[rule]) {
    track.open[rule] = false;
    if (db_->close_alert(track.scope, rule_name(rule))) ++closed_;
  }
  return false;
}

void OnlineDetector::write_alert(const PairTrack& track, Rule rule,
                                 dsa::AlertSeverity severity, double value,
                                 std::string message, SimTime now) {
  dsa::AlertRow a;
  a.time = now;
  a.severity = severity;
  a.rule = rule_name(rule);
  a.scope = track.scope;
  a.value = value;
  a.message = std::move(message);
  db_->alerts.push_back(std::move(a));
  ++opened_;
}

int OnlineDetector::evaluate(const WindowedAggregator& windows, SimTime now) {
  ++evaluations_;
  const std::uint64_t opened_before = opened_;
  for (const WindowedAggregator::PairWindow& pw : windows.snapshot(now)) {
    const WindowStats& s = pw.stats;
    if (s.probes < kMinProbes) continue;
    PairTrack& track = tracks_[(static_cast<std::uint64_t>(pw.src_pod.value) << 32) |
                               pw.dst_pod.value];
    if (track.scope.empty()) track.scope = pair_scope(pw.src_pod, pw.dst_pod);

    // Silent pair: probes flowing, no connect landing for kSilentAfter
    // (blackhole shape). Lifetime last-success, not the windowed success
    // count: detection must not wait for pre-fault successes to age out of
    // the ring (that alone would cost the whole horizon). And the silence
    // must be in the data: a failed probe measured after the last success
    // has arrived. Records land one upload at a time, so a healthy pair
    // whose newest record is a success only looks quiet until the next
    // upload, and an upload interval above kSilentAfter would page on it.
    std::optional<SimTime> last_ok = windows.last_success(pw.src_pod, pw.dst_pod);
    bool silent = s.probes >= kSilentMinProbes &&
                  (!last_ok.has_value() ||
                   (windows.last_probe(pw.src_pod, pw.dst_pod) > last_ok &&
                    now - *last_ok >= kSilentAfter));
    if (step_rule(track, kSilentPair, silent, now)) {
      write_alert(track, kSilentPair, dsa::AlertSeverity::kCritical, s.failure_rate(),
                  "no successful probe since " +
                      (last_ok ? std::to_string(to_seconds(*last_ok)) + "s" : "boot") +
                      " (" + std::to_string(s.probes) + " probes in live window)",
                  now);
    }

    // Failure rate: the partial-blackhole shape. A corrupted entry fraction
    // below 1 kills a subset of the pod pair's server pairs deterministically
    // while the rest keep succeeding, so the pair is neither silent nor
    // spiking retransmit signatures — but its windowed connect-failure
    // fraction sits at the corrupted fraction. The absolute failure floor
    // keeps a single crashed server in a small pod below the rule; the
    // silent guard keeps total loss owned by silent_pair alone instead of
    // double-alerting the same fault under two rules.
    bool fail_rate = !silent && s.failures >= kMinFailures &&
                     s.failure_rate() >= agent::kBlackPairFailureRate;
    if (step_rule(track, kFailRate, fail_rate, now)) {
      write_alert(track, kFailRate, dsa::AlertSeverity::kCritical, s.failure_rate(),
                  "connect failure rate " + format_rate(s.failure_rate()) + " (" +
                      std::to_string(s.failures) + "/" + std::to_string(s.probes) +
                      " probes) over live window",
                  now);
    }

    // Drop-signature spike (§4.2 estimator, PA-style signature floor).
    bool drop_spike = s.drop_signatures() >= agent::kMinDropSignatures &&
                      s.drop_rate() > agent::kAlertDropRate;
    if (step_rule(track, kDropSpike, drop_spike, now)) {
      write_alert(track, kDropSpike, dsa::AlertSeverity::kCritical, s.drop_rate(),
                  "drop rate " + format_rate(s.drop_rate()) + " over live window", now);
    }

    // Latency boost: windowed *median* vs EWMA baseline. The median, not
    // the tail — a sub-minute pair window holds tens of samples, so its P99
    // is the max sample and routine queueing spikes would page constantly.
    // Only clean samples carry latency.
    std::uint64_t clean = s.successes - std::min(s.successes, s.drop_signatures());
    if (clean > 0 && s.p50_ns > 0) {
      bool boost = false;
      if (track.baseline_init) {
        boost = static_cast<double>(s.p50_ns) >
                    kLatencyBoostFactor * track.p50_baseline &&
                s.p50_ns > kLatencyAbsFloor;
      }
      if (step_rule(track, kLatencyBoost, boost, now)) {
        write_alert(track, kLatencyBoost, dsa::AlertSeverity::kWarning,
                    static_cast<double>(s.p50_ns),
                    "P50 " + format_latency_ns(s.p50_ns) + " vs baseline " +
                        format_latency_ns(static_cast<std::int64_t>(track.p50_baseline)),
                    now);
      }
      // Baseline learns only from non-breaching windows: an incident must
      // not absorb itself into its own baseline.
      if (!boost) {
        if (!track.baseline_init) {
          track.p50_baseline = static_cast<double>(s.p50_ns);
          track.baseline_init = true;
        } else {
          track.p50_baseline = kEwmaWeight * static_cast<double>(s.p50_ns) +
                               (1.0 - kEwmaWeight) * track.p50_baseline;
        }
      }
    }
  }
  return static_cast<int>(opened_ - opened_before);
}

}  // namespace pingmesh::streaming
