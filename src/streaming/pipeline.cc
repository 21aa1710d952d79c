#include "streaming/pipeline.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/stats.h"

namespace pingmesh::streaming {

namespace {

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

/// AlertRow::rule, indexed by StreamingPipeline::Rule.
constexpr const char* kRuleNames[] = {kLatencyBoostRule, kDropSpikeRule, kSilentPairRule,
                                      kFailRateRule};

}  // namespace

StreamingPipeline::StreamingPipeline(const topo::Topology& topo, dsa::Database& db,
                                     StreamingConfig cfg)
    : topo_(&topo), db_(&db), cfg_(cfg) {}

void StreamingPipeline::on_records(const agent::RecordColumns& batch, SimTime now) {
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  for (std::size_t i = 0, n = batch.size(); i < n; ++i) {
    ingest(batch, i);
    if (!tracing) continue;
    std::uint64_t key = obs::trace_key(batch.timestamps()[i], batch.src_ips()[i],
                                       batch.dst_ips()[i], batch.src_ports()[i]);
    if (tracer_->sampled(key)) {
      tracer_->span(key, "streaming.ingest", now, now,
                    "pairs=" + std::to_string(pairs_.size()));
    }
  }
}

void StreamingPipeline::ingest(const agent::RecordColumns& batch, std::size_t i) {
  auto src = topo_->find_server_by_ip(batch.src_ip(i));
  auto dst = topo_->find_server_by_ip(batch.dst_ip(i));
  if (!src || !dst) {
    ++ledger_.skipped;
    return;
  }
  PodId src_pod = topo_->server(*src).pod;
  PodId dst_pod = topo_->server(*dst).pod;

  // Warm-up, a pair's first record: the only allocation on the ingest path.
  auto [it, fresh] = pairs_.try_emplace(key(src_pod, dst_pod));
  PairState& pair = it->second;
  if (fresh) {
    pair.src = src_pod;
    pair.dst = dst_pod;
    pair.scope = pair_scope(src_pod, dst_pod);
  }

  SimTime ts = std::max<SimTime>(batch.timestamp(i), 0);
  SimTime window_start = ts - ts % kSubWindow;
  auto idx = static_cast<std::size_t>((ts / kSubWindow) % kSubWindows);
  PINGMESH_DCHECK(window_start >= 0 && window_start % kSubWindow == 0);
  SubWindow& sub = pair.ring[idx];
  if (sub.start != window_start) {
    if (sub.start != kUnset && sub.start > window_start) {
      // The slot already advanced past this record's window: older than the
      // retained horizon, drop rather than pollute a newer sub-window.
      ++ledger_.late;
      return;
    }
    // Recycling a previously-filled slot is the moment its old sub-window
    // leaves the retained horizon.
    if (sub.start != kUnset) ++ledger_.expiries;
    sub.start = window_start;
    sub.stats.clear();
  }

  ++ledger_.ingested;
  pair.last_probe = std::max(pair.last_probe, ts);
  if (batch.success(i)) pair.last_success = std::max(pair.last_success, ts);
  // The batch jobs' classification: retransmit artifacts count as drop
  // signatures, never as latency samples.
  sub.stats.add(batch.success(i), batch.rtt(i));
}

std::optional<agent::WindowStats> StreamingPipeline::query(PodId src, PodId dst,
                                                           SimTime now) const {
  auto it = pairs_.find(key(src, dst));
  if (it == pairs_.end()) return std::nullopt;
  const SimTime from = horizon_start(now);
  scratch_.clear();
  for (const SubWindow& sub : it->second.ring) {
    if (live(sub, from)) scratch_.merge(sub.stats);
  }
  return agent::WindowStats::of(scratch_, from, from + kSubWindow * kSubWindows);
}

std::string StreamingPipeline::pair_scope(PodId src, PodId dst) const {
  auto name = [this](PodId p) {
    if (p.value < topo_->pods().size()) return topo_->sw(topo_->pod(p).tor).name;
    return '#' + std::to_string(p.value);
  };
  return "pair " + name(src) + "->" + name(dst);
}

bool StreamingPipeline::step_rule(PairState& pair, Rule rule, bool breach, SimTime now) {
  if (breach) {
    pair.clean_streak[rule] = 0;
    if (++pair.breach_streak[rule] < kOpenAfter || pair.open[rule]) return false;
    pair.open[rule] = db_->open_alert(pair.scope, kRuleNames[rule], now);
    return pair.open[rule];
  }
  pair.breach_streak[rule] = 0;
  if (++pair.clean_streak[rule] >= kCloseAfter && pair.open[rule]) {
    pair.open[rule] = false;
    if (db_->close_alert(pair.scope, kRuleNames[rule])) ++ledger_.closed;
  }
  return false;
}

void StreamingPipeline::write_alert(const PairState& pair, Rule rule,
                                    dsa::AlertSeverity severity, double value,
                                    std::string message, SimTime now) {
  dsa::AlertRow a;
  a.time = now;
  a.severity = severity;
  a.rule = kRuleNames[rule];
  a.scope = pair.scope;
  a.src_pod = pair.src;
  a.dst_pod = pair.dst;
  a.value = value;
  a.message = std::move(message);
  db_->alerts.push_back(std::move(a));
  ++ledger_.opened;
}

int StreamingPipeline::tick(SimTime now) {
  ++ledger_.evaluations;
  const std::uint64_t opened_before = ledger_.opened;
  const SimTime from = horizon_start(now);
  for (auto& [k, pair] : pairs_) {
    // The rules read the live horizon's counters; its sketches are merged
    // below only when the latency rule needs the median.
    agent::ProbeCounts s;
    for (const SubWindow& sub : pair.ring) {
      if (live(sub, from)) s.merge(sub.stats);
    }
    if (s.probes < kMinProbes) continue;

    // Silent pair: probes flowing, no connect landing for kSilentAfter
    // (blackhole shape). Lifetime last-success, not the windowed success
    // count: detection must not wait for pre-fault successes to age out of
    // the ring (that alone would cost the whole horizon). And the silence
    // must be in the data: a failed probe measured after the last success
    // has arrived. Records land one upload at a time, so a healthy pair
    // whose newest record is a success only looks quiet until the next
    // upload, and an upload interval above kSilentAfter would page on it.
    const bool never_ok = pair.last_success == kUnset;
    bool silent = s.probes >= kSilentMinProbes &&
                  (never_ok || (pair.last_probe > pair.last_success &&
                                now - pair.last_success >= kSilentAfter));
    if (step_rule(pair, kSilentPair, silent, now)) {
      write_alert(pair, kSilentPair, dsa::AlertSeverity::kCritical, s.failure_rate(),
                  "no successful probe since " +
                      (never_ok ? std::string("boot")
                                : std::to_string(to_seconds(pair.last_success)) + "s") +
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
    if (step_rule(pair, kFailRate, fail_rate, now)) {
      write_alert(pair, kFailRate, dsa::AlertSeverity::kCritical, s.failure_rate(),
                  "connect failure rate " + format_rate(s.failure_rate()) + " (" +
                      std::to_string(s.failures) + "/" + std::to_string(s.probes) +
                      " probes) over live window",
                  now);
    }

    // Drop-signature spike (§4.2 estimator, PA-style signature floor).
    bool drop_spike = s.drop_signatures() >= agent::kMinDropSignatures &&
                      s.drop_rate() > agent::kAlertDropRate;
    if (step_rule(pair, kDropSpike, drop_spike, now)) {
      write_alert(pair, kDropSpike, dsa::AlertSeverity::kCritical, s.drop_rate(),
                  "drop rate " + format_rate(s.drop_rate()) + " over live window", now);
    }

    // Latency boost: windowed *median* vs EWMA baseline. The median, not
    // the tail — a sub-minute pair window holds tens of samples, so its P99
    // is the max sample and routine queueing spikes would page constantly.
    // Only clean samples carry latency.
    std::uint64_t clean = s.successes - std::min(s.successes, s.drop_signatures());
    if (clean == 0) continue;
    scratch_.clear();
    for (const SubWindow& sub : pair.ring) {
      if (live(sub, from)) scratch_.merge(sub.stats);
    }
    const std::int64_t p50 = scratch_.latency.p50();
    if (p50 <= 0) continue;
    bool boost = pair.baseline_init &&
                 static_cast<double>(p50) > kLatencyBoostFactor * pair.p50_baseline &&
                 p50 > kLatencyAbsFloor;
    if (step_rule(pair, kLatencyBoost, boost, now)) {
      write_alert(pair, kLatencyBoost, dsa::AlertSeverity::kWarning,
                  static_cast<double>(p50),
                  "P50 " + format_latency_ns(p50) + " vs baseline " +
                      format_latency_ns(static_cast<std::int64_t>(pair.p50_baseline)),
                  now);
    }
    // Baseline learns only from non-breaching windows: an incident must
    // not absorb itself into its own baseline.
    if (!boost) {
      if (!pair.baseline_init) {
        pair.p50_baseline = static_cast<double>(p50);
        pair.baseline_init = true;
      } else {
        pair.p50_baseline = kEwmaWeight * static_cast<double>(p50) +
                            (1.0 - kEwmaWeight) * pair.p50_baseline;
      }
    }
  }
  return static_cast<int>(ledger_.opened - opened_before);
}

void StreamingPipeline::enable_observability(obs::MetricsRegistry& registry,
                                             const obs::Tracer* tracer) {
  tracer_ = tracer;
  auto gauge = [&registry](const char* name, const std::uint64_t* value) {
    registry.gauge_fn(name, "", [value] { return static_cast<double>(*value); });
  };
  gauge("streaming.records_ingested_total", &ledger_.ingested);
  gauge("streaming.records_skipped_total", &ledger_.skipped);
  gauge("streaming.late_dropped_total", &ledger_.late);
  gauge("streaming.window_expiries_total", &ledger_.expiries);
  gauge("streaming.evaluations_total", &ledger_.evaluations);
  gauge("streaming.alerts_opened_total", &ledger_.opened);
  gauge("streaming.alerts_closed_total", &ledger_.closed);
  registry.gauge_fn("streaming.pair_count", "",
                    [this] { return static_cast<double>(pairs_.size()); });
}

std::size_t StreamingPipeline::memory_bytes() const {
  std::size_t per_pair = sizeof(PairState) + kSubWindows * scratch_.latency.memory_bytes();
  return sizeof(*this) + pairs_.size() * per_pair;
}

}  // namespace pingmesh::streaming
