#include "dsa/jobs.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "agent/counters.h"
#include "common/stats.h"
#include "dsa/scan_cache.h"

namespace pingmesh::dsa {

namespace {

/// GROUP BY key: one probe aggregate per key, iterated in key order (the
/// row order every job writes).
template <class Key>
using Groups = std::map<Key, agent::ProbeStats>;

void emit_sla_rows(const JobContext& ctx, SimTime from, SimTime to, SlaScope scope,
                   const Groups<std::uint32_t>& groups) {
  for (const auto& [scope_id, stats] : groups) {
    SlaRow row;
    row.window_start = from;
    row.window_end = to;
    row.scope = scope;
    row.scope_id = scope_id;
    row.probes = stats.probes;
    row.successes = stats.successes;
    row.failures = stats.failures;
    row.drop_signatures = stats.drop_signatures();
    row.p50_ns = stats.latency.p50();
    row.p99_ns = stats.latency.p99();
    ctx.db->sla_rows.push_back(row);
  }
}

}  // namespace

void run_pod_pair_job(const CosmosStream& stream, const JobContext& ctx, SimTime from,
                      SimTime to) {
  const topo::Topology& topo = *ctx.topo;
  Groups<std::pair<std::uint32_t, std::uint32_t>> groups;  // (src pod, dst pod)
  const agent::RecordColumns rows = scope::extract_records(stream, from, to, *ctx.scan_cache);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto src = topo.find_server_by_ip(rows.src_ip(i));
    auto dst = topo.find_server_by_ip(rows.dst_ip(i));
    if (!src || !dst) continue;
    groups[{topo.server(*src).pod.value, topo.server(*dst).pod.value}].add(rows.success(i),
                                                                           rows.rtt(i));
  }
  for (const auto& [key, stats] : groups) {
    PodPairStatRow row;
    row.window_start = from;
    row.window_end = to;
    row.src_pod = PodId{key.first};
    row.dst_pod = PodId{key.second};
    row.probes = stats.probes;
    row.successes = stats.successes;
    row.failures = stats.failures;
    row.drop_signatures = stats.drop_signatures();
    row.p50_ns = stats.latency.p50();
    row.p99_ns = stats.latency.p99();
    ctx.db->pod_pair_stats.push_back(row);
  }
}

void run_sla_job(const CosmosStream& stream, const JobContext& ctx, SimTime from,
                 SimTime to, bool include_server_rows) {
  const topo::Topology& topo = *ctx.topo;
  // Per-service SLA: a record contributes to every service its source
  // server belongs to ("mapping the services and applications to the
  // servers they use", §1). Services per server, ascending, built once.
  std::vector<std::vector<std::uint32_t>> services_of(topo.server_count());
  if (ctx.services != nullptr) {
    for (std::uint32_t svc = 0; svc < ctx.services->service_count(); ++svc) {
      for (ServerId s : ctx.services->servers(ServiceId{svc})) {
        std::vector<std::uint32_t>& of = services_of[s.value];
        if (of.empty() || of.back() != svc) of.push_back(svc);
      }
    }
  }

  // SLA is attributed to the probing (source) server's scope: every server
  // measures its own view of the network.
  Groups<std::uint32_t> pods, podsets, dcs, servers, services;
  const agent::RecordColumns rows = scope::extract_records(stream, from, to, *ctx.scan_cache);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto src = topo.find_server_by_ip(rows.src_ip(i));
    if (!src) continue;
    const topo::Server& s = topo.server(*src);
    const bool success = rows.success(i);
    const SimTime rtt = rows.rtt(i);
    pods[s.pod.value].add(success, rtt);
    podsets[s.podset.value].add(success, rtt);
    dcs[s.dc.value].add(success, rtt);
    if (include_server_rows) servers[src->value].add(success, rtt);
    for (std::uint32_t svc : services_of[src->value]) services[svc].add(success, rtt);
  }
  emit_sla_rows(ctx, from, to, SlaScope::kPod, pods);
  emit_sla_rows(ctx, from, to, SlaScope::kPodset, podsets);
  emit_sla_rows(ctx, from, to, SlaScope::kDc, dcs);
  emit_sla_rows(ctx, from, to, SlaScope::kServer, servers);
  emit_sla_rows(ctx, from, to, SlaScope::kService, services);
}

void run_dc_drop_job(const JobContext& ctx, SimTime from, SimTime to) {
  const topo::Topology& topo = *ctx.topo;
  // Summed row counters; PodPairStatRow::drop_rate() is the §4.2 estimate.
  struct DcAcc {
    PodPairStatRow intra;
    PodPairStatRow inter;
  };
  std::vector<DcAcc> acc(topo.dcs().size());
  for (const PodPairStatRow& r : ctx.db->pod_pair_stats) {
    if (r.window_start < from || r.window_start >= to) continue;
    const topo::Pod& src = topo.pod(r.src_pod);
    if (src.dc != topo.pod(r.dst_pod).dc) continue;  // Table 1 is intra-DC only
    PodPairStatRow& sum = r.src_pod == r.dst_pod ? acc[src.dc.value].intra
                                                 : acc[src.dc.value].inter;
    sum.probes += r.probes;
    sum.successes += r.successes;
    sum.failures += r.failures;
    sum.drop_signatures += r.drop_signatures;
  }
  for (std::size_t dc = 0; dc < acc.size(); ++dc) {
    const PodPairStatRow& intra = acc[dc].intra;
    const PodPairStatRow& inter = acc[dc].inter;
    if (intra.probes == 0 && inter.probes == 0) continue;
    DcDropRow row;
    row.window_start = from;
    row.window_end = to;
    row.dc = DcId{static_cast<std::uint32_t>(dc)};
    row.intra_pod_drop_rate = intra.drop_rate();
    row.inter_pod_drop_rate = inter.drop_rate();
    row.intra_pod_probes = intra.probes;
    row.inter_pod_probes = inter.probes;
    ctx.db->dc_drop_rows.push_back(row);
  }
}

int evaluate_sla_alerts(const JobContext& ctx, const std::vector<SlaRow>& fresh_rows,
                        const AlertThresholds& thresholds, SimTime now) {
  int fired = 0;
  for (const SlaRow& row : fresh_rows) {
    if (row.probes < thresholds.min_probes) continue;
    std::string scope_desc = std::string(sla_scope_name(row.scope)) + " #" +
                             std::to_string(row.scope_id);
    if (row.drop_rate() > thresholds.drop_rate) {
      AlertRow a;
      a.time = now;
      a.severity = AlertSeverity::kCritical;
      a.rule = "drop_rate>" + format_rate(thresholds.drop_rate);
      a.scope = scope_desc;
      a.value = row.drop_rate();
      a.message = "packet drop rate " + format_rate(row.drop_rate()) + " exceeds SLA";
      ctx.db->alerts.push_back(std::move(a));
      ++fired;
    }
    if (row.p99_ns > thresholds.p99) {
      AlertRow a;
      a.time = now;
      a.severity = AlertSeverity::kWarning;
      a.rule = "p99>" + format_latency_ns(thresholds.p99);
      a.scope = scope_desc;
      a.value = static_cast<double>(row.p99_ns);
      a.message = "P99 latency " + format_latency_ns(row.p99_ns) + " exceeds SLA";
      ctx.db->alerts.push_back(std::move(a));
      ++fired;
    }
  }
  return fired;
}

void JobManager::register_job(std::string name, SimTime period, JobFn fn) {
  if (period <= 0) throw std::invalid_argument("job period must be positive");
  Job j;
  j.stats.name = std::move(name);
  j.stats.period = period;
  j.fn = std::move(fn);
  j.next_window_start = 0;
  jobs_.push_back(std::move(j));
  if (registry_ != nullptr) attach_instruments(jobs_.back());
}

void JobManager::attach_instruments(Job& j) {
  std::string label = "job=" + j.stats.name;
  j.runs_counter = &registry_->counter("dsa.job_runs_total", label);
  j.delay_gauge = &registry_->gauge("dsa.job_e2e_delay_seconds", label);
}

void JobManager::enable_observability(obs::MetricsRegistry& registry,
                                      const obs::Tracer* tracer) {
  registry_ = &registry;
  tracer_ = tracer;
  for (Job& j : jobs_) attach_instruments(j);
}

void JobManager::register_standard_jobs(const CosmosStream& stream, const JobContext& ctx,
                                        const AlertThresholds& thresholds,
                                        bool server_sla_rows) {
  const CosmosStream* s = &stream;
  JobContext c = ctx;
  register_job("pod-pair-10min", minutes(10), [s, c, thresholds](SimTime from, SimTime to) {
    run_pod_pair_job(*s, c, from, to);
    // Near-real-time alerting on pod scope straight from the 10-min rows is
    // done by the caller via evaluate_sla_alerts when needed.
  });
  register_job("sla-1h", hours(1), [s, c, thresholds, server_sla_rows](SimTime from,
                                                                       SimTime to) {
    std::size_t before = c.db->sla_rows.size();
    run_sla_job(*s, c, from, to, server_sla_rows);
    std::vector<SlaRow> fresh(c.db->sla_rows.begin() + static_cast<std::ptrdiff_t>(before),
                              c.db->sla_rows.end());
    evaluate_sla_alerts(c, fresh, thresholds, to);
  });
  // Registered after the pod-pair job, so the day's last 10-min window is
  // written on the tick the daily job sums the day.
  register_job("dc-drop-1d", days(1),
               [c](SimTime from, SimTime to) { run_dc_drop_job(c, from, to); });
}

void JobManager::on_tick(SimTime now) {
  for (Job& j : jobs_) {
    // A window [W, W+period) is processed once `now` passes
    // W + period + ingestion_delay. Catch up on multiple windows if the
    // tick cadence is coarse.
    while (now >= j.next_window_start + j.stats.period + ingestion_delay_) {
      SimTime from = j.next_window_start;
      SimTime to = from + j.stats.period;
      j.fn(from, to);
      ++j.stats.runs;
      j.stats.last_window_start = from;
      j.stats.last_fire_time = now;
      j.next_window_start = to;
      if (j.runs_counter != nullptr) {
        j.runs_counter->inc();
        j.delay_gauge->set(static_cast<double>(j.stats.last_e2e_delay()) /
                           static_cast<double>(kNanosPerSecond));
      }
      if (tracer_ != nullptr && tracer_->enabled()) {
        // Infra span (trace id 0): one per job run, spanning its window.
        tracer_->span(0, "dsa.job", from, now,
                      "job=" + j.stats.name + ";window_end=" + std::to_string(to));
      }
    }
  }
}

std::vector<JobManager::JobStats> JobManager::stats() const {
  std::vector<JobStats> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) out.push_back(j.stats);
  return out;
}

}  // namespace pingmesh::dsa
