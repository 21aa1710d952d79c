#include "agent/agent.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace pingmesh::agent {

PingmeshAgent::PingmeshAgent(std::string server_name, IpAddr server_ip,
                             AgentConfig config, Uploader& uploader)
    : name_(std::move(server_name)),
      ip_(server_ip),
      config_(std::move(config)),
      uploader_(&uploader),
      local_log_(config_.local_log_path, kLocalLogMaxBytes),
      counters_(0) {}

std::uint16_t PingmeshAgent::next_src_port() {
  // Ephemeral range sweep; a fresh port per probe re-rolls every ECMP choice.
  if (ephemeral_port_ < 32768 || ephemeral_port_ >= 60999) ephemeral_port_ = 32768;
  return ephemeral_port_++;
}

void PingmeshAgent::adopt_pinglist(const controller::Pinglist& pl, SimTime now) {
  pinglist_version_ = pl.version;
  targets_.clear();
  targets_.reserve(pl.targets.size());
  for (controller::PingTarget t : pl.targets) {
    // Safety clamps — enforced here regardless of what the controller says.
    t.interval = std::max({t.interval, pl.min_probe_interval, kHardMinProbeInterval});
    t.payload_bytes = std::min(t.payload_bytes, kHardMaxPayloadBytes);
    TargetState ts;
    ts.target = t;
    // Stagger first probes across the interval so a fleet restart does not
    // synchronize its probe bursts.
    std::uint64_t h = mix64((static_cast<std::uint64_t>(t.ip.v) << 16) ^ t.port ^ ip_.v);
    ts.next_due = now + static_cast<SimTime>(h % static_cast<std::uint64_t>(t.interval));
    targets_.push_back(ts);
  }
  probing_active_ = true;
}

void PingmeshAgent::enable_observability(obs::MetricsRegistry& registry,
                                         const obs::Tracer* tracer) {
  hooks_.probes_ok = &registry.counter("agent.probes_total", "result=ok");
  hooks_.probes_failed = &registry.counter("agent.probes_total", "result=fail");
  hooks_.fetches_ok = &registry.counter("agent.pinglist_fetches_total", "result=ok");
  hooks_.fetches_none = &registry.counter("agent.pinglist_fetches_total", "result=none");
  hooks_.fetches_unreachable =
      &registry.counter("agent.pinglist_fetches_total", "result=unreachable");
  hooks_.uploads_ok = &registry.counter("agent.uploads_total", "result=ok");
  hooks_.uploads_failed = &registry.counter("agent.uploads_total", "result=fail");
  hooks_.records_uploaded = &registry.counter("agent.records_uploaded_total");
  hooks_.records_shed = &registry.counter("agent.records_shed_total");
  hooks_.records_discarded = &registry.counter("agent.records_discarded_total");
  hooks_.retry_exhausted = &registry.counter("agent.upload_retry_exhausted_total");
  hooks_.fail_closed = &registry.counter("agent.fail_closed_total");
  hooks_.log_records = &registry.counter("agent.local_log_records_total");
  hooks_.log_dup_avoided = &registry.counter("agent.local_log_dup_avoided_total");
  // Count-valued histograms: unit-1 floor, range wide enough for the
  // buffer cap.
  LatencySketch::Config counts;
  counts.min_value_ns = 1;
  counts.max_value_ns = 1'000'000;
  hooks_.upload_batch = &registry.histogram("agent.upload_batch_records", "", counts);
  hooks_.buffer_occupancy = &registry.histogram("agent.buffer_occupancy", "", counts);
  tracer_ = tracer;
}

void PingmeshAgent::fail_closed() {
  // "the Pingmesh Agent will remove all its existing ping peers and stop
  // all its ping activities. (It will still react to pings though.)"
  if (probing_active_ && hooks_.fail_closed != nullptr) hooks_.fail_closed->inc();
  targets_.clear();
  probing_active_ = false;
}

PingmeshAgent::TickActions PingmeshAgent::tick(SimTime now) {
  TickActions actions;
  tick(now, actions);
  return actions;
}

void PingmeshAgent::tick(SimTime now, TickActions& out) {
  out.fetch_pinglist = false;
  out.probes.clear();

  if (!fetch_outstanding_ && now >= next_fetch_) {
    out.fetch_pinglist = true;
    fetch_outstanding_ = true;
  }

  if (probing_active_) {
    for (TargetState& ts : targets_) {
      if (now < ts.next_due) continue;
      ProbeRequest req;
      req.target = ts.target;
      req.src_port = next_src_port();
      out.probes.push_back(req);
      ++probes_launched_;
      ts.next_due = now + ts.target.interval;
    }
  }

  maybe_upload(now, /*force=*/false);
}

void PingmeshAgent::on_pinglist(const controller::FetchResult& result, SimTime now) {
  fetch_outstanding_ = false;
  next_fetch_ = now + config_.pinglist_refresh;
  switch (result.status) {
    case controller::FetchStatus::kOk:
      if (hooks_.fetches_ok != nullptr) hooks_.fetches_ok->inc();
      fetch_failures_ = 0;
      if (result.pinglist) {
        adopt_pinglist(*result.pinglist, now);
      } else {
        fail_closed();  // protocol violation: treat as no pinglist
      }
      return;
    case controller::FetchStatus::kNoPinglist:
      // Controller is up but serves no file: stop immediately. This is the
      // operator's remote kill switch.
      if (hooks_.fetches_none != nullptr) hooks_.fetches_none->inc();
      fetch_failures_ = 0;
      fail_closed();
      return;
    case controller::FetchStatus::kUnreachable:
      if (hooks_.fetches_unreachable != nullptr) hooks_.fetches_unreachable->inc();
      if (++fetch_failures_ >= config_.controller_failure_threshold) fail_closed();
      // Latched safety witness: if the agent is still probing after this
      // missed fetch was fully handled, record how deep the failure streak
      // ran. The chaos invariant checker asserts this never reaches 3.
      if (probing_active_) {
        peak_fetch_failures_while_probing_ =
            std::max(peak_fetch_failures_while_probing_, fetch_failures_);
      }
      return;
  }
}

void PingmeshAgent::on_probe_result(const ProbeRequest& request, const ProbeResult& result,
                                    SimTime now) {
  LatencyRecord rec;
  rec.timestamp = std::max<SimTime>(0, now + clock_skew_);
  rec.src_ip = ip_;
  rec.dst_ip = request.target.ip;
  rec.src_port = request.src_port;
  rec.dst_port = request.target.port;
  rec.kind = request.target.kind;
  rec.qos = request.target.qos;
  rec.success = result.success;
  rec.rtt = result.rtt;
  rec.payload_success = result.payload_success;
  rec.payload_rtt = result.payload_rtt;
  rec.payload_bytes = request.target.payload_bytes;

  counters_.record_probe(result.success, result.rtt);
  if (hooks_.probes_ok != nullptr) {
    (result.success ? hooks_.probes_ok : hooks_.probes_failed)->inc();
  }

  if (buffer_.size() >= config_.max_buffered_records) {
    // Bounded memory: shed the oldest record rather than grow.
    buffer_.drop_front(1);
    ++records_discarded_;
    if (hooks_.records_shed != nullptr) hooks_.records_shed->inc();
  }
  buffer_.push_back(rec);
  ++buffered_total_;
  if (hooks_.buffer_occupancy != nullptr) {
    hooks_.buffer_occupancy->observe(static_cast<std::int64_t>(buffer_.size()));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    std::uint64_t key = obs::trace_key(rec.timestamp, rec.src_ip.v, rec.dst_ip.v,
                                       rec.src_port);
    if (tracer_->sampled(key)) {
      tracer_->span(key, "agent.probe", now, now + result.rtt,
                    std::string("success=") + (result.success ? "1" : "0") +
                        ";rtt=" + std::to_string(result.rtt));
      tracer_->span(key, "agent.buffer", now, now,
                    "occupancy=" + std::to_string(buffer_.size()));
    }
  }
  PINGMESH_DCHECK(buffer_.size() <= config_.max_buffered_records);
  maybe_upload(now, /*force=*/false);
}

void PingmeshAgent::maybe_upload(SimTime now, bool force) {
  if (!upload_timer_armed_) {
    next_upload_ = now + config_.upload_interval;
    upload_timer_armed_ = true;
  }
  bool batch_full = buffer_.size() >= config_.upload_batch_records;
  bool timer_due = now >= next_upload_ && !buffer_.empty();
  if (!force && !batch_full && !timer_due) return;
  if (defer_uploads_) {
    // The trigger fired, but the actual upload waits for the driver's
    // serial phase (service_uploads) so the Uploader is never entered from
    // a worker thread.
    upload_pending_ = true;
    return;
  }
  perform_upload(now);
}

void PingmeshAgent::service_uploads(SimTime now) {
  if (!upload_pending_) return;
  upload_pending_ = false;
  perform_upload(now);
}

void PingmeshAgent::perform_upload(SimTime now) {
  if (buffer_.empty()) {
    next_upload_ = now + config_.upload_interval;
    return;
  }

  const std::size_t batch_size = buffer_.size();

  // Local log: each record is appended exactly once, however many upload
  // attempts it rides. The buffer's records occupy the sequence range
  // [buffered_total_ - buffer_.size(), buffered_total_); everything below
  // logged_total_ already hit the log on an earlier (failed) attempt.
  std::uint64_t base = buffered_total_ - buffer_.size();
  std::uint64_t already = std::max(logged_total_, base) - base;
  if (local_log_.enabled()) {
    if (already < batch_size) {
      std::uint64_t fresh = batch_size - already;
      local_log_.append(buffer_.encode_csv(static_cast<std::size_t>(already)));
      records_logged_ += fresh;
      if (hooks_.log_records != nullptr) hooks_.log_records->inc(fresh);
    }
    if (already > 0) {
      log_dup_avoided_ += already;
      if (hooks_.log_dup_avoided != nullptr) hooks_.log_dup_avoided->inc(already);
    }
  }
  logged_total_ = buffered_total_;

  int attempt = upload_failures_ + 1;
  // The buffer itself is the batch: columnar handoff, no AoS copy.
  bool ok = uploader_->upload(buffer_);
  if (hooks_.upload_batch != nullptr) {
    hooks_.upload_batch->observe(static_cast<std::int64_t>(batch_size));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    std::string note = std::string("result=") + (ok ? "ok" : "fail") +
                       ";attempt=" + std::to_string(attempt) +
                       ";batch=" + std::to_string(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      LatencyRecord r = buffer_.row(i);
      std::uint64_t key = obs::trace_key(r.timestamp, r.src_ip.v, r.dst_ip.v, r.src_port);
      if (tracer_->sampled(key)) tracer_->span(key, "agent.upload", now, now, note);
    }
  }

  if (ok) {
    buffer_.clear();
    upload_failures_ = 0;
    ++uploads_ok_;
    records_uploaded_ += batch_size;
    if (hooks_.uploads_ok != nullptr) {
      hooks_.uploads_ok->inc();
      hooks_.records_uploaded->inc(batch_size);
    }
  } else {
    ++uploads_failed_;
    if (hooks_.uploads_failed != nullptr) hooks_.uploads_failed->inc();
    if (++upload_failures_ > config_.upload_max_retries) {
      // "After that it will stop trying and discard the in-memory data.
      // This is to ensure the Pingmesh Agent uses bounded memory resource."
      records_discarded_ += buffer_.size();
      if (hooks_.records_discarded != nullptr) {
        hooks_.records_discarded->inc(buffer_.size());
        hooks_.retry_exhausted->inc();
      }
      buffer_.clear();
      upload_failures_ = 0;
    }
  }
  // Bounded-retry contract (§3.2): the failure counter never exceeds the
  // configured retry budget, so buffered data cannot be retried forever.
  PINGMESH_DCHECK(upload_failures_ <= config_.upload_max_retries);
  next_upload_ = now + config_.upload_interval;
}

void PingmeshAgent::flush(SimTime now) { maybe_upload(now, /*force=*/true); }

}  // namespace pingmesh::agent
