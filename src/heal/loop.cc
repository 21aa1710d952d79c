#include "heal/loop.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "obs/observability.h"
#include "streaming/pipeline.h"

namespace pingmesh::heal {

namespace {

/// Record window handed to the batch localizers at corroboration time.
constexpr SimTime kCorroborateLookback = minutes(5);
/// A trigger not corroborated within this window expires with no action
/// (the transient-congestion path).
constexpr SimTime kCorroborateDeadline = minutes(10);
/// A repaired switch re-corroborating after this cooldown escalates from
/// reload to isolate+RMA (the reload did not fix it).
constexpr SimTime kReloadCooldown = minutes(4);
/// A black-hole candidate is only actionable while its pod's pairs are
/// still failing within this much of "now": the corroboration lookback can
/// span a fault that already cleared (e.g. a crashed server that came
/// back), and acting on stale evidence reloads healthy gear.
constexpr SimTime kSymptomRecency = seconds(60);
/// Minimum failed probes in the recency window to call a symptom current.
constexpr int kMinRecentFailures = 2;
/// Post-recovery SLA window: success rate over the incident's pairs in
/// [recover, recover + window), compared against the pre-repair rate.
constexpr SimTime kSlaPostWindow = minutes(4);

bool blackhole_shaped(const std::string& rule) {
  return rule == streaming::kSilentPairRule || rule == streaming::kFailRateRule;
}

std::string format_rate2(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", r);
  return buf;
}

}  // namespace

const char* incident_state_name(IncidentState s) {
  switch (s) {
    case IncidentState::kCorroborated: return "corroborated";
    case IncidentState::kRepaired: return "repaired";
    case IncidentState::kRecovered: return "recovered";
    case IncidentState::kEscalated: return "escalated";
    case IncidentState::kExpired: return "expired";
  }
  return "?";
}

const char* incident_action_name(IncidentAction a) {
  switch (a) {
    case IncidentAction::kNone: return "none";
    case IncidentAction::kReload: return "reload";
    case IncidentAction::kIsolateRma: return "isolate-rma";
    case IncidentAction::kEscalate: return "escalate";
  }
  return "?";
}

std::string Incident::to_line() const {
  std::string out = "incident " + std::to_string(id);
  out += " state=" + std::string(incident_state_name(state));
  out += " action=" + std::string(incident_action_name(action));
  out += " switch=" + (sw.valid() ? std::to_string(sw.value) : std::string("-"));
  out += " detect=" + std::to_string(detect) + "ns";
  out += " corroborate=" + std::to_string(corroborate) + "ns";
  out += " repair=" + std::to_string(repair) + "ns";
  out += " recover=" + std::to_string(recover) + "ns";
  if (deferred) out += " deferred";
  if (escalated_rma) out += " escalated-rma";
  out += " triggers=" + std::to_string(triggers.size());
  if (sla_before >= 0.0) out += " sla_before=" + format_rate2(sla_before);
  if (sla_after >= 0.0) out += " sla_after=" + format_rate2(sla_after);
  if (!note.empty()) out += " note=" + note;
  return out;
}

HealingLoop::HealingLoop(core::PingmeshSimulation& sim) : sim_(&sim) {}

void HealingLoop::attach() {
  sim_->scheduler().schedule_every(config_.poll_period, [this](SimTime now) {
    tick(now);
    return true;
  });
}

void HealingLoop::tick(SimTime now) {
  drain_alerts(now);
  stamp_deferred_repairs(sim_->repair().retry_deferred(now), now);
  corroborate(now);
  expire_pending(now);
  check_recovery(now);
  finish_sla(now);
}

bool HealingLoop::trigger_absorbed(const std::string& scope, const std::string& rule) const {
  for (const Trigger& p : pending_) {
    if (p.scope == scope && p.rule == rule) return true;
  }
  // An alert row re-opened for a scope already folded into a live incident
  // is the same episode still unfolding, not a new trigger.
  for (const Incident& inc : incidents_) {
    if (inc.state == IncidentState::kRecovered || inc.state == IncidentState::kExpired) {
      continue;
    }
    for (const Trigger& t : inc.triggers) {
      if (t.scope == scope && t.rule == rule) return true;
    }
  }
  return false;
}

void HealingLoop::drain_alerts(SimTime now) {
  (void)now;
  const auto& alerts = sim_->db().alerts;
  obs::Observability* obs = sim_->observability();
  for (; alert_hw_ < alerts.size(); ++alert_hw_) {
    const dsa::AlertRow& row = alerts[alert_hw_];
    if (!blackhole_shaped(row.rule) && row.rule != streaming::kDropSpikeRule) continue;
    if (trigger_absorbed(row.scope, row.rule)) continue;
    pending_.push_back(Trigger{row.scope, row.rule, row.src_pod, row.dst_pod, row.time});
    ++triggers_seen_;
    if (obs != nullptr) obs->metrics().counter("heal.triggers_total").inc();
  }
}

void HealingLoop::stamp_deferred_repairs(const std::vector<SwitchId>& reloaded, SimTime now) {
  obs::Observability* obs = sim_->observability();
  for (SwitchId sw : reloaded) {
    for (Incident& inc : incidents_) {
      if (inc.sw == sw && inc.state == IncidentState::kCorroborated && inc.repair == 0) {
        inc.repair = now;
        inc.state = IncidentState::kRepaired;
        inc.note += inc.note.empty() ? "deferred reload executed" : "; deferred reload executed";
        if (obs != nullptr) obs->metrics().counter("heal.reloads_total").inc();
        break;
      }
    }
  }
}

PodId HealingLoop::pod_of(IpAddr ip) const {
  const topo::Topology& topo = sim_->topology();
  auto server = topo.find_server_by_ip(ip);
  return server ? topo.server(*server).pod : PodId{};
}

double HealingLoop::pair_success_rate(const Incident& inc,
                                      const agent::RecordColumns& records) const {
  std::set<std::uint32_t> pods;
  for (const Trigger& t : inc.triggers) {
    if (t.src.valid() && t.dst.valid()) {
      pods.insert(t.src.value);
      pods.insert(t.dst.value);
    }
  }
  if (pods.empty()) return -1.0;
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PodId src = pod_of(records.src_ip(i));
    const PodId dst = pod_of(records.dst_ip(i));
    bool involved = (src.valid() && pods.contains(src.value)) ||
                    (dst.valid() && pods.contains(dst.value));
    if (!involved) continue;
    ++total;
    if (records.success(i)) ++ok;
  }
  if (total == 0) return -1.0;
  return static_cast<double>(ok) / static_cast<double>(total);
}

bool HealingLoop::symptom_current(PodId pod, const agent::RecordColumns& records,
                                  SimTime now) const {
  SimTime from = now > kSymptomRecency ? now - kSymptomRecency : 0;
  int failures = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records.timestamp(i) < from || records.success(i)) continue;
    bool involved = pod_of(records.src_ip(i)) == pod || pod_of(records.dst_ip(i)) == pod;
    if (involved && ++failures >= kMinRecentFailures) return true;
  }
  return false;
}

Incident& HealingLoop::open_incident(IncidentState state, IncidentAction action,
                                     std::vector<Trigger> matched, SimTime now) {
  Incident inc;
  inc.id = incidents_.size() + 1;
  inc.state = state;
  inc.action = action;
  inc.corroborate = now;
  inc.detect = now;
  for (const Trigger& t : matched) inc.detect = std::min(inc.detect, t.first_seen);
  inc.triggers = std::move(matched);
  incidents_.push_back(std::move(inc));
  obs::Observability* obs = sim_->observability();
  if (obs != nullptr) obs->metrics().counter("heal.incidents_total").inc();
  return incidents_.back();
}

void HealingLoop::corroborate(SimTime now) {
  if (pending_.empty()) return;
  const topo::Topology& topo = sim_->topology();
  obs::Observability* obs = sim_->observability();
  SimTime from = now > kCorroborateLookback ? now - kCorroborateLookback : 0;
  const agent::RecordColumns records = sim_->records_between(from, now);

  bool any_blackhole = false;
  bool any_dropspike = false;
  for (const Trigger& t : pending_) {
    if (blackhole_shaped(t.rule)) any_blackhole = true;
    if (t.rule == streaming::kDropSpikeRule) any_dropspike = true;
  }

  // Consume matched pending triggers; survivors stay for the next tick.
  auto take_matching = [this](auto&& pred) {
    std::vector<Trigger> matched;
    std::vector<Trigger> rest;
    for (Trigger& t : pending_) {
      if (pred(t)) matched.push_back(std::move(t));
      else rest.push_back(std::move(t));
    }
    pending_ = std::move(rest);
    return matched;
  };

  if (any_blackhole) {
    // Full black-holes must stay attributable: victims never succeed but
    // keep uploading failure records over the management plane.
    analysis::BlackholeReport report =
        analysis::detect_blackholes(records, topo, analysis::Liveness::kReporting);

    for (const analysis::TorScore& cand : report.candidates) {
      // The lookback can span a fault that already cleared (a crashed
      // server that came back fills the window with stale failures). Only
      // act while the symptom is current; stale triggers stay pending and
      // expire at the deadline.
      if (!symptom_current(cand.pod, records, now)) continue;
      auto matched = take_matching([&](const Trigger& t) {
        return blackhole_shaped(t.rule) && (t.src == cand.pod || t.dst == cand.pod);
      });
      if (matched.empty()) continue;  // batch candidate without a streaming trigger

      // A switch already reloaded that re-corroborates after the cooldown:
      // the reload did not fix it; escalate to isolate + RMA (§5.1). A
      // recovered incident also stays authoritative while the batch
      // lookback still spans its pre-repair failures — re-blame from those
      // stale records must not open a duplicate incident (and burn a second
      // reload); genuine recurrence re-corroborates once they age out.
      Incident* live = nullptr;
      for (Incident& inc : incidents_) {
        if (inc.sw != cand.tor) continue;
        if (inc.state == IncidentState::kCorroborated ||
            inc.state == IncidentState::kRepaired ||
            (inc.state == IncidentState::kRecovered &&
             now - inc.recover < kCorroborateLookback)) {
          live = &inc;
          break;
        }
      }
      if (live != nullptr) {
        live->triggers.insert(live->triggers.end(), matched.begin(), matched.end());
        if (live->state == IncidentState::kRepaired && live->action == IncidentAction::kReload &&
            !live->escalated_rma && now - live->repair >= kReloadCooldown) {
          sim_->repair().isolate_and_rma(
              cand.tor, "heal: black-hole persists after reload on " + topo.sw(cand.tor).name,
              now);
          live->escalated_rma = true;
          live->action = IncidentAction::kIsolateRma;
          live->repair = now;
          live->note += live->note.empty() ? "reload ineffective, RMA"
                                           : "; reload ineffective, RMA";
          if (obs != nullptr) obs->metrics().counter("heal.rma_total").inc();
        }
        continue;
      }

      Incident& inc = open_incident(IncidentState::kCorroborated, IncidentAction::kReload,
                                    std::move(matched), now);
      inc.sw = cand.tor;
      inc.sla_before = pair_success_rate(inc, records);
      bool executed = sim_->repair().request_reload(
          cand.tor, "heal: black-hole corroborated on " + topo.sw(cand.tor).name, now);
      if (executed) {
        inc.repair = now;
        inc.state = IncidentState::kRepaired;
        if (obs != nullptr) obs->metrics().counter("heal.reloads_total").inc();
      } else {
        inc.deferred = true;
        if (obs != nullptr) obs->metrics().counter("heal.deferred_total").inc();
      }
    }

    // Podset-wide symptom: the fault sits above the ToR layer — notify,
    // never auto-reload. Sorted for a deterministic incident order.
    std::vector<std::uint32_t> escalations;
    for (PodsetId ps : report.escalations) escalations.push_back(ps.value);
    std::sort(escalations.begin(), escalations.end());
    for (std::uint32_t ps : escalations) {
      auto matched = take_matching([&](const Trigger& t) {
        if (!blackhole_shaped(t.rule)) return false;
        bool src_in = t.src.valid() && topo.pod(t.src).podset.value == ps;
        bool dst_in = t.dst.valid() && topo.pod(t.dst).podset.value == ps;
        return src_in || dst_in;
      });
      if (matched.empty()) continue;
      Incident& inc = open_incident(IncidentState::kEscalated, IncidentAction::kEscalate,
                                    std::move(matched), now);
      inc.note = "podset " + std::to_string(ps) + " wide: Leaf/Spine suspected, engineers notified";
      if (obs != nullptr) obs->metrics().counter("heal.escalations_total").inc();
    }
  }

  if (any_dropspike) {
    analysis::SilentDropReport report =
        analysis::localize_silent_drops(records, topo, sim_->net(), now);
    if (report.culprit.valid() && report.culprit_loss >= analysis::kCulpritMinLoss) {
      auto matched = take_matching(
          [&](const Trigger& t) { return t.rule == streaming::kDropSpikeRule; });
      Incident* live = nullptr;
      for (Incident& inc : incidents_) {
        if (inc.sw == report.culprit && inc.action == IncidentAction::kIsolateRma &&
            inc.state != IncidentState::kRecovered) {
          live = &inc;
          break;
        }
      }
      if (live != nullptr) {
        live->triggers.insert(live->triggers.end(), matched.begin(), matched.end());
      } else if (!matched.empty()) {
        Incident& inc = open_incident(IncidentState::kCorroborated, IncidentAction::kIsolateRma,
                                      std::move(matched), now);
        inc.sw = report.culprit;
        inc.sla_before = pair_success_rate(inc, records);
        sim_->repair().isolate_and_rma(
            report.culprit,
            "heal: silent drops pinpointed on " + topo.sw(report.culprit).name +
                " (loss " + format_rate2(report.culprit_loss) + ")",
            now);
        inc.repair = now;
        inc.state = IncidentState::kRepaired;
        if (obs != nullptr) obs->metrics().counter("heal.rma_total").inc();
      }
    }
  }
}

void HealingLoop::expire_pending(SimTime now) {
  std::vector<Trigger> expired;
  std::vector<Trigger> rest;
  for (Trigger& t : pending_) {
    if (now - t.first_seen >= kCorroborateDeadline) expired.push_back(std::move(t));
    else rest.push_back(std::move(t));
  }
  pending_ = std::move(rest);
  if (expired.empty()) return;
  Incident& inc = open_incident(IncidentState::kExpired, IncidentAction::kNone,
                                std::move(expired), now);
  inc.corroborate = 0;
  inc.note = "never corroborated by the batch path: transient, no action";
  obs::Observability* obs = sim_->observability();
  if (obs != nullptr) obs->metrics().counter("heal.expired_total").inc();
}

void HealingLoop::check_recovery(SimTime now) {
  const dsa::Database& db = sim_->db();
  obs::Observability* obs = sim_->observability();
  for (Incident& inc : incidents_) {
    if (inc.state != IncidentState::kRepaired) continue;
    bool all_closed = true;
    for (const Trigger& t : inc.triggers) {
      if (db.alert_open(t.scope, t.rule)) {
        all_closed = false;
        break;
      }
    }
    if (!all_closed) continue;
    inc.recover = now;
    inc.state = IncidentState::kRecovered;
    if (obs != nullptr) obs->metrics().counter("heal.recovered_total").inc();
    record_timeline(inc);
  }
}

void HealingLoop::finish_sla(SimTime now) {
  for (Incident& inc : incidents_) {
    if (inc.state != IncidentState::kRecovered || inc.sla_after >= 0.0) continue;
    if (now < inc.recover + kSlaPostWindow) continue;
    inc.sla_after = pair_success_rate(
        inc, sim_->records_between(inc.recover, inc.recover + kSlaPostWindow));
  }
}

void HealingLoop::record_timeline(const Incident& inc) {
  obs::Observability* obs = sim_->observability();
  if (obs == nullptr || !obs->tracer().enabled()) return;
  std::string note = std::string(incident_action_name(inc.action)) +
                     (inc.sw.valid() ? " sw " + std::to_string(inc.sw.value) : "");
  SimTime corroborate = inc.corroborate > 0 ? inc.corroborate : inc.detect;
  obs->tracer().span(inc.id, "heal.detect", inc.detect, corroborate, note);
  if (inc.repair > 0) {
    obs->tracer().span(inc.id, "heal.repair", corroborate, inc.repair, note);
    if (inc.recover > 0) {
      obs->tracer().span(inc.id, "heal.recover", inc.repair, inc.recover, note);
    }
  }
}

}  // namespace pingmesh::heal
