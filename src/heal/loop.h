// HealingLoop — the closed loop of paper §5.1, wired end to end:
//
//   streaming detection -> batch corroboration -> blame -> repair -> verify
//
// The StreamingPipeline's rules (the streaming fast path) open `stream:*`
// alerts within tens of seconds of a fault; the loop treats each as a
// *trigger*, never as blame. A streaming alert row names its pod pair, and
// the trigger keeps that pair to match against the localizers' blame.
// Before any repair fires, the trigger must be corroborated by the
// batch-path localizer over raw records — detect_blackholes' greedy
// set-cover for black-hole-shaped triggers (silent_pair / fail_rate),
// localize_silent_drops' traceroute pinpointing for drop-rate spikes. Only a
// corroborated, switch-attributed blame reaches the RepairService:
//
//   - ToR black-hole candidate  -> budgeted reload (clears TCAM/ECMP);
//   - spine silent-drop culprit -> isolate + RMA (reload cannot fix it);
//   - podset-wide escalation    -> humans notified, NO automatic repair;
//   - trigger never corroborated within the deadline (transient congestion,
//     noise) -> expires with no action.
//
// A reload that does not stick — the same switch re-corroborates after a
// cooldown — escalates to isolate + RMA, matching the paper's observation
// that some faults "cannot be fixed by switch reload".
//
// Every incident carries a timeline (detect -> corroborate -> repair ->
// recover) recorded against virtual time; recovery is declared when every
// triggering streaming alert has closed again. The soak harness
// (heal/soak.h) joins these timelines against the injected chaos plan to
// compute MTTD/MTTR and false-repair counts.
//
// Threading/determinism: the loop runs entirely on the driver thread as a
// recurring scheduler event, reads only committed state (database alert
// rows, scannable records), and iterates vectors in insertion order — its
// incident log is byte-stable at any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/blackhole.h"
#include "analysis/silentdrop.h"
#include "common/types.h"
#include "core/simulation.h"

namespace pingmesh::heal {

struct HealConfig {
  /// Loop cadence (alert drain + corroboration + recovery checks).
  SimTime poll_period = seconds(30);
};

enum class IncidentState : std::uint8_t {
  kCorroborated,  ///< blame confirmed; repair requested (may be deferred)
  kRepaired,      ///< repair executed, waiting for alerts to close
  kRecovered,     ///< every triggering alert closed after repair
  kEscalated,     ///< podset-wide symptom: humans notified, no auto repair
  kExpired,       ///< trigger never corroborated: deliberate no-action
};

enum class IncidentAction : std::uint8_t { kNone, kReload, kIsolateRma, kEscalate };

const char* incident_state_name(IncidentState s);
const char* incident_action_name(IncidentAction a);

/// A streaming alert the loop acts on: its open-alert key (scope, rule),
/// the pod pair the row names, and when it opened.
struct Trigger {
  std::string scope;
  std::string rule;
  PodId src;
  PodId dst;
  SimTime first_seen = 0;
};

/// One closed-loop episode: from first streaming trigger to recovery (or to
/// a deliberate non-action). Times are 0 when the stage was not reached.
struct Incident {
  std::uint64_t id = 0;  ///< 1-based, in creation order
  SwitchId sw;           ///< blamed switch; invalid for escalate/expire
  IncidentState state = IncidentState::kCorroborated;
  IncidentAction action = IncidentAction::kNone;
  SimTime detect = 0;       ///< earliest triggering alert open time
  SimTime corroborate = 0;  ///< batch localizer confirmed the blame
  SimTime repair = 0;       ///< repair executed (not merely requested)
  SimTime recover = 0;      ///< all triggering alerts closed
  bool deferred = false;    ///< repair waited on the daily reload budget
  bool escalated_rma = false;  ///< reload did not stick; escalated to RMA
  /// Every streaming alert folded into this incident.
  std::vector<Trigger> triggers;
  std::string note;
  double sla_before = -1.0;  ///< pair success rate in the corroboration window
  double sla_after = -1.0;   ///< pair success rate in the post-recovery window

  [[nodiscard]] std::string to_line() const;  ///< deterministic one-line form
};

class HealingLoop {
 public:
  /// Binds to `sim` (which must outlive the loop). Call attach() before
  /// run_for to install the recurring tick, or drive tick() manually.
  explicit HealingLoop(core::PingmeshSimulation& sim);

  void attach();
  void tick(SimTime now);

  [[nodiscard]] const std::vector<Incident>& incidents() const { return incidents_; }
  [[nodiscard]] std::uint64_t triggers_seen() const { return triggers_seen_; }
  [[nodiscard]] std::size_t pending_triggers() const { return pending_.size(); }
  [[nodiscard]] const HealConfig& config() const { return config_; }

 private:
  void drain_alerts(SimTime now);
  void stamp_deferred_repairs(const std::vector<SwitchId>& reloaded, SimTime now);
  void corroborate(SimTime now);
  void expire_pending(SimTime now);
  void check_recovery(SimTime now);
  void finish_sla(SimTime now);

  [[nodiscard]] bool trigger_absorbed(const std::string& scope, const std::string& rule) const;
  /// Success rate of the probes in `records` touching the incident's pods;
  /// -1 when there are none.
  [[nodiscard]] double pair_success_rate(const Incident& inc,
                                         const agent::RecordColumns& records) const;
  [[nodiscard]] bool symptom_current(PodId pod, const agent::RecordColumns& records,
                                     SimTime now) const;
  /// Pod of the server owning `ip`; invalid for an unknown address.
  [[nodiscard]] PodId pod_of(IpAddr ip) const;
  Incident& open_incident(IncidentState state, IncidentAction action,
                          std::vector<Trigger> matched, SimTime now);
  void record_timeline(const Incident& inc);

  core::PingmeshSimulation* sim_;
  HealConfig config_;
  std::size_t alert_hw_ = 0;  ///< high-water mark into db().alerts
  std::vector<Trigger> pending_;
  std::vector<Incident> incidents_;
  std::uint64_t triggers_seen_ = 0;
};

}  // namespace pingmesh::heal
