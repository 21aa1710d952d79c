// Property-based system invariants checked after a chaos run.
//
// Each invariant is a property that must hold for ANY (seed, plan), not an
// expectation about one scripted scenario — the random-plan generator
// exercises them across the whole fault space (DESIGN.md §11):
//
//   record-conservation   every launched probe is uploaded, discarded, or
//                         still buffered — per agent and fleet-wide;
//   cosmos-ledger         appended == live + expired on the latency stream,
//                         and uploads acknowledged to agents all arrived;
//   fail-closed           no agent was ever still probing at its third
//                         consecutive failed pinglist fetch (§3.4.2);
//   streaming-batch       the sliding windows ingested exactly the record
//                         stream the uploads delivered (partitioned into
//                         ingested / skipped / late, nothing lost);
//   blame-localization    a single-switch loss fault shows up worst on pod
//                         pairs under that switch, nowhere else;
//   decode-integrity      the extent scan path decoded every uploaded row;
//                         zero rows dropped unless the plan corrupts
//                         extents deliberately (then not applicable);
//   bounded-buffer        no agent's buffer exceeded its configured cap;
//   rollup-recovery       every restarted query replica rebuilt from the
//                         persisted rollup segments + WAL digest-identical
//                         to the durable writer — at each restart and at
//                         run end — with the rollup conservation ledger
//                         intact and no 503 while a replica was alive;
//   blackhole-repaired    under healing, every injected ToR black-hole that
//                         the loop could plausibly catch (strong enough,
//                         window long enough, detection not masked by an
//                         upload/controller outage) saw a repair executed
//                         on its switch within the repair deadline;
//   corroborated-repair   under healing, no repair ever executed without a
//                         prior batch-corroborated blame on that switch —
//                         streaming alerts alone must never reboot gear.
//
// Checks that don't apply to a given plan (e.g. blame-localization for a
// plan without a lone network fault) report applicable=false rather than a
// vacuous pass, so the report distinguishes "held" from "not exercised".
#pragma once

#include <string>
#include <vector>

#include "chaos/plan.h"
#include "core/simulation.h"
#include "heal/loop.h"

namespace pingmesh::chaos {

struct InvariantFinding {
  std::string name;
  bool ok = true;
  bool applicable = true;
  std::string detail;  ///< human-readable evidence (counts, offending agent)
};

struct InvariantReport {
  std::vector<InvariantFinding> findings;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] const InvariantFinding* find(std::string_view name) const;
  /// Deterministic multi-line rendering (the 1-vs-N-worker identity test
  /// compares these byte-for-byte).
  [[nodiscard]] std::string to_text() const;
};

/// Fleet-wide counter roll-up collected alongside the invariant checks;
/// chaos run results carry one so tests and `pingmeshctl chaos` can print
/// the ledger without re-walking the fleet.
struct FleetTotals {
  std::uint64_t probes_launched = 0;
  std::uint64_t records_uploaded = 0;
  std::uint64_t records_discarded = 0;
  std::uint64_t records_buffered = 0;
  std::uint64_t records_logged = 0;
  std::uint64_t log_dup_avoided = 0;
  std::uint64_t uploads_ok = 0;
  std::uint64_t uploads_failed = 0;
  std::uint64_t cosmos_appended = 0;
  std::uint64_t cosmos_expired = 0;
  std::uint64_t cosmos_live = 0;
  std::uint64_t cosmos_corrupt_records = 0;
  std::size_t slb_backends = 0;
  std::size_t slb_healthy = 0;
  std::uint64_t slb_half_open_trials = 0;
};

[[nodiscard]] FleetTotals collect_totals(const core::PingmeshSimulation& sim);

/// Outcome of the serving-tier harness a chaos run attaches when the plan
/// holds serve-restart events (engine.cc): every restart's recovered
/// digest compared against the durable writer's, final cross-replica
/// digest agreement, the rollup conservation ledger, and front-door
/// availability while at least one replica was alive. Feeds the
/// "rollup-recovery" invariant.
struct ServeChaosOutcome {
  bool ran = false;
  std::size_t restarts = 0;
  std::size_t digest_matches = 0;     ///< restart recovered digest == writer's
  std::size_t digest_mismatches = 0;
  bool final_digests_equal = false;   ///< every live replica == writer at end
  bool conservation_ok = false;       ///< writer + replicas ledger identities
  std::uint64_t queries = 0;          ///< periodic front-door probes issued
  std::uint64_t failed_with_replicas = 0;  ///< 503s while a replica was alive
};

/// Outcome of the healing loop a chaos run attaches when the plan sets
/// `heal on` (engine.cc). Feeds the blackhole-repaired and
/// corroborated-repair invariants and the soak report.
struct HealChaosOutcome {
  bool ran = false;
  std::uint64_t triggers_seen = 0;
  std::vector<heal::Incident> incidents;
  // Mirrored from the RepairService before the simulation is torn down.
  std::uint64_t reloads_executed = 0;
  std::uint64_t rmas_executed = 0;
  std::uint64_t deferred_executed = 0;  ///< budget-parked, later executed
  std::uint64_t deferred_pending = 0;   ///< still parked at run end
};

/// Repair deadline the blackhole-repaired invariant holds the loop to:
/// inject -> detect -> corroborate -> executed repair within this much sim
/// time. Detection lands within ~2 simulated minutes (the perf gate);
/// corroboration adds a batch lookback plus loop ticks.
constexpr SimTime kHealRepairDeadline = minutes(6);

/// Run every invariant against the post-run simulation state. `plan` gates
/// plan-dependent checks (blame localization needs a lone network fault);
/// `serve` (optional) feeds the rollup-recovery check, `heal` (optional)
/// the closed-loop repair checks — when null or not ran, those findings
/// report not-applicable.
[[nodiscard]] InvariantReport check_invariants(const core::PingmeshSimulation& sim,
                                               const ChaosPlan& plan,
                                               const ServeChaosOutcome* serve = nullptr,
                                               const HealChaosOutcome* heal = nullptr);

}  // namespace pingmesh::chaos
