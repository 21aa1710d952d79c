#include "chaos/invariants.h"

#include <algorithm>
#include <map>
#include <optional>

#include "agent/counters.h"
#include "chaos/injector.h"
#include "dsa/cosmos.h"

namespace pingmesh::chaos {

namespace {

/// §3.4.2 hard contract: by the third consecutive missed pinglist fetch the
/// agent must have stopped probing. Checked against this constant, not the
/// configured threshold, so a run with the threshold disabled (the
/// deliberately-broken mode the plan hunter must catch) still violates.
constexpr int kFailClosedContract = 3;

/// Minimum probes a pod pair needs in the fault window before the blame
/// check trusts its drop-rate estimate.
constexpr std::uint64_t kBlameMinProbes = 50;

InvariantFinding make(std::string name, bool ok, std::string detail) {
  InvariantFinding f;
  f.name = std::move(name);
  f.ok = ok;
  f.detail = std::move(detail);
  return f;
}

InvariantFinding not_applicable(std::string name, std::string why) {
  InvariantFinding f;
  f.name = std::move(name);
  f.applicable = false;
  f.detail = std::move(why);
  return f;
}

InvariantFinding check_record_conservation(const core::PingmeshSimulation& sim) {
  std::size_t n = sim.topology().server_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = sim.agent(ServerId{static_cast<std::uint32_t>(i)});
    std::uint64_t accounted =
        a.records_uploaded() + a.records_discarded() + a.buffered_records();
    if (a.probes_launched() != accounted) {
      return make("record-conservation", false,
                  "agent " + a.name() + ": launched " +
                      std::to_string(a.probes_launched()) + " != uploaded " +
                      std::to_string(a.records_uploaded()) + " + discarded " +
                      std::to_string(a.records_discarded()) + " + buffered " +
                      std::to_string(a.buffered_records()));
    }
  }
  FleetTotals t = collect_totals(sim);
  return make("record-conservation", true,
              "launched=" + std::to_string(t.probes_launched) +
                  " uploaded=" + std::to_string(t.records_uploaded) +
                  " discarded=" + std::to_string(t.records_discarded) +
                  " buffered=" + std::to_string(t.records_buffered));
}

InvariantFinding check_cosmos_ledger(const core::PingmeshSimulation& sim) {
  const dsa::CosmosStream* stream = sim.cosmos().find(dsa::kLatencyStream);
  FleetTotals t = collect_totals(sim);
  if (stream == nullptr) {
    return make("cosmos-ledger", t.records_uploaded == 0,
                "no latency stream; fleet reported " +
                    std::to_string(t.records_uploaded) + " uploaded records");
  }
  std::uint64_t appended = stream->appended_records_total();
  std::uint64_t live = stream->total_records();
  std::uint64_t expired = stream->expired_records_total();
  if (appended != live + expired) {
    return make("cosmos-ledger", false,
                "appended " + std::to_string(appended) + " != live " +
                    std::to_string(live) + " + expired " + std::to_string(expired));
  }
  if (t.records_uploaded != appended) {
    return make("cosmos-ledger", false,
                "agents uploaded " + std::to_string(t.records_uploaded) +
                    " records but the stream appended " + std::to_string(appended));
  }
  return make("cosmos-ledger", true,
              "appended=" + std::to_string(appended) + " live=" + std::to_string(live) +
                  " expired=" + std::to_string(expired) +
                  " corrupt=" + std::to_string(stream->corrupt_records()));
}

InvariantFinding check_fail_closed(const core::PingmeshSimulation& sim) {
  std::size_t n = sim.topology().server_count();
  int worst = 0;
  std::string offender;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = sim.agent(ServerId{static_cast<std::uint32_t>(i)});
    if (a.peak_fetch_failures_while_probing() > worst) {
      worst = a.peak_fetch_failures_while_probing();
      offender = a.name();
    }
  }
  if (worst >= kFailClosedContract) {
    return make("fail-closed", false,
                "agent " + offender + " was still probing at " + std::to_string(worst) +
                    " consecutive failed fetches (contract: stop before " +
                    std::to_string(kFailClosedContract) + ")");
  }
  return make("fail-closed", true,
              "peak consecutive failed fetches while probing: " + std::to_string(worst));
}

InvariantFinding check_streaming_batch(const core::PingmeshSimulation& sim) {
  const streaming::StreamingPipeline* p = sim.streaming();
  if (p == nullptr) return not_applicable("streaming-batch", "streaming disabled");
  FleetTotals t = collect_totals(sim);
  const streaming::StreamingPipeline::Ledger& w = p->ledger();
  std::uint64_t tapped = w.ingested + w.skipped + w.late;
  if (tapped != t.records_uploaded) {
    return make("streaming-batch", false,
                "tap saw " + std::to_string(tapped) + " records (ingested " +
                    std::to_string(w.ingested) + " + skipped " +
                    std::to_string(w.skipped) + " + late " + std::to_string(w.late) +
                    ") but agents uploaded " + std::to_string(t.records_uploaded));
  }
  return make("streaming-batch", true,
              "ingested=" + std::to_string(w.ingested) + " skipped=" +
                  std::to_string(w.skipped) + " late=" + std::to_string(w.late));
}

/// The lone network-fault event of `plan` targeting a ToR, if the plan has
/// exactly one network-affecting event at all.
std::optional<ChaosEvent> lone_tor_fault(const core::PingmeshSimulation& sim,
                                         const ChaosPlan& plan) {
  std::optional<ChaosEvent> fault;
  for (const ChaosEvent& e : plan.events) {
    switch (e.kind) {
      case ChaosEventKind::kLinkLoss:
      case ChaosEventKind::kPartition:
      case ChaosEventKind::kServerCrash:
        if (fault) return std::nullopt;  // more than one network fault
        fault = e;
        break;
      default:
        break;
    }
  }
  if (!fault || fault->kind == ChaosEventKind::kServerCrash) return std::nullopt;
  if (fault->kind == ChaosEventKind::kLinkLoss && fault->magnitude < 0.005) {
    return std::nullopt;  // too faint to localize reliably
  }
  const auto& topo = sim.topology();
  SwitchId sw{static_cast<std::uint32_t>(fault->entity % topo.switch_count())};
  if (topo.sw(sw).kind != topo::SwitchKind::kTor) return std::nullopt;
  fault->entity = sw.value;  // resolved switch index
  return fault;
}

InvariantFinding check_blame_localization(const core::PingmeshSimulation& sim,
                                          const ChaosPlan& plan) {
  auto fault = lone_tor_fault(sim, plan);
  if (!fault) {
    return not_applicable("blame-localization",
                          "plan has no lone ToR loss fault to localize");
  }
  const auto& topo = sim.topology();
  // The pod under the faulted ToR.
  std::optional<PodId> faulted_pod;
  for (const auto& pod : topo.pods()) {
    if (pod.tor.value == fault->entity) faulted_pod = pod.id;
  }
  if (!faulted_pod) {
    return not_applicable("blame-localization", "faulted switch maps to no pod");
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, agent::ProbeCounts> pairs;
  SimTime to = std::min(fault->end, plan.duration);
  if (plan.heal) {
    // The healing loop may clear the fault mid-window (a reload/RMA removes
    // the injected fault records); records after the first executed repair
    // on the faulted switch carry no blame signal.
    for (const autopilot::RepairRecord& r : sim.repair().history()) {
      if (r.executed && r.sw.value == fault->entity) {
        to = std::min(to, r.time);
        break;
      }
    }
    if (to <= fault->start) {
      return not_applicable("blame-localization",
                            "fault repaired before any record window accrued");
    }
  }
  const agent::RecordColumns records = sim.records_between(fault->start, to);
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto src = topo.find_server_by_ip(records.src_ip(i));
    auto dst = topo.find_server_by_ip(records.dst_ip(i));
    if (!src || !dst) continue;
    pairs[{topo.server(*src).pod.value, topo.server(*dst).pod.value}].add(records.success(i),
                                                                          records.rtt(i));
  }

  // Worst pair by bad-fraction among pairs with enough probes; ties are
  // impossible to localize, so require the winner to be strictly worst.
  double worst_rate = -1.0;
  std::pair<std::uint32_t, std::uint32_t> worst{0, 0};
  std::uint64_t considered = 0;
  for (const auto& [pp, acc] : pairs) {
    if (acc.probes < kBlameMinProbes) continue;
    ++considered;
    // Bad = failed or carrying a SYN-retransmit signature.
    double rate = static_cast<double>(acc.failures + acc.drop_signatures()) /
                  static_cast<double>(acc.probes);
    if (rate > worst_rate) {
      worst_rate = rate;
      worst = pp;
    }
  }
  if (considered == 0 || worst_rate <= 0.0) {
    return not_applicable("blame-localization",
                          "too few records in the fault window to localize");
  }
  bool involves = worst.first == faulted_pod->value || worst.second == faulted_pod->value;
  std::string detail = "worst pair pod" + std::to_string(worst.first) + "->pod" +
                       std::to_string(worst.second) + " bad-rate " +
                       std::to_string(worst_rate) + "; faulted pod" +
                       std::to_string(faulted_pod->value);
  return make("blame-localization", involves, std::move(detail));
}

InvariantFinding check_decode_integrity(const core::PingmeshSimulation& sim,
                                        const ChaosPlan& plan) {
  // Force a full scan so every live extent is decoded (CSV or columnar)
  // before the drop counter is read — an idle cache would vacuously pass.
  (void)sim.records_between(0, plan.duration + plan.settle + 1);
  std::uint64_t dropped = sim.decode_rows_dropped();
  for (const ChaosEvent& e : plan.events) {
    if (e.kind == ChaosEventKind::kExtentCorruption) {
      return not_applicable("decode-integrity",
                            "plan corrupts extents deliberately; dropped " +
                                std::to_string(dropped) + " rows");
    }
  }
  return make("decode-integrity", dropped == 0,
              "scan path dropped " + std::to_string(dropped) +
                  " malformed rows (must be 0 without deliberate corruption)");
}

InvariantFinding check_rollup_recovery(const ServeChaosOutcome* serve) {
  if (serve == nullptr || !serve->ran) {
    return not_applicable("rollup-recovery", "plan has no serve-restart events");
  }
  bool ok = serve->digest_mismatches == 0 && serve->final_digests_equal &&
            serve->conservation_ok && serve->failed_with_replicas == 0;
  return make("rollup-recovery", ok,
              "restarts=" + std::to_string(serve->restarts) + " digest-matches=" +
                  std::to_string(serve->digest_matches) + " mismatches=" +
                  std::to_string(serve->digest_mismatches) + " final-equal=" +
                  (serve->final_digests_equal ? "yes" : "no") + " conservation=" +
                  (serve->conservation_ok ? "ok" : "VIOLATED") + " queries=" +
                  std::to_string(serve->queries) + " 503-with-replicas=" +
                  std::to_string(serve->failed_with_replicas));
}

/// Event kinds that can mask black-hole detection end-to-end: fail-closed
/// stops probing during a controller outage / SLB flap, and upload chaos
/// starves or delays the record stream both detection paths read. A plan
/// containing any of these is not a fair test of the repair deadline.
bool masks_heal_detection(ChaosEventKind k) {
  return k == ChaosEventKind::kControllerOutage || k == ChaosEventKind::kSlbFlap ||
         k == ChaosEventKind::kUploadFailure || k == ChaosEventKind::kUploadDelay;
}

InvariantFinding check_blackhole_repaired(const core::PingmeshSimulation& sim,
                                          const ChaosPlan& plan,
                                          const HealChaosOutcome* heal) {
  if (heal == nullptr || !heal->ran) {
    return not_applicable("blackhole-repaired", "healing loop not attached");
  }
  for (const ChaosEvent& e : plan.events) {
    if (masks_heal_detection(e.kind)) {
      return not_applicable("blackhole-repaired",
                            "plan masks detection (controller/upload chaos)");
    }
  }
  const auto& topo = sim.topology();
  const auto& history = sim.repair().history();
  int checked = 0;
  for (const ChaosEvent& e : plan.events) {
    if (e.kind != ChaosEventKind::kTorBlackhole) continue;
    // Only black-holes the loop can plausibly catch: strong enough for the
    // fail-rate rule, active for at least the repair deadline, and with the
    // deadline inside the simulated run.
    if (e.magnitude < agent::kBlackPairFailureRate) continue;
    if (e.end - e.start < kHealRepairDeadline) continue;
    if (e.start + kHealRepairDeadline > plan.duration + plan.settle) continue;
    ++checked;
    SwitchId sw = resolve_event_switch(topo, e);
    bool repaired = false;
    for (const autopilot::RepairRecord& r : history) {
      if (r.executed && r.sw == sw && r.time <= e.start + kHealRepairDeadline) {
        repaired = true;
        break;
      }
    }
    if (!repaired) {
      return make("blackhole-repaired", false,
                  "black-hole on switch " + std::to_string(sw.value) + " injected at " +
                      std::to_string(e.start) + "ns had no executed repair by " +
                      std::to_string(e.start + kHealRepairDeadline) + "ns");
    }
  }
  if (checked == 0) {
    return not_applicable("blackhole-repaired",
                          "no catchable black-hole event in the plan");
  }
  return make("blackhole-repaired", true,
              std::to_string(checked) + " injected black-hole(s) repaired within " +
                  std::to_string(kHealRepairDeadline / kNanosPerMinute) + "min");
}

InvariantFinding check_corroborated_repair(const core::PingmeshSimulation& sim,
                                           const HealChaosOutcome* heal) {
  if (heal == nullptr || !heal->ran) {
    return not_applicable("corroborated-repair", "healing loop not attached");
  }
  std::size_t executed = 0;
  for (const autopilot::RepairRecord& r : sim.repair().history()) {
    if (!r.executed) continue;
    ++executed;
    bool corroborated = false;
    for (const heal::Incident& inc : heal->incidents) {
      if (inc.sw == r.sw && inc.corroborate > 0 && inc.corroborate <= r.time) {
        corroborated = true;
        break;
      }
    }
    if (!corroborated) {
      return make("corroborated-repair", false,
                  "repair on switch " + std::to_string(r.sw.value) + " at " +
                      std::to_string(r.time) +
                      "ns has no prior corroborated blame (reason: " + r.reason + ")");
    }
  }
  return make("corroborated-repair", true,
              std::to_string(executed) + " executed repair(s), all corroborated; " +
                  std::to_string(heal->incidents.size()) + " incident(s), " +
                  std::to_string(heal->triggers_seen) + " trigger(s)");
}

InvariantFinding check_bounded_buffer(const core::PingmeshSimulation& sim) {
  std::size_t cap = sim.config().agent.max_buffered_records;
  std::size_t n = sim.topology().server_count();
  std::size_t worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst,
                     sim.agent(ServerId{static_cast<std::uint32_t>(i)}).buffered_records());
  }
  return make("bounded-buffer", worst <= cap,
              "max buffered " + std::to_string(worst) + " / cap " + std::to_string(cap));
}

}  // namespace

bool InvariantReport::all_ok() const {
  return std::all_of(findings.begin(), findings.end(),
                     [](const InvariantFinding& f) { return f.ok; });
}

const InvariantFinding* InvariantReport::find(std::string_view name) const {
  for (const InvariantFinding& f : findings) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string InvariantReport::to_text() const {
  std::string out;
  for (const InvariantFinding& f : findings) {
    out += f.name;
    out += ": ";
    out += !f.applicable ? "N/A" : (f.ok ? "OK" : "VIOLATED");
    if (!f.detail.empty()) {
      out += " (";
      out += f.detail;
      out += ")";
    }
    out += '\n';
  }
  return out;
}

FleetTotals collect_totals(const core::PingmeshSimulation& sim) {
  FleetTotals t;
  std::size_t n = sim.topology().server_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = sim.agent(ServerId{static_cast<std::uint32_t>(i)});
    t.probes_launched += a.probes_launched();
    t.records_uploaded += a.records_uploaded();
    t.records_discarded += a.records_discarded();
    t.records_buffered += a.buffered_records();
    t.records_logged += a.records_logged();
    t.log_dup_avoided += a.local_log_dup_avoided();
    t.uploads_ok += a.uploads_ok();
    t.uploads_failed += a.uploads_failed();
  }
  if (const dsa::CosmosStream* s = sim.cosmos().find(dsa::kLatencyStream)) {
    t.cosmos_appended = s->appended_records_total();
    t.cosmos_expired = s->expired_records_total();
    t.cosmos_live = s->total_records();
    t.cosmos_corrupt_records = s->corrupt_records();
  }
  const auto& vip = sim.controller_vip();
  t.slb_backends = vip.backend_count();
  t.slb_healthy = vip.healthy_count();
  t.slb_half_open_trials = vip.half_open_trials();
  return t;
}

InvariantReport check_invariants(const core::PingmeshSimulation& sim,
                                 const ChaosPlan& plan, const ServeChaosOutcome* serve,
                                 const HealChaosOutcome* heal) {
  InvariantReport report;
  report.findings.push_back(check_record_conservation(sim));
  report.findings.push_back(check_cosmos_ledger(sim));
  report.findings.push_back(check_fail_closed(sim));
  report.findings.push_back(check_streaming_batch(sim));
  report.findings.push_back(check_blame_localization(sim, plan));
  report.findings.push_back(check_decode_integrity(sim, plan));
  report.findings.push_back(check_bounded_buffer(sim));
  report.findings.push_back(check_rollup_recovery(serve));
  report.findings.push_back(check_blackhole_repaired(sim, plan, heal));
  report.findings.push_back(check_corroborated_repair(sim, heal));
  return report;
}

}  // namespace pingmesh::chaos
