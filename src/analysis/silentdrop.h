// Silent random packet drop detection and localization (paper §5.2).
//
// The incident playbook the paper describes:
//  1. Pingmesh data shows a DC-wide drop-rate jump (1e-4..1e-5 baseline to
//     ~2e-3) with non-deterministic drops;
//  2. the latency/drop pattern (Figure 8(d): intra-podset fine, cross-
//     podset broken) points at the Spine layer;
//  3. TCP traceroute against affected source-destination pairs pinpoints
//     the switch, which is isolated from live traffic and RMA'd.
//
// Steps 1-2 are passive (records only). Step 3 is active and runs against
// the simulator's data plane.
#pragma once

#include <optional>
#include <vector>

#include "agent/record_columns.h"
#include "common/rng.h"
#include "common/types.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

namespace pingmesh::analysis {

/// Full path discovery by TTL-walking, as TCP traceroute does. Retries each
/// TTL a few times (earlier hops may drop the probe). Returns the hop
/// switches in order; stops early if a hop never answers.
std::vector<SwitchId> tcp_traceroute(netsim::SimNetwork& net, const FiveTuple& tuple,
                                     SimTime now, int retries_per_hop = 3);

/// Per-spine loss, measured by active probing, that marks the culprit. The
/// healing loop acts on a pinpointed spine only at this loss.
inline constexpr double kCulpritMinLoss = 0.005;

enum class SuspectTier : std::uint8_t { kNone, kTor, kLeaf, kSpine };

const char* suspect_tier_name(SuspectTier t);

struct SpineLoss {
  SwitchId spine;
  std::uint64_t probes = 0;
  std::uint64_t losses = 0;
  [[nodiscard]] double loss_rate() const {
    return probes ? static_cast<double>(losses) / static_cast<double>(probes) : 0.0;
  }
};

struct SilentDropReport {
  bool incident = false;
  DcId affected_dc;
  double dc_drop_rate = 0.0;
  SuspectTier tier = SuspectTier::kNone;
  double intra_podset_rate = 0.0;
  double cross_podset_rate = 0.0;
  std::vector<SpineLoss> spine_losses;  ///< active-measurement results
  SwitchId culprit;                     ///< invalid when not pinpointed
  double culprit_loss = 0.0;
};

/// Passive phase: the intra-DC view's worst DC whose drop rate reaches
/// agent::kAlertDropRate over at least 200 probes, if any.
[[nodiscard]] std::optional<DcId> detect_affected_dc(const agent::RecordColumns& window,
                                                     const topo::Topology& topo);

/// Passive + active: classify the suspect tier from the window, then (if
/// Spine) traceroute+probe through `net` to pinpoint the culprit.
[[nodiscard]] SilentDropReport localize_silent_drops(const agent::RecordColumns& window,
                                                     const topo::Topology& topo,
                                                     netsim::SimNetwork& net, SimTime now);

}  // namespace pingmesh::analysis
