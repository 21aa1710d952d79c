// Fault injection for the network simulator.
//
// These are the failure classes the paper's analyses exist to catch:
//  - packet black-holes (§5.1): deterministic drops of packets matching
//    certain src/dst (type 1, corrupted TCAM entries) or full five-tuple
//    (type 2, ECMP-related) patterns; fixed by reloading the switch;
//  - silent random packet drops (§5.2): probabilistic drops from fabric
//    bit flips / CRC errors / badly seated linecards; requires RMA;
//  - congestion: extra queueing plus overflow drops;
//  - podset power-down (§6.3, Figure 8(b)): all servers of a podset gone.
//
// All faults have a [start, end) activity window in simulation time.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace pingmesh::netsim {

enum class BlackholeMode : std::uint8_t {
  kSrcDstPair,  ///< type 1: src/dst IP pair pattern (TCAM parity error)
  kFiveTuple,   ///< type 2: src/dst IP + ports pattern (ECMP error)
};

enum class FaultKind : std::uint8_t {
  kBlackhole,
  kSilentRandomDrop,
  kCongestion,
  kPodsetDown,
  kServerDown,
};

using FaultId = std::uint32_t;

/// Aggregate per-hop effect of all active faults on one switch for one
/// packet. Black-holing is deterministic; the rest stack multiplicatively /
/// additively onto the baseline model.
struct HopEffect {
  bool blackholed = false;
  double extra_drop_prob = 0.0;
  double queue_scale = 1.0;
};

/// Registry of active faults, queried by the simulator on every hop.
class FaultInjector {
 public:
  static constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

  /// Black-hole on `sw`: a fraction of the (src,dst[,ports]) pattern space
  /// is deterministically dropped. `entry_fraction` in (0,1]; `salt` selects
  /// which patterns are affected (models which TCAM entries corrupted).
  FaultId add_blackhole(SwitchId sw, BlackholeMode mode, double entry_fraction,
                        SimTime start = 0, SimTime end = kForever,
                        std::uint64_t salt = 0);

  /// Silent random drops on `sw` with per-packet probability `drop_prob`.
  FaultId add_silent_random_drop(SwitchId sw, double drop_prob, SimTime start = 0,
                                 SimTime end = kForever);

  /// Congestion on `sw`: queueing scaled by `queue_scale` (>1), plus
  /// overflow drop probability.
  FaultId add_congestion(SwitchId sw, double queue_scale, double drop_prob,
                         SimTime start = 0, SimTime end = kForever);

  /// Whole podset loses power: every server in it stops responding.
  FaultId add_podset_down(PodsetId podset, SimTime start = 0, SimTime end = kForever);

  /// One server crashes at `start` and restarts at `end`: its agent stops
  /// ticking and it answers no probes, but its state survives the outage
  /// (a reboot, not a reimage).
  FaultId add_server_down(ServerId server, SimTime start = 0, SimTime end = kForever);

  /// Remove one fault (e.g. switch isolated from live traffic).
  void remove(FaultId id);
  /// Remove all black-hole faults on a switch — the effect of a reload
  /// (paper §5.1: "these two types of packet black-holes can be fixed by
  /// reloading the switch"). Returns how many were cleared.
  int clear_blackholes_on(SwitchId sw);
  /// Remove every fault on a switch — the effect of RMA/replacement.
  int clear_all_on(SwitchId sw);
  void clear();

  /// Aggregate effect of active faults for a packet crossing `sw` at `now`.
  [[nodiscard]] HopEffect hop_effect(SwitchId sw, const FiveTuple& tuple,
                                     SimTime now) const;

  [[nodiscard]] bool podset_down(PodsetId podset, SimTime now) const;

  [[nodiscard]] bool server_down(ServerId server, SimTime now) const;

  /// Any active fault on this switch at `now`? (ground truth for tests)
  [[nodiscard]] bool has_active_fault(SwitchId sw, SimTime now) const;
  /// Active fault count (all switches) at `now`.
  [[nodiscard]] std::size_t active_fault_count(SimTime now) const;
  /// Switches with an active black-hole at `now` (ground truth for Fig. 6).
  [[nodiscard]] std::vector<SwitchId> blackholed_switches(SimTime now) const;

  /// Would this tuple be deterministically black-holed by `sw` at `now`?
  /// Exposed so tests can build affected tuples directly.
  [[nodiscard]] bool blackholes_tuple(SwitchId sw, const FiveTuple& tuple,
                                      SimTime now) const;

 private:
  struct Fault {
    FaultId id;
    FaultKind kind;
    SwitchId sw;        // invalid for podset/server faults
    PodsetId podset;    // invalid for switch/server faults
    ServerId server;    // invalid for switch/podset faults
    BlackholeMode mode = BlackholeMode::kSrcDstPair;
    double magnitude = 0.0;    // entry_fraction / drop_prob
    double queue_scale = 1.0;  // congestion only
    std::uint64_t salt = 0;
    SimTime start = 0;
    SimTime end = kForever;
    bool removed = false;

    [[nodiscard]] bool active(SimTime now) const {
      return !removed && now >= start && now < end;
    }
  };

  static bool pattern_hit(const Fault& f, const FiveTuple& tuple);

  FaultId next_id_ = 1;
  std::vector<Fault> faults_;
  // index: faults per switch for O(active-on-switch) hop queries
  std::unordered_map<SwitchId, std::vector<std::size_t>> by_switch_;
  std::unordered_map<PodsetId, std::vector<std::size_t>> by_podset_;
  std::unordered_map<ServerId, std::vector<std::size_t>> by_server_;
};

}  // namespace pingmesh::netsim
