// SimNetwork: flow-level simulator of the data center network.
//
// It answers one question fast: "if server A sends a TCP probe to server B
// at time T with five-tuple F, what happens?" — sampling per-packet latency
// from the DC profiles, applying baseline loss and injected faults per hop,
// and modelling TCP SYN retransmission exactly as the paper's drop-rate
// heuristic assumes (initial RTO 3 s, doubling, two retries; §4.2).
//
// Ground truth (which element dropped which packet) is carried in the
// outcome so tests can validate the inference heuristics against it, the
// same way the paper validated against NIC/ToR counters.
//
// Thread safety: the probe path (tcp_probe, send_packet, tcp_session,
// traceroute_hop) is const and safe to call concurrently. Randomness comes
// from counter-based streams keyed by (seed, five-tuple hash, launch time,
// context salt), so every probe's outcome is a pure function of its inputs
// — bit-identical no matter how many threads fire probes or in what order.
// Mutators (set_dc_profile, faults()) must not race with in-flight probes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/sharded_counter.h"
#include "common/types.h"
#include "netsim/ecmp.h"
#include "netsim/fault.h"
#include "netsim/profile.h"
#include "topology/topology.h"

namespace pingmesh::netsim {

/// TCP SYN retransmission constants (paper §4.2: "the initial timeout value
/// is 3 seconds, and the sender will retry SYN two times").
constexpr SimTime kSynInitialRto = seconds(3);
constexpr int kSynRetries = 2;
/// Data-segment retransmission timeout after the handshake (min RTO).
constexpr SimTime kDataRto = millis(300);
constexpr int kDataRetries = 5;

struct ProbeSpec {
  int payload_bytes = 0;  ///< 0 = SYN/SYN-ACK only; else echo payload size
  bool low_priority = false;  ///< QoS class low (DSCP-marked, §6.2)
};

/// Multi-round-trip TCP session model (paper §6.4). Pingmesh itself only
/// measures single-packet RTT; this model exists to reproduce the paper's
/// documented blind spot — an initial-congestion-window (ICW) regression
/// that slowed long-haul transfers by hundreds of milliseconds while every
/// Pingmesh metric stayed green.
struct SessionSpec {
  std::int64_t total_bytes = 64 * 1024;
  int icw_segments = 16;  ///< initial congestion window, in MSS segments
  int mss = 1460;
};

struct SessionOutcome {
  bool success = false;
  SimTime finish_time = 0;  ///< SYN sent -> last byte acknowledged
  int round_trips = 0;      ///< data round trips after the handshake
};

/// Where a packet died, for ground truth accounting.
enum class DropSite : std::uint8_t { kNone, kSrcHost, kSwitch, kDstHost, kPodsetDown };

struct PacketResult {
  bool delivered = false;
  SimTime latency = 0;  ///< one-way latency when delivered
  DropSite drop_site = DropSite::kNone;
  SwitchId drop_switch;  ///< valid when drop_site == kSwitch
  bool blackholed = false;
};

struct ProbeOutcome {
  bool success = false;          ///< TCP connection established
  SimTime rtt = 0;               ///< connect RTT incl. retransmission waits
  int syn_transmissions = 1;     ///< 1..3
  bool payload_success = false;  ///< echo completed (when payload requested)
  SimTime payload_rtt = 0;       ///< send->echo-received, incl. data RTOs

  // --- ground truth (not visible to the measurement plane) ---
  int packets_dropped = 0;
  SwitchId first_drop_switch;  ///< invalid when first drop was at a host
  bool hit_blackhole = false;
};

class SimNetwork {
 public:
  SimNetwork(const topo::Topology& topo, std::uint64_t seed);

  /// Override the behaviour profile of one DC (defaults: DcProfile{}).
  void set_dc_profile(DcId dc, const DcProfile& profile);
  [[nodiscard]] const DcProfile& dc_profile(DcId dc) const;

  /// Override WAN characteristics between a DC pair (order-insensitive).
  void set_wan_profile(DcId a, DcId b, const WanProfile& profile);

  FaultInjector& faults() { return faults_; }
  [[nodiscard]] const FaultInjector& faults() const { return faults_; }
  [[nodiscard]] const EcmpRouter& router() const { return router_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

  /// Full TCP probe: connect (+ optional payload echo). Thread-safe.
  ProbeOutcome tcp_probe(ServerId src, ServerId dst, std::uint16_t src_port,
                         std::uint16_t dst_port, const ProbeSpec& spec,
                         SimTime now) const;

  /// Bulk transfer with slow start from the configured ICW: connect, then
  /// send windows that double per round trip (no-loss approximation with
  /// per-window latency sampling). The finish time is what applications
  /// perceive; Pingmesh's single-RTT probes cannot see ICW changes (§6.4).
  SessionOutcome tcp_session(ServerId src, ServerId dst, std::uint16_t src_port,
                             std::uint16_t dst_port, const SessionSpec& spec,
                             SimTime now) const;

  /// One-way transmission of a single packet along the tuple's ECMP path.
  /// Low-priority (DSCP-marked) packets queue behind high-priority traffic:
  /// their queueing delay scales up with congestion. Thread-safe.
  PacketResult send_packet(const FiveTuple& tuple, int size_bytes, SimTime now,
                           bool low_priority = false) const;

  /// Traceroute support: deliverability and responding hop for a TTL-limited
  /// packet. Returns the switch at position `ttl` (1-based) if the packet
  /// survives that far, nullopt if it is dropped earlier or the path is
  /// shorter. Silent random drops apply; this is how combining Pingmesh with
  /// TCP traceroute pinpoints a faulty switch (§5.2).
  std::optional<SwitchId> traceroute_hop(const FiveTuple& tuple, int ttl,
                                         SimTime now) const;

  /// Is this server responsive (its podset not powered down)?
  [[nodiscard]] bool server_up(ServerId server, SimTime now) const;

  /// Number of packets simulated so far (throughput accounting in benches).
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_.read(); }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  double element_baseline_drop(const topo::Switch& sw, const DcProfile& prof) const;
  /// Counter stream for one packet/context: (seed, tuple, launch time, salt).
  [[nodiscard]] CounterRng stream_for(const FiveTuple& tuple, SimTime now,
                                      std::uint64_t salt) const;
  static SimTime sample_host_tx(const DcProfile& prof, CounterRng& rng);
  static SimTime sample_host_rx(const DcProfile& prof, CounterRng& rng);
  static SimTime sample_hop_latency(const DcProfile& prof, double queue_scale,
                                    int size_bytes, CounterRng& rng);
  const WanProfile& wan_between(DcId a, DcId b) const;

  const topo::Topology* topo_;
  EcmpRouter router_;
  FaultInjector faults_;
  std::uint64_t seed_;
  std::vector<DcProfile> dc_profiles_;
  std::unordered_map<std::uint64_t, WanProfile> wan_profiles_;
  WanProfile default_wan_;
  mutable ShardedCounter packets_sent_;
};

}  // namespace pingmesh::netsim
