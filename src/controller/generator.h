// The Pingmesh Generator — "the core of the Pingmesh Controller" (§3.3.1).
//
// It realizes the paper's three levels of complete graphs:
//   level 1 (intra-pod):  servers under one ToR form a complete graph;
//   level 2 (intra-DC):   ToR switches are virtual nodes of a complete
//                         graph, realized as "for any ToR-pair (ToRx, ToRy),
//                         let server i in ToRx ping server i in ToRy";
//   level 3 (inter-DC):   DCs are virtual nodes of a complete graph,
//                         realized by a few selected servers per podset.
//
// Probing is asymmetric on purpose: "even when two servers are in the
// pinglists of each other, they measure network latency separately",
// so every server computes its own drop rate and latency locally.
//
// The controller bounds the work: a threshold on the total number of
// targets per server, and a floor on the probe interval.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "controller/pinglist.h"
#include "topology/topology.h"

namespace pingmesh::controller {

/// Echo size of a payload probe: 800-1200 B in the paper (§4.1).
constexpr std::uint32_t kPayloadProbeBytes = 1000;

struct GeneratorConfig {
  std::uint16_t tcp_port = 33100;          ///< agent's high-priority probe port
  std::uint16_t low_priority_port = 33101; ///< extra port for QoS class low
  std::uint16_t http_port = 33180;         ///< agent's HTTP ping port

  SimTime intra_pod_interval = minutes(1);
  SimTime intra_dc_interval = minutes(1);
  SimTime inter_dc_interval = minutes(5);

  /// Threshold on a server's total probe targets ("The Pingmesh Controller
  /// uses threshold values to limit the total number of probes of a
  /// server"). Paper-scale pinglists are 2000-5000 peers.
  std::size_t max_targets_per_server = 5000;

  /// Fraction of targets probed with payload echo in addition to
  /// SYN/SYN-ACK (payload pings detect length-dependent drops, §4.1).
  /// Realized deterministically: every k-th target gets payload.
  std::uint32_t payload_every_kth = 4;

  bool enable_inter_dc = true;
  /// Servers selected per podset as inter-DC ping participants.
  int interdc_servers_per_podset = 2;
  /// Cap on selected peer servers per remote DC.
  int interdc_peers_per_dc = 4;

  /// QoS monitoring (§6.2): duplicate intra-DC targets on the low-priority
  /// port/class.
  bool enable_qos = false;

  /// VIP monitoring (§6.2): additional HTTP targets probed by every server
  /// in the VIP's DC... realized here as: every selected inter-DC server
  /// also probes the configured VIPs.
  std::vector<PingTarget> vip_targets;
};

class PinglistGenerator {
 public:
  PinglistGenerator(const topo::Topology& topo, GeneratorConfig config);

  /// Pinglist for one server. Deterministic: same topology + config +
  /// version -> same pinglist (every controller replica serves identical
  /// files, which is what makes the controller stateless, §3.3.2).
  [[nodiscard]] Pinglist generate_for(ServerId server) const;

  /// Pinglists for the whole fleet.
  [[nodiscard]] std::vector<Pinglist> generate_all() const;

  /// The servers of `dc` selected as inter-DC probe participants.
  [[nodiscard]] std::vector<ServerId> interdc_participants(DcId dc) const;

  /// Is this server an inter-DC participant?
  [[nodiscard]] bool is_interdc_participant(ServerId server) const;

  [[nodiscard]] const GeneratorConfig& config() const { return config_; }
  void set_version(std::uint64_t v) { version_ = v; }
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  void add_target(Pinglist& pl, IpAddr ip, SimTime interval, std::size_t& ordinal) const;

  const topo::Topology* topo_;
  GeneratorConfig config_;
  std::uint64_t version_ = 1;
  std::vector<std::vector<ServerId>> interdc_by_dc_;  // indexed by DcId
  std::vector<bool> is_participant_;                  // indexed by ServerId
};

}  // namespace pingmesh::controller
