// Pinglist: the only artifact exchanged between the Pingmesh Controller and
// the Pingmesh Agents (paper §6.2 — "Pingmesh Controller and Pingmesh Agent
// interact only through the pinglist files, which are standard XML files,
// via standard Web API"). That loose coupling is deliberate and is what let
// the paper's system grow QoS probing, VIP monitoring etc. without
// architectural change.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace pingmesh::controller {

/// Minimum interval between two probes of one server pair (paper §3.4:
/// "hard coded in the source code"). The generator floors every target's
/// interval at it, and the agent clamps to it whatever the pinglist says.
constexpr SimTime kHardMinProbeInterval = seconds(10);

/// Traffic class for QoS monitoring (paper §6.2 "QoS monitoring": pinglists
/// are generated for both high and low priority DSCP classes; the agent
/// listens on an extra port for the low-priority class).
enum class QosClass : std::uint8_t { kHigh = 0, kLow = 1 };

const char* qos_class_name(QosClass c);

/// Kind of probe the agent should launch at this target.
enum class ProbeKind : std::uint8_t {
  kTcpConnect = 0,  ///< SYN/SYN-ACK RTT only
  kTcpPayload = 1,  ///< connect + payload echo
  kHttpGet = 2,     ///< HTTP ping (and VIP monitoring)
};

const char* probe_kind_name(ProbeKind k);

struct PingTarget {
  IpAddr ip;
  std::uint16_t port = 0;
  ProbeKind kind = ProbeKind::kTcpConnect;
  QosClass qos = QosClass::kHigh;
  std::uint32_t payload_bytes = 0;   ///< for kTcpPayload
  SimTime interval = 0;              ///< desired probe interval
  bool is_vip = false;               ///< VIP monitoring target (§6.2)
};

struct Pinglist {
  std::string server_name;
  IpAddr server_ip;
  std::uint64_t version = 0;          ///< topology/config generation number
  SimTime min_probe_interval = 0;     ///< controller-side floor echoed to agents
  std::vector<PingTarget> targets;

  /// Serialize to the XML interchange format.
  [[nodiscard]] std::string to_xml() const;
  /// Parse; throws std::runtime_error on malformed documents.
  static Pinglist from_xml(std::string_view doc);
};

}  // namespace pingmesh::controller
