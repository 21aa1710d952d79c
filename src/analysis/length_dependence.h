// Length-dependent packet loss detection (paper §4.1).
//
// "We introduced payload ping because it can help detect packet drops that
// are related to packet length (e.g., fiber FCS errors and switch SerDes
// errors that are related to bit error rate)." And §4.2: "This assumption
// [SYN drop rate ~ data drop rate], however, may not be true when packet
// drop rate is related to packet size ... We did see packets of larger size
// may experience higher drop rate in FCS error related incidents."
//
// Detection: compare the failure rate of the payload leg (800-1200+ byte
// packets) against the SYN/SYN-ACK leg (64-byte packets) of the *same*
// probes. Bit-error-driven loss scales with packet length, so a large
// payload/SYN loss ratio — well above the size ratio explained by normal
// loss — flags an FCS-style incident.
#pragma once

#include "agent/record_columns.h"
#include "common/types.h"

namespace pingmesh::analysis {

struct LengthDependenceReport {
  std::uint64_t payload_probes = 0;      ///< connected probes that sent payload
  std::uint64_t payload_failures = 0;    ///< echo never completed
  std::uint64_t payload_retransmits = 0; ///< echo needed data retransmission
  std::uint64_t syn_probes = 0;
  std::uint64_t syn_drop_signatures = 0; ///< 3s/9s connects across all probes

  bool length_dependent = false;
  double payload_loss_rate = 0.0;  ///< (failures + retransmits) / payload probes
  double syn_loss_rate = 0.0;      ///< signatures / probes

  [[nodiscard]] double ratio() const {
    return syn_loss_rate > 0 ? payload_loss_rate / syn_loss_rate : 0.0;
  }
};

/// Flags the window when it holds >= 500 payload probes and the payload
/// leg's loss is both >= 1e-4 and >= 5x the SYN leg's.
LengthDependenceReport detect_length_dependent_loss(const agent::RecordColumns& window);

}  // namespace pingmesh::analysis
