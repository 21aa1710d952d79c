#include "analysis/length_dependence.h"

#include "agent/counters.h"

namespace pingmesh::analysis {

constexpr std::uint64_t kMinPayloadProbes = 500;  ///< statistical floor
/// Flag when payload-leg loss exceeds SYN-leg loss by this factor AND is
/// itself material.
constexpr double kRatioThreshold = 5.0;
constexpr double kMinPayloadLoss = 1e-4;

LengthDependenceReport detect_length_dependent_loss(const agent::RecordColumns& window) {
  LengthDependenceReport report;
  agent::ProbeCounts syn;
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (!window.success(i)) continue;  // connect failed: no payload leg to compare
    syn.add(true, window.rtt(i));

    if (window.kinds()[i] != static_cast<std::uint8_t>(controller::ProbeKind::kTcpPayload)) {
      continue;
    }
    ++report.payload_probes;
    if (window.payload_successes()[i] == 0) {
      ++report.payload_failures;
    } else if (window.payload_rtts()[i] - window.rtt(i) >= millis(250)) {
      // A healthy echo takes about one more RTT than the connect; a gap of
      // an RTO or more means the data or echo packet was retransmitted.
      ++report.payload_retransmits;
    }
  }

  report.syn_probes = syn.successes;
  report.syn_drop_signatures = syn.drop_signatures();
  if (report.payload_probes > 0) {
    report.payload_loss_rate =
        static_cast<double>(report.payload_failures + report.payload_retransmits) /
        static_cast<double>(report.payload_probes);
  }
  if (report.syn_probes > 0) {
    report.syn_loss_rate = static_cast<double>(report.syn_drop_signatures) /
                           static_cast<double>(report.syn_probes);
  }
  report.length_dependent =
      report.payload_probes >= kMinPayloadProbes &&
      report.payload_loss_rate >= kMinPayloadLoss &&
      report.payload_loss_rate >= kRatioThreshold *
                                      std::max(report.syn_loss_rate, 1e-9);
  return report;
}

}  // namespace pingmesh::analysis
