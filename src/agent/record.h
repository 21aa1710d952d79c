// LatencyRecord: the unit of measurement data flowing from every Pingmesh
// Agent into the storage and analysis pipeline. Encoded as CSV for upload
// (the agent "provides latency data as ... CSV files", §6.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "controller/pinglist.h"

namespace pingmesh::agent {

struct LatencyRecord {
  SimTime timestamp = 0;  ///< probe launch time
  IpAddr src_ip;
  IpAddr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  controller::ProbeKind kind = controller::ProbeKind::kTcpConnect;
  controller::QosClass qos = controller::QosClass::kHigh;
  bool success = false;           ///< TCP connection established (or HTTP 200)
  SimTime rtt = 0;                ///< connect RTT, incl. SYN retransmit waits
  bool payload_success = false;
  SimTime payload_rtt = 0;
  std::uint32_t payload_bytes = 0;

  [[nodiscard]] std::vector<std::string> to_csv_row() const;
  static std::optional<LatencyRecord> from_csv_row(const std::vector<std::string>& row);

  /// CSV column headers, in row order.
  static const std::vector<std::string>& csv_header();
};

/// Row-level accounting for batch decoders. Malformed rows used to be
/// skipped silently; every decode path now reports them so the scan layer
/// can count drops into the obs MetricsRegistry and the chaos
/// record-conservation invariant can assert zero for non-corruption plans.
struct DecodeStats {
  std::uint64_t rows_decoded = 0;
  std::uint64_t rows_dropped = 0;
};

/// Encode a batch as CSV (header-free; streams are schema-on-read like the
/// paper's Cosmos extents).
std::string encode_batch(const std::vector<LatencyRecord>& records);
/// Decode a CSV batch. Malformed rows are skipped and counted into
/// `stats` (if given) — never silently lost.
std::vector<LatencyRecord> decode_batch(std::string_view csv_data,
                                        DecodeStats* stats = nullptr);

}  // namespace pingmesh::agent
