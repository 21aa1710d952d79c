// RecordColumns: the one record representation of the data path, a
// struct-of-arrays batch of LatencyRecord fields. The agent buffer, upload,
// the record taps, the decoded-extent cache and EXTRACT's output are
// RecordColumns, and the SCOPE jobs, the localizers and heal read its
// columns. LatencyRecord stays the CSV/local-log row and the value a
// batch is built from (push_back). Each field keeps its own contiguous
// array:
//
//  - clear() drops the rows but keeps every column's capacity, so a
//    per-shard instance acts as an arena that is reused tick after tick;
//  - drop_front() is amortized O(1) via a head offset (the agent's
//    shed-oldest path), compacting only when more than half the storage
//    is dead;
//  - column() accessors expose the raw arrays for SIMD-friendly scans
//    (EXTRACT filters on the timestamp column, then gathers the matching
//    rows column by column).
//
// Row order is preserved: row(i) materializes the i-th LatencyRecord
// exactly as it was pushed, so CSV encodings produced from a RecordColumns
// are byte-identical to agent::encode_batch over the same rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "agent/record.h"
#include "common/types.h"

namespace pingmesh::agent {

class RecordColumns {
 public:
  /// Exact per-row footprint of the columnar storage: the agent's buffer
  /// admission budget counts rows at this size.
  static constexpr std::size_t kBytesPerRecord =
      sizeof(SimTime)                // timestamp
      + 2 * sizeof(std::uint32_t)    // src_ip, dst_ip
      + 2 * sizeof(std::uint16_t)    // src_port, dst_port
      + 3 * sizeof(std::uint8_t)     // kind, qos, success
      + sizeof(SimTime)              // rtt
      + sizeof(std::uint8_t)         // payload_success
      + sizeof(SimTime)              // payload_rtt
      + sizeof(std::uint32_t);       // payload_bytes

  [[nodiscard]] std::size_t size() const { return timestamp_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void push_back(const LatencyRecord& r);

  /// Materialize row i (0 == oldest retained row).
  [[nodiscard]] LatencyRecord row(std::size_t i) const;
  /// Single fields of row i, for per-row consumers.
  [[nodiscard]] SimTime timestamp(std::size_t i) const { return timestamp_[head_ + i]; }
  [[nodiscard]] IpAddr src_ip(std::size_t i) const { return IpAddr(src_ip_[head_ + i]); }
  [[nodiscard]] IpAddr dst_ip(std::size_t i) const { return IpAddr(dst_ip_[head_ + i]); }
  [[nodiscard]] bool success(std::size_t i) const { return success_[head_ + i] != 0; }
  [[nodiscard]] SimTime rtt(std::size_t i) const { return rtt_[head_ + i]; }

  /// Drop the n oldest rows (amortized O(1); storage is compacted lazily).
  void drop_front(std::size_t n);

  /// Drop all rows but keep column capacity — the arena-reuse path.
  void clear();

  void reserve(std::size_t n);
  [[nodiscard]] std::size_t capacity() const { return timestamp_.capacity(); }

  /// Append all rows of `other` to this batch.
  void append(const RecordColumns& other);

  /// Append the rows of `other` numbered in `rows` (ascending), column by
  /// column: EXTRACT's gather of the rows inside its time window.
  void append_rows(const RecordColumns& other, const std::vector<std::uint32_t>& rows);

  /// Raw column access for scans. Index 0 is the oldest retained row;
  /// pointers are invalidated by any mutation.
  [[nodiscard]] const SimTime* timestamps() const { return timestamp_.data() + head_; }
  [[nodiscard]] const std::uint32_t* src_ips() const { return src_ip_.data() + head_; }
  [[nodiscard]] const std::uint32_t* dst_ips() const { return dst_ip_.data() + head_; }
  [[nodiscard]] const std::uint16_t* src_ports() const { return src_port_.data() + head_; }
  [[nodiscard]] const std::uint16_t* dst_ports() const { return dst_port_.data() + head_; }
  [[nodiscard]] const std::uint8_t* kinds() const { return kind_.data() + head_; }
  [[nodiscard]] const std::uint8_t* qos() const { return qos_.data() + head_; }
  [[nodiscard]] const std::uint8_t* successes() const { return success_.data() + head_; }
  [[nodiscard]] const SimTime* rtts() const { return rtt_.data() + head_; }
  [[nodiscard]] const std::uint8_t* payload_successes() const {
    return payload_success_.data() + head_;
  }
  [[nodiscard]] const SimTime* payload_rtts() const { return payload_rtt_.data() + head_; }
  [[nodiscard]] const std::uint32_t* payload_bytes() const {
    return payload_bytes_.data() + head_;
  }

  /// CSV-encode rows [from, size()) — byte-identical to
  /// agent::encode_batch over the same rows.
  [[nodiscard]] std::string encode_csv(std::size_t from = 0) const;

 private:
  void compact();

  std::size_t head_ = 0;  // rows [0, head_) in the vectors are dead
  std::vector<SimTime> timestamp_;
  std::vector<std::uint32_t> src_ip_;
  std::vector<std::uint32_t> dst_ip_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dst_port_;
  std::vector<std::uint8_t> kind_;
  std::vector<std::uint8_t> qos_;
  std::vector<std::uint8_t> success_;
  std::vector<SimTime> rtt_;
  std::vector<std::uint8_t> payload_success_;
  std::vector<SimTime> payload_rtt_;
  std::vector<std::uint32_t> payload_bytes_;
};

/// Build a RecordColumns from an AoS batch.
RecordColumns to_columns(const std::vector<LatencyRecord>& records);

}  // namespace pingmesh::agent
