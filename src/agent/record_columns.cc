#include "agent/record_columns.h"

#include "common/csv.h"

namespace pingmesh::agent {

void RecordColumns::push_back(const LatencyRecord& r) {
  timestamp_.push_back(r.timestamp);
  src_ip_.push_back(r.src_ip.v);
  dst_ip_.push_back(r.dst_ip.v);
  src_port_.push_back(r.src_port);
  dst_port_.push_back(r.dst_port);
  kind_.push_back(static_cast<std::uint8_t>(r.kind));
  qos_.push_back(static_cast<std::uint8_t>(r.qos));
  success_.push_back(r.success ? 1 : 0);
  rtt_.push_back(r.rtt);
  payload_success_.push_back(r.payload_success ? 1 : 0);
  payload_rtt_.push_back(r.payload_rtt);
  payload_bytes_.push_back(r.payload_bytes);
}

LatencyRecord RecordColumns::row(std::size_t i) const {
  const std::size_t j = head_ + i;
  LatencyRecord r;
  r.timestamp = timestamp_[j];
  r.src_ip = IpAddr(src_ip_[j]);
  r.dst_ip = IpAddr(dst_ip_[j]);
  r.src_port = src_port_[j];
  r.dst_port = dst_port_[j];
  r.kind = static_cast<controller::ProbeKind>(kind_[j]);
  r.qos = static_cast<controller::QosClass>(qos_[j]);
  r.success = success_[j] != 0;
  r.rtt = rtt_[j];
  r.payload_success = payload_success_[j] != 0;
  r.payload_rtt = payload_rtt_[j];
  r.payload_bytes = payload_bytes_[j];
  return r;
}

void RecordColumns::drop_front(std::size_t n) {
  if (n >= size()) {
    clear();
    return;
  }
  head_ += n;
  if (head_ > size()) compact();
}

void RecordColumns::compact() {
  const std::size_t live = timestamp_.size() - head_;
  auto shift = [this, live](auto& col) {
    for (std::size_t i = 0; i < live; ++i) col[i] = col[head_ + i];
    col.resize(live);
  };
  shift(timestamp_);
  shift(src_ip_);
  shift(dst_ip_);
  shift(src_port_);
  shift(dst_port_);
  shift(kind_);
  shift(qos_);
  shift(success_);
  shift(rtt_);
  shift(payload_success_);
  shift(payload_rtt_);
  shift(payload_bytes_);
  head_ = 0;
}

void RecordColumns::clear() {
  head_ = 0;
  timestamp_.clear();
  src_ip_.clear();
  dst_ip_.clear();
  src_port_.clear();
  dst_port_.clear();
  kind_.clear();
  qos_.clear();
  success_.clear();
  rtt_.clear();
  payload_success_.clear();
  payload_rtt_.clear();
  payload_bytes_.clear();
}

void RecordColumns::reserve(std::size_t n) {
  timestamp_.reserve(n);
  src_ip_.reserve(n);
  dst_ip_.reserve(n);
  src_port_.reserve(n);
  dst_port_.reserve(n);
  kind_.reserve(n);
  qos_.reserve(n);
  success_.reserve(n);
  rtt_.reserve(n);
  payload_success_.reserve(n);
  payload_rtt_.reserve(n);
  payload_bytes_.reserve(n);
}

void RecordColumns::append(const RecordColumns& other) {
  const std::size_t n = other.size();
  auto cat = [n](auto& dst, const auto* src) { dst.insert(dst.end(), src, src + n); };
  cat(timestamp_, other.timestamps());
  cat(src_ip_, other.src_ips());
  cat(dst_ip_, other.dst_ips());
  cat(src_port_, other.src_ports());
  cat(dst_port_, other.dst_ports());
  cat(kind_, other.kinds());
  cat(qos_, other.qos());
  cat(success_, other.successes());
  cat(rtt_, other.rtts());
  cat(payload_success_, other.payload_successes());
  cat(payload_rtt_, other.payload_rtts());
  cat(payload_bytes_, other.payload_bytes());
}

void RecordColumns::append_rows(const RecordColumns& other,
                                const std::vector<std::uint32_t>& rows) {
  if (rows.size() == other.size()) {  // every row: plain column copies
    append(other);
    return;
  }
  auto gather = [&rows](auto& dst, const auto* src) {
    std::size_t k = dst.size();
    dst.resize(k + rows.size());
    for (std::uint32_t i : rows) dst[k++] = src[i];
  };
  gather(timestamp_, other.timestamps());
  gather(src_ip_, other.src_ips());
  gather(dst_ip_, other.dst_ips());
  gather(src_port_, other.src_ports());
  gather(dst_port_, other.dst_ports());
  gather(kind_, other.kinds());
  gather(qos_, other.qos());
  gather(success_, other.successes());
  gather(rtt_, other.rtts());
  gather(payload_success_, other.payload_successes());
  gather(payload_rtt_, other.payload_rtts());
  gather(payload_bytes_, other.payload_bytes());
}

std::string RecordColumns::encode_csv(std::size_t from) const {
  std::string out;
  const std::size_t n = size();
  if (from >= n) return out;
  out.reserve((n - from) * 64);
  for (std::size_t i = from; i < n; ++i) {
    out += csv::encode_row(row(i).to_csv_row());
    out += '\n';
  }
  return out;
}

RecordColumns to_columns(const std::vector<LatencyRecord>& records) {
  RecordColumns cols;
  cols.reserve(records.size());
  for (const LatencyRecord& r : records) cols.push_back(r);
  return cols;
}

}  // namespace pingmesh::agent
