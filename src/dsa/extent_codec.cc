#include "dsa/extent_codec.h"

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace pingmesh::dsa {

namespace {

constexpr char kMagic = static_cast<char>(0xC1);

/// Writes `v` as a varint at `p`; returns the byte past it.
char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

bool get_varint(std::string_view data, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) return false;
    std::uint8_t byte = static_cast<std::uint8_t>(data[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // > 10 continuation bytes: not a valid 64-bit varint
}

char* put_u32le(char* p, std::uint32_t v) {
  *p++ = static_cast<char>(v & 0xFF);
  *p++ = static_cast<char>((v >> 8) & 0xFF);
  *p++ = static_cast<char>((v >> 16) & 0xFF);
  *p++ = static_cast<char>((v >> 24) & 0xFF);
  return p;
}

bool get_u32le(std::string_view data, std::size_t& pos, std::uint32_t& v) {
  if (data.size() - pos < 4) return false;
  v = static_cast<std::uint8_t>(data[pos]) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + 1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + 2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + 3])) << 24);
  pos += 4;
  return true;
}

// Longest varints, in bytes, of a 64-, 32- and 16-bit value.
constexpr std::size_t kVarint64 = 10;
constexpr std::size_t kVarint32 = 5;
constexpr std::size_t kVarint16 = 3;
/// The most one row can take: two dictionary indexes, the timestamp delta,
/// two ports, the flags byte, two RTTs and the payload size.
constexpr std::size_t kMaxRowBytes =
    2 * kVarint32 + kVarint64 + 2 * kVarint16 + 1 + 2 * kVarint64 + kVarint32;

/// The src/dst IP dictionary of one batch, in first-appearance order, with
/// an open-addressing index sized to the batch: at most 2n addresses for n
/// rows, in a power-of-two table kept at most half full.
class IpDictionary {
 public:
  explicit IpDictionary(std::size_t rows) {
    std::size_t capacity = 16;
    while (capacity < 4 * rows) capacity *= 2;
    slots_.assign(capacity, kFree);
    shift_ = 64 - std::countr_zero(capacity);
    ips_.reserve(2 * rows);
  }

  /// The dictionary index of `ip`, adding it if it is new.
  std::uint32_t intern(std::uint32_t ip) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (ip * 0x9E3779B97F4A7C15ull) >> shift_;; i = (i + 1) & mask) {
      const std::uint32_t idx = slots_[i];
      if (idx == kFree) {
        slots_[i] = static_cast<std::uint32_t>(ips_.size());
        ips_.push_back(ip);
        return slots_[i];
      }
      if (ips_[idx] == ip) return idx;
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>& ips() const { return ips_; }

 private:
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  std::vector<std::uint32_t> slots_;  // dictionary index, or kFree
  std::vector<std::uint32_t> ips_;
  int shift_ = 0;
};

}  // namespace

std::string encode_columnar(const agent::RecordColumns& batch) {
  const std::size_t n = batch.size();
  if (n == 0) return std::string{kMagic, '\0'};

  // Shared src/dst IP dictionary in first-appearance order: a batch from one
  // agent has 1 src and a pinglist's worth of dsts, so indexes stay tiny.
  IpDictionary dict(n);
  std::vector<std::uint32_t> idx(2 * n);
  const std::uint32_t* src = batch.src_ips();
  const std::uint32_t* dst = batch.dst_ips();
  for (std::size_t i = 0; i < n; ++i) idx[i] = dict.intern(src[i]);
  for (std::size_t i = 0; i < n; ++i) idx[n + i] = dict.intern(dst[i]);
  const std::vector<std::uint32_t>& ips = dict.ips();

  // Write through a pointer into a buffer sized for the longest encoding,
  // then trim it once.
  std::string out(1 + 2 * kVarint64 + 4 * ips.size() + kMaxRowBytes * n, '\0');
  char* const begin = out.data();
  char* p = begin;
  *p++ = kMagic;
  p = put_varint(p, n);
  p = put_varint(p, ips.size());
  for (std::uint32_t ip : ips) p = put_u32le(p, ip);
  for (std::uint32_t i : idx) p = put_varint(p, i);

  const SimTime* ts = batch.timestamps();
  p = put_varint(p, zigzag(ts[0]));
  for (std::size_t i = 1; i < n; ++i) p = put_varint(p, zigzag(ts[i] - ts[i - 1]));

  const std::uint16_t* sp = batch.src_ports();
  const std::uint16_t* dp = batch.dst_ports();
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, sp[i]);
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, dp[i]);

  const std::uint8_t* kind = batch.kinds();
  const std::uint8_t* qos = batch.qos();
  const std::uint8_t* ok = batch.successes();
  const std::uint8_t* pok = batch.payload_successes();
  for (std::size_t i = 0; i < n; ++i) {
    *p++ = static_cast<char>((kind[i] & 0x3) | ((qos[i] & 0x1) << 2) |
                             ((ok[i] & 0x1) << 3) | ((pok[i] & 0x1) << 4));
  }

  const SimTime* rtt = batch.rtts();
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, zigzag(rtt[i]));
  const SimTime* prtt = batch.payload_rtts();
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, zigzag(prtt[i]));
  const std::uint32_t* pbytes = batch.payload_bytes();
  for (std::size_t i = 0; i < n; ++i) p = put_varint(p, pbytes[i]);

  const auto written = static_cast<std::size_t>(p - begin);
  PINGMESH_DCHECK(written <= out.size());
  out.resize(written);
  return out;
}

bool decode_columnar_block(std::string_view data, std::size_t& pos,
                           agent::RecordColumns& out, agent::DecodeStats* stats) {
  const std::size_t start_rows = out.size();
  std::uint64_t n = 0;
  auto fail = [&](std::uint64_t claimed) {
    if (stats != nullptr) {
      stats->rows_decoded += out.size() - start_rows;
      // Everything the header promised but we could not recover is a drop;
      // an unreadable header itself counts as (at least) one lost row.
      std::uint64_t got = out.size() - start_rows;
      stats->rows_dropped += claimed > got ? claimed - got : 1;
    }
    return false;
  };
  if (pos >= data.size() || data[pos] != kMagic) return fail(0);
  ++pos;
  if (!get_varint(data, pos, n)) return fail(0);
  // Adversarial-size bound: every row needs >= 1 byte in each of the 8
  // per-row sections, so a count the remaining bytes cannot possibly hold
  // is rejected before any allocation.
  if (n > (data.size() - pos) / 8 + 1) return fail(n);
  if (n == 0) return true;

  std::uint64_t dict_size = 0;
  if (!get_varint(data, pos, dict_size)) return fail(n);
  if (dict_size > (data.size() - pos) / 4) return fail(n);
  std::vector<std::uint32_t> dict(dict_size);
  for (std::uint64_t i = 0; i < dict_size; ++i) {
    if (!get_u32le(data, pos, dict[i])) return fail(n);
  }

  std::vector<std::uint32_t> src(n), dst(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t idx = 0;
    if (!get_varint(data, pos, idx) || idx >= dict_size) return fail(n);
    src[i] = dict[idx];
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t idx = 0;
    if (!get_varint(data, pos, idx) || idx >= dict_size) return fail(n);
    dst[i] = dict[idx];
  }

  std::vector<SimTime> ts(n);
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(data, pos, raw)) return fail(n);
    prev = (i == 0) ? unzigzag(raw) : prev + unzigzag(raw);
    ts[i] = prev;
  }

  std::vector<std::uint16_t> sp(n), dp(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!get_varint(data, pos, v) || v > 0xFFFF) return fail(n);
    sp[i] = static_cast<std::uint16_t>(v);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!get_varint(data, pos, v) || v > 0xFFFF) return fail(n);
    dp[i] = static_cast<std::uint16_t>(v);
  }

  if (data.size() - pos < n) return fail(n);
  const std::size_t flags_at = pos;
  pos += n;
  // Validate flags before committing rows: kind has 3 legal values.
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint8_t f = static_cast<std::uint8_t>(data[flags_at + i]);
    if ((f & 0x3) > 2 || (f & 0xE0) != 0) return fail(n);
  }

  std::vector<SimTime> rtt(n), prtt(n);
  std::vector<std::uint32_t> pbytes(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(data, pos, raw)) return fail(n);
    rtt[i] = unzigzag(raw);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(data, pos, raw)) return fail(n);
    prtt[i] = unzigzag(raw);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!get_varint(data, pos, v) || v > 0xFFFFFFFFu) return fail(n);
    pbytes[i] = static_cast<std::uint32_t>(v);
  }

  for (std::uint64_t i = 0; i < n; ++i) {
    agent::LatencyRecord r;
    std::uint8_t f = static_cast<std::uint8_t>(data[flags_at + i]);
    r.timestamp = ts[i];
    r.src_ip = IpAddr(src[i]);
    r.dst_ip = IpAddr(dst[i]);
    r.src_port = sp[i];
    r.dst_port = dp[i];
    r.kind = static_cast<controller::ProbeKind>(f & 0x3);
    r.qos = static_cast<controller::QosClass>((f >> 2) & 0x1);
    r.success = ((f >> 3) & 0x1) != 0;
    r.payload_success = ((f >> 4) & 0x1) != 0;
    r.rtt = rtt[i];
    r.payload_rtt = prtt[i];
    r.payload_bytes = pbytes[i];
    out.push_back(r);
  }
  if (stats != nullptr) stats->rows_decoded += n;
  return true;
}

agent::RecordColumns decode_columnar(std::string_view data, agent::DecodeStats* stats) {
  agent::RecordColumns out;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (!decode_columnar_block(data, pos, out, stats)) break;
  }
  return out;
}

agent::RecordColumns decode_extent(const Extent& e, agent::DecodeStats* stats) {
  if (e.encoding == ExtentEncoding::kColumnar) return decode_columnar(e.data, stats);
  return agent::to_columns(agent::decode_batch(e.data, stats));
}

}  // namespace pingmesh::dsa
