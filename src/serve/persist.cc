#include "serve/persist.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "dsa/extent_codec.h"

namespace pingmesh::serve {

namespace {

constexpr std::uint32_t kWalMagic = 0x4C574D50u;  // "PMWL" little-endian
constexpr std::uint8_t kWalVersion = 1;
constexpr std::size_t kWalHeaderBytes = 4 + 1 + 8 + 8 + 4;  // magic..payload_len
constexpr char kSegMagic[8] = {'P', 'M', 'R', 'S', 'E', 'G', '1', '\n'};
constexpr std::size_t kSegHeaderBytes = 8 + 8 + 8;  // magic, seq, payload_len
constexpr std::uint64_t kMaxSegmentPayloadBytes = 256ull * 1024 * 1024;

constexpr std::uint32_t kStateFormatVersion = 1;
/// Adversarial-input caps for restore_state (a hostile length field must
/// not drive allocation; real stores sit far below these).
constexpr std::uint64_t kMaxSeriesPerScope = 1u << 20;
constexpr std::uint64_t kMaxCellsPerTier = 1u << 20;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

/// Bounds-checked little-endian reader over untrusted bytes. Every getter
/// fails sticky (ok == false) past the end; callers check once per record.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint32_t get_u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[pos + i])) << (i * 8);
    }
    pos += 4;
    return v;
  }
  std::uint64_t get_u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos + i])) << (i * 8);
    }
    pos += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string_view take(std::size_t n) {
    if (!need(n)) return {};
    std::string_view v = data.substr(pos, n);
    pos += n;
    return v;
  }
  [[nodiscard]] std::size_t remaining() const { return ok ? data.size() - pos : 0; }
};

}  // namespace

// ---------------------------------------------------------------------------
// WAL frame codec
// ---------------------------------------------------------------------------

std::string encode_wal_frame(std::uint64_t seq, SimTime now, std::string_view payload) {
  PINGMESH_CHECK_MSG(payload.size() <= kMaxWalPayloadBytes, "WAL payload over frame cap");
  std::string out;
  out.reserve(kWalHeaderBytes + payload.size() + 4);
  put_u32(out, kWalMagic);
  out.push_back(static_cast<char>(kWalVersion));
  put_u64(out, seq);
  put_i64(out, now);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  // CRC covers seq..payload: corruption of any field the replay acts on is
  // detected; the magic is its own resync check.
  std::uint32_t crc = dsa::fnv1a(std::string_view(out).substr(5));
  put_u32(out, crc);
  return out;
}

bool decode_wal_frame(std::string_view data, std::size_t& pos, WalFrame* out) {
  if (data.size() - pos < kWalHeaderBytes + 4) return false;
  Cursor c{data, pos};
  if (c.get_u32() != kWalMagic) return false;
  if (static_cast<std::uint8_t>(c.take(1)[0]) != kWalVersion) return false;
  WalFrame f;
  f.seq = c.get_u64();
  f.now = c.get_i64();
  std::uint32_t len = c.get_u32();
  if (len > kMaxWalPayloadBytes) return false;
  f.payload = c.take(len);
  std::uint32_t crc = c.get_u32();
  if (!c.ok) return false;
  if (crc != dsa::fnv1a(data.substr(pos + 5, kWalHeaderBytes - 5 + len))) return false;
  pos = c.pos;
  *out = f;
  return true;
}

// ---------------------------------------------------------------------------
// Segment frame codec
// ---------------------------------------------------------------------------

std::string encode_segment_frame(std::uint64_t seq, std::string_view payload) {
  std::string out;
  out.reserve(kSegHeaderBytes + payload.size() + 4);
  out.append(kSegMagic, sizeof(kSegMagic));
  put_u64(out, seq);
  put_u64(out, payload.size());
  out.append(payload);
  put_u32(out, dsa::fnv1a(payload));
  return out;
}

bool decode_segment_frame(std::string_view data, std::size_t& pos, SegmentFrame* out) {
  if (data.size() - pos < kSegHeaderBytes + 4) return false;
  Cursor c{data, pos};
  std::string_view magic = c.take(sizeof(kSegMagic));
  if (std::memcmp(magic.data(), kSegMagic, sizeof(kSegMagic)) != 0) return false;
  SegmentFrame f;
  f.seq = c.get_u64();
  std::uint64_t len = c.get_u64();
  if (len > kMaxSegmentPayloadBytes || len > c.remaining()) return false;
  f.payload = c.take(static_cast<std::size_t>(len));
  std::uint32_t crc = c.get_u32();
  if (!c.ok || crc != dsa::fnv1a(f.payload)) return false;
  pos = c.pos;
  *out = f;
  return true;
}

// ---------------------------------------------------------------------------
// RollupStore state codec (member functions; see rollup.h)
// ---------------------------------------------------------------------------

namespace {

void encode_sketch(std::string& out, const LatencySketch& sk) {
  put_u64(out, sk.count());
  put_f64(out, sk.sum());
  put_i64(out, sk.observed_min_raw());
  put_i64(out, sk.observed_max_raw());
  const std::vector<std::uint64_t>& counts = sk.bucket_counts();
  std::uint32_t nonzero = 0;
  for (std::uint64_t c : counts) nonzero += c != 0 ? 1 : 0;
  put_u32(out, nonzero);
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    put_u32(out, i);
    put_u64(out, counts[i]);
  }
}

bool decode_sketch(Cursor& c, LatencySketch& sk) {
  std::uint64_t total = c.get_u64();
  double sum = c.get_f64();
  std::int64_t omin = c.get_i64();
  std::int64_t omax = c.get_i64();
  std::uint32_t nonzero = c.get_u32();
  if (!c.ok || nonzero > sk.bucket_count()) return false;
  std::vector<std::uint64_t> counts(sk.bucket_count(), 0);
  std::int64_t prev = -1;
  for (std::uint32_t i = 0; i < nonzero; ++i) {
    std::uint32_t idx = c.get_u32();
    std::uint64_t cnt = c.get_u64();
    if (!c.ok || idx >= counts.size() || static_cast<std::int64_t>(idx) <= prev ||
        cnt == 0) {
      return false;
    }
    prev = idx;
    counts[idx] = cnt;
  }
  return c.ok && sk.restore_state(counts, total, sum, omin, omax);
}

}  // namespace

std::string RollupStore::encode_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  put_u32(out, kStateFormatVersion);
  // Config echo: a segment written under one geometry must never restore
  // into a store built with another (cell alignment and sketch layout both
  // depend on it).
  for (int t = 0; t < 3; ++t) put_i64(out, cfg_.tier_width[t]);
  put_i64(out, cfg_.seal_grace);
  put_i64(out, cfg_.future_slack);
  put_u64(out, cfg_.max_tier2_cells);
  put_f64(out, Cell::kSketch.relative_error);
  put_i64(out, Cell::kSketch.min_value_ns);
  put_i64(out, Cell::kSketch.max_value_ns);

  put_u64(out, version_);
  put_i64(out, last_now_);
  for (int t = 0; t < 3; ++t) put_i64(out, sealed_until_[t]);
  put_u64(out, ingested_);
  put_u64(out, placed_);
  put_u64(out, skipped_);
  put_u64(out, rejected_future_);
  put_u64(out, late_dropped_);
  put_u64(out, expired_);

  auto encode_series = [&out](const Series& s) {
    for (int tier = 0; tier < 3; ++tier) {
      put_u64(out, s.tier[tier].size());
      for (const auto& [start, cell] : s.tier[tier]) {
        put_i64(out, start);
        put_u64(out, cell.probes);
        put_u64(out, cell.successes);
        put_u64(out, cell.failures);
        put_u64(out, cell.probes_3s);
        put_u64(out, cell.probes_9s);
        encode_sketch(out, cell.latency);
      }
    }
  };
  put_u64(out, pairs_.size());
  for (const auto& [key, series] : pairs_) {
    put_u64(out, key);
    encode_series(series);
  }
  put_u64(out, services_.size());
  for (const auto& [key, series] : services_) {
    put_u64(out, key);
    encode_series(series);
  }
  return out;
}

bool RollupStore::restore_state(std::string_view data) {
  Cursor c{data};
  if (c.get_u32() != kStateFormatVersion) return false;
  RollupConfig echo;
  for (int t = 0; t < 3; ++t) echo.tier_width[t] = c.get_i64();
  echo.seal_grace = c.get_i64();
  echo.future_slack = c.get_i64();
  echo.max_tier2_cells = static_cast<std::size_t>(c.get_u64());
  LatencySketch::Config sketch;
  sketch.relative_error = c.get_f64();
  sketch.min_value_ns = c.get_i64();
  sketch.max_value_ns = c.get_i64();
  if (!c.ok || echo.tier_width[0] != cfg_.tier_width[0] ||
      echo.tier_width[1] != cfg_.tier_width[1] ||
      echo.tier_width[2] != cfg_.tier_width[2] || echo.seal_grace != cfg_.seal_grace ||
      echo.future_slack != cfg_.future_slack ||
      echo.max_tier2_cells != cfg_.max_tier2_cells || !(sketch == Cell::kSketch)) {
    return false;
  }

  std::uint64_t version = c.get_u64();
  SimTime last_now = c.get_i64();
  SimTime sealed[3];
  for (int t = 0; t < 3; ++t) sealed[t] = c.get_i64();
  std::uint64_t ingested = c.get_u64();
  std::uint64_t placed = c.get_u64();
  std::uint64_t skipped = c.get_u64();
  std::uint64_t rejected_future = c.get_u64();
  std::uint64_t late_dropped = c.get_u64();
  std::uint64_t expired = c.get_u64();
  if (!c.ok || last_now < 0) return false;
  // Ledger identity 1 (overflow-safe: each term must fit under ingested).
  if (placed > ingested) return false;
  std::uint64_t accounted = placed;
  for (std::uint64_t term : {skipped, rejected_future, late_dropped}) {
    if (term > ingested - accounted) return false;
    accounted += term;
  }
  if (accounted != ingested) return false;
  for (int t = 0; t < 3; ++t) {
    if (sealed[t] < 0 || sealed[t] % cfg_.tier_width[t] != 0) return false;
  }

  auto decode_series = [this, &c](Series& s) -> bool {
    for (int tier = 0; tier < 3; ++tier) {
      std::uint64_t n = c.get_u64();
      // A cell is >= 84 encoded bytes; a count the remaining bytes cannot
      // hold is hostile, not truncated-but-valid.
      if (!c.ok || n > kMaxCellsPerTier || n > c.remaining() / 84) return false;
      SimTime prev_start = -1;
      const SimTime w = cfg_.tier_width[tier];
      for (std::uint64_t i = 0; i < n; ++i) {
        SimTime start = c.get_i64();
        if (!c.ok || start < 0 || start % w != 0 || start <= prev_start) return false;
        prev_start = start;
        auto [it, inserted] = s.tier[tier].try_emplace(start);
        PINGMESH_DCHECK(inserted);
        Cell& cell = it->second;
        cell.probes = c.get_u64();
        cell.successes = c.get_u64();
        cell.failures = c.get_u64();
        cell.probes_3s = c.get_u64();
        cell.probes_9s = c.get_u64();
        if (!c.ok || cell.probes == 0 || cell.successes > cell.probes ||
            cell.failures != cell.probes - cell.successes) {
          return false;
        }
        if (cell.probes_3s > cell.successes ||
            cell.probes_9s > cell.successes - cell.probes_3s) {
          return false;
        }
        if (!decode_sketch(c, cell.latency)) return false;
        // Every success is a latency sample, a 3 s signature, or a 9 s one.
        if (cell.latency.count() != cell.successes - cell.probes_3s - cell.probes_9s) {
          return false;
        }
      }
    }
    return true;
  };

  std::map<std::uint64_t, Series> pairs;
  std::map<std::uint32_t, Series> services;
  std::uint64_t n_pairs = c.get_u64();
  if (!c.ok || n_pairs > kMaxSeriesPerScope || n_pairs > c.remaining() / 32) return false;
  std::int64_t prev_key = -1;
  for (std::uint64_t i = 0; i < n_pairs; ++i) {
    std::uint64_t key = c.get_u64();
    if (!c.ok || (prev_key >= 0 && key <= static_cast<std::uint64_t>(prev_key))) {
      return false;
    }
    if (key > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      return false;  // pair keys are (pod << 32 | pod): top bit never set
    }
    prev_key = static_cast<std::int64_t>(key);
    if (!decode_series(pairs[key])) return false;
  }
  std::uint64_t n_services = c.get_u64();
  if (!c.ok || n_services > kMaxSeriesPerScope || n_services > c.remaining() / 32) {
    return false;
  }
  if (n_services > 0 && server_services_.empty()) return false;  // geometry mismatch
  std::int64_t prev_sid = -1;
  for (std::uint64_t i = 0; i < n_services; ++i) {
    std::uint64_t key = c.get_u64();
    if (!c.ok || key > 0xffffffffu || static_cast<std::int64_t>(key) <= prev_sid) {
      return false;
    }
    prev_sid = static_cast<std::int64_t>(key);
    if (!decode_series(services[static_cast<std::uint32_t>(key)])) return false;
  }
  if (!c.ok || c.remaining() != 0) return false;  // trailing bytes are hostile

  // Ledger identity 2: the queryable pair cells plus evictions must account
  // for every placed record (the same conservation check_conservation pins
  // on the live store — a segment that fails it cannot have been written by
  // a consistent store).
  if (expired > placed) return false;
  const std::uint64_t coverable = placed - expired;
  std::uint64_t covered = 0;
  for (const auto& [key, s] : pairs) {
    (void)key;
    for (int tier = 0; tier < 3; ++tier) {
      for (const auto& [start, cell] : s.tier[tier]) {
        bool queryable = tier == 0 || start < sealed[tier];
        if (!queryable) continue;
        if (cell.probes > coverable - covered) return false;  // overflow guard
        covered += cell.probes;
      }
    }
  }
  if (covered != coverable) return false;

  std::lock_guard<std::mutex> lock(mu_);
  pairs_ = std::move(pairs);
  services_ = std::move(services);
  version_ = version;
  last_now_ = last_now;
  for (int t = 0; t < 3; ++t) sealed_until_[t] = sealed[t];
  ingested_ = ingested;
  placed_ = placed;
  skipped_ = skipped;
  rejected_future_ = rejected_future;
  late_dropped_ = late_dropped;
  expired_ = expired;
  return true;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

RollupRecoveryStats recover_rollup_store(RollupStore& store, const dsa::CosmosStore& cosmos,
                                         const PersistConfig& pcfg) {
  RollupRecoveryStats st;

  // 1. Newest restorable checkpoint. Frames are collected across every
  // extent (appends concatenate), then tried newest-seq-first; a frame that
  // fails its checksum or its restore is quarantined and the next older
  // one tried — recovery degrades to a longer WAL replay, never to a wrong
  // answer.
  if (const dsa::CosmosStream* seg = cosmos.find(pcfg.segment_stream)) {
    std::vector<SegmentFrame> frames;
    for (const dsa::Extent& ext : seg->extents()) {
      if (!ext.verify()) {
        ++st.segments_quarantined;
        continue;
      }
      std::size_t pos = 0;
      while (pos < ext.data.size()) {
        SegmentFrame f;
        if (!decode_segment_frame(ext.data, pos, &f)) {
          ++st.segments_quarantined;  // torn tail of this extent
          break;
        }
        ++st.segments_seen;
        frames.push_back(f);
      }
    }
    std::stable_sort(frames.begin(), frames.end(),
                     [](const SegmentFrame& a, const SegmentFrame& b) {
                       return a.seq > b.seq;
                     });
    for (const SegmentFrame& f : frames) {
      if (store.restore_state(f.payload)) {
        st.from_checkpoint = true;
        st.checkpoint_seq = f.seq;
        break;
      }
      ++st.segments_quarantined;
    }
  }
  st.max_seq = st.checkpoint_seq;

  // 2. Replay the WAL suffix. Frames at or below the checkpoint seq are
  // already folded into the restored state.
  if (const dsa::CosmosStream* wal = cosmos.find(pcfg.wal_stream)) {
    for (const dsa::Extent& ext : wal->extents()) {
      if (!ext.verify()) {
        ++st.wal_extents_skipped;
        continue;
      }
      std::size_t pos = 0;
      while (pos < ext.data.size()) {
        WalFrame f;
        if (!decode_wal_frame(ext.data, pos, &f)) {
          st.wal_bytes_dropped += ext.data.size() - pos;  // torn tail
          break;
        }
        st.max_seq = std::max(st.max_seq, f.seq);
        if (f.seq <= st.checkpoint_seq) {
          ++st.wal_frames_skipped;
          continue;
        }
        if (f.payload.empty()) {
          store.advance(f.now);  // write-ahead seal record
        } else {
          agent::DecodeStats ds;
          agent::RecordColumns batch = dsa::decode_columnar(f.payload, &ds);
          store.on_records(batch, f.now);
          st.replayed_records += batch.size();
        }
        ++st.wal_frames_replayed;
      }
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// PersistentRollupStore
// ---------------------------------------------------------------------------

PersistentRollupStore::PersistentRollupStore(const topo::Topology& topo,
                                             const topo::ServiceMap* services,
                                             RollupConfig cfg, dsa::CosmosStore& cosmos,
                                             PersistConfig pcfg)
    : cosmos_(&cosmos), pcfg_(std::move(pcfg)), store_(topo, services, cfg) {
  recovery_ = recover_rollup_store(store_, cosmos, pcfg_);
  seq_ = recovery_.max_seq;
  checkpointed_tier1_ = store_.sealed_until(1);
  if (recovery_.checkpoint_seq > 0) segment_seqs_.push_back(recovery_.checkpoint_seq);
}

void PersistentRollupStore::append_wal(std::string_view payload, SimTime now) {
  ++seq_;
  std::string frame = encode_wal_frame(seq_, now, payload);
  wal_bytes_ += frame.size();
  ++wal_frames_;
  // The seq doubles as the extent timestamp so WAL trimming can use the
  // stream's expire_before in the seq domain.
  cosmos_->stream(pcfg_.wal_stream)
      .append(frame, 1, static_cast<SimTime>(seq_), static_cast<SimTime>(seq_), now,
              dsa::ExtentEncoding::kColumnar);
}

void PersistentRollupStore::on_records(const agent::RecordColumns& batch, SimTime now) {
  std::string payload;
  if (!batch.empty()) payload = dsa::encode_columnar(batch);
  append_wal(payload, now);  // write-ahead: durable before the apply
  store_.on_records(batch, now);
  maybe_checkpoint();
}

void PersistentRollupStore::advance(SimTime now) {
  append_wal({}, now);  // the write-ahead seal record
  store_.advance(now);
  maybe_checkpoint();
}

void PersistentRollupStore::checkpoint() { write_segment(); }

void PersistentRollupStore::maybe_checkpoint() {
  // A checkpoint segment whenever the tier-1 sealed watermark advances
  // (beyond that, checkpoint() forces one).
  if (store_.sealed_until(1) > checkpointed_tier1_) write_segment();
}

void PersistentRollupStore::write_segment() {
  const std::string payload = store_.encode_state();
  const std::string frame = encode_segment_frame(seq_, payload);
  dsa::CosmosStream& seg = cosmos_->stream(pcfg_.segment_stream);
  seg.append(frame, 1, static_cast<SimTime>(seq_), static_cast<SimTime>(seq_),
             store_.now(), dsa::ExtentEncoding::kColumnar);
  ++segments_written_;
  checkpointed_tier1_ = store_.sealed_until(1);
  // Retain kKeepSegments previous checkpoints as corruption fallback, and —
  // critically — keep the WAL replayable from the OLDEST retained
  // checkpoint, not just the newest. Trimming to the newest seq would turn
  // a quarantined segment into a replay gap (old state + missing frames):
  // recovery would be wrong rather than merely slower. (Extent granularity:
  // a partially covered open extent is kept whole — its already-covered
  // frames are skipped on replay by the seq comparison.)
  segment_seqs_.push_back(seq_);
  while (segment_seqs_.size() > kKeepSegments + 1) {
    segment_seqs_.erase(segment_seqs_.begin());
  }
  const std::uint64_t floor = segment_seqs_.front();
  if (floor > 0) seg.expire_before(static_cast<SimTime>(floor));
  cosmos_->stream(pcfg_.wal_stream).expire_before(static_cast<SimTime>(floor) + 1);
}

void PersistentRollupStore::enable_observability(obs::MetricsRegistry& registry) {
  registry.gauge_fn("serve.persist.wal_frames", "",
                    [this] { return static_cast<double>(wal_frames_); });
  registry.gauge_fn("serve.persist.wal_bytes", "",
                    [this] { return static_cast<double>(wal_bytes_); });
  registry.gauge_fn("serve.persist.segments_written", "",
                    [this] { return static_cast<double>(segments_written_); });
  registry.gauge_fn("serve.persist.segments_quarantined", "", [this] {
    return static_cast<double>(recovery_.segments_quarantined);
  });
  registry.gauge_fn("serve.persist.wal_replayed", "", [this] {
    return static_cast<double>(recovery_.wal_frames_replayed);
  });
  registry.gauge_fn("serve.persist.wal_bytes_dropped", "", [this] {
    return static_cast<double>(recovery_.wal_bytes_dropped);
  });
}

}  // namespace pingmesh::serve
