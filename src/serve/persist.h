// Rollup persistence — crash-consistent serving tier (DESIGN.md §13.5).
//
// The paper's serving pipeline survives component restarts because rollups
// live in Cosmos, not process memory; a QueryService bounce must not
// silently serve empty heatmaps. This module makes RollupStore durable
// through the existing CosmosStore with the classic WAL + checkpoint
// scheme, tuned for the store's determinism contract:
//
//  - every ingest batch and every watermark advance is appended to a WAL
//    stream (`pingmesh/rollup-wal`) as a framed, checksummed record BEFORE
//    it is applied to the in-memory store (write-ahead ordering: a crash
//    between the append and the apply replays as if the apply happened);
//  - an advance with no records is the *write-ahead seal record* — replays
//    of the full WAL re-run the exact seal/merge/evict sequence, so a crash
//    mid-seal can neither double-count a cell (seals are deterministic
//    functions of the replayed watermark) nor drop one (the seal record is
//    durable before the seal mutates memory); the conservation ledger
//    verifies this after recovery;
//  - whenever the tier-1 sealed watermark advances, the COMPLETE store
//    state (RollupStore::encode_state()) is written to a segment stream
//    (`pingmesh/rollup-seg`) as a versioned checkpoint carrying the WAL
//    sequence number it covers; the WAL prefix up to that sequence is then
//    expired (bounded storage).
//
// Recovery (recover_rollup_store): pick the newest segment whose checksum
// verifies AND whose payload restores cleanly — torn or corrupt segments
// are quarantined (counted, skipped) with fallback to the next older one —
// then replay WAL frames with seq > checkpoint seq in order. A torn WAL
// tail (truncated or checksum-failing frame) drops the remainder of that
// extent with decode-drop accounting, mirroring the columnar extent
// decoder's contract. Because ingest is deterministic, the recovered store
// is digest()-byte-identical to the pre-crash store for any cleanly
// WAL-covered prefix — the restart invariant chaos and serve_test assert.
//
// Thread-safety: like RollupStore's ingest, all mutating entry points
// (on_records / advance / checkpoint) are driver-thread-only; the wrapped
// store stays internally locked for the concurrent read tier.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsa/cosmos.h"
#include "dsa/uploader.h"
#include "obs/metrics.h"
#include "serve/rollup.h"

namespace pingmesh::serve {

/// Canonical stream names (alongside dsa::kLatencyStream).
inline const std::string kRollupWalStream = "pingmesh/rollup-wal";
inline const std::string kRollupSegmentStream = "pingmesh/rollup-seg";

struct PersistConfig {
  std::string wal_stream = kRollupWalStream;
  std::string segment_stream = kRollupSegmentStream;
};

/// Previous checkpoints kept as corruption fallback before older segment
/// extents expire.
constexpr std::uint64_t kKeepSegments = 2;

// -- WAL frame codec ---------------------------------------------------------
// Cosmos appends concatenate into extents, so WAL records are self-
// delimiting frames:  magic u32 | version u8 | seq u64 | now i64 |
// payload_len u32 | payload | crc u32 (FNV-1a over seq..payload).
// An empty payload is a seal record (advance(now)); otherwise the payload
// is one dsa::encode_columnar block.

struct WalFrame {
  std::uint64_t seq = 0;
  SimTime now = 0;
  std::string_view payload;  ///< view into the input buffer
};

/// Frame size ceiling (adversarial-input bound for the decoder).
constexpr std::uint32_t kMaxWalPayloadBytes = 16u * 1024 * 1024;

std::string encode_wal_frame(std::uint64_t seq, SimTime now, std::string_view payload);
/// Decode one frame at data[pos]; advances pos past it on success. Returns
/// false on truncation / bad magic / bad checksum (pos is left at the
/// failure; the caller drops the rest of the buffer). Safe on any bytes.
bool decode_wal_frame(std::string_view data, std::size_t& pos, WalFrame* out);

// -- checkpoint segment codec ------------------------------------------------
// Segment frame: magic "PMRSEG1\n" | seq u64 | payload_len u64 | payload |
// crc u32 (FNV-1a over the payload). The payload is
// RollupStore::encode_state() — itself strictly validated on restore.

struct SegmentFrame {
  std::uint64_t seq = 0;
  std::string_view payload;
};

std::string encode_segment_frame(std::uint64_t seq, std::string_view payload);
bool decode_segment_frame(std::string_view data, std::size_t& pos, SegmentFrame* out);

// -- recovery ----------------------------------------------------------------

struct RollupRecoveryStats {
  bool from_checkpoint = false;       ///< a segment restored successfully
  std::uint64_t checkpoint_seq = 0;   ///< WAL seq the restored segment covered
  std::uint64_t segments_seen = 0;
  std::uint64_t segments_quarantined = 0;  ///< torn / corrupt / failed restore
  std::uint64_t wal_frames_replayed = 0;
  std::uint64_t wal_frames_skipped = 0;  ///< seq <= checkpoint (already covered)
  std::uint64_t wal_bytes_dropped = 0;   ///< torn tails after a bad frame
  std::uint64_t wal_extents_skipped = 0; ///< extent-level checksum failures
  std::uint64_t replayed_records = 0;
  std::uint64_t max_seq = 0;  ///< highest WAL seq observed (resume point)
};

/// Rebuild `store` (freshly constructed, same config the persisted state
/// was written with) from the segment + WAL streams in `cosmos`. Read-only
/// on the cosmos store — restart storms never grow the streams. Returns
/// per-source accounting; when neither stream exists the store is left
/// empty and the stats are all zero.
RollupRecoveryStats recover_rollup_store(RollupStore& store, const dsa::CosmosStore& cosmos,
                                         const PersistConfig& pcfg = {});

// -- the durable store -------------------------------------------------------

class PersistentRollupStore final : public dsa::RecordTap {
 public:
  /// Recovers from `cosmos` (if the streams hold state) before accepting
  /// new ingest; `cosmos` must outlive the store.
  PersistentRollupStore(const topo::Topology& topo, const topo::ServiceMap* services,
                        RollupConfig cfg, dsa::CosmosStore& cosmos,
                        PersistConfig pcfg = {});

  /// Uploader-tap entry point: WAL-append the batch, apply it, then write a
  /// checkpoint if the tier-1 watermark moved. Driver thread only.
  void on_records(const agent::RecordColumns& batch, SimTime now) override;
  /// Durable watermark advance (writes the write-ahead seal record first).
  void advance(SimTime now);
  /// Force a checkpoint segment now (shutdown hooks, benches).
  void checkpoint();

  [[nodiscard]] RollupStore& store() { return store_; }
  [[nodiscard]] const RollupStore& store() const { return store_; }
  [[nodiscard]] const RollupRecoveryStats& recovery() const { return recovery_; }

  [[nodiscard]] std::uint64_t wal_frames() const { return wal_frames_; }
  [[nodiscard]] std::uint64_t wal_bytes() const { return wal_bytes_; }
  [[nodiscard]] std::uint64_t segments_written() const { return segments_written_; }
  [[nodiscard]] std::uint64_t next_seq() const { return seq_; }

  /// Register serve.persist.* instruments (WAL/segment counters and the
  /// recovery accounting).
  void enable_observability(obs::MetricsRegistry& registry);

 private:
  void append_wal(std::string_view payload, SimTime now);
  void maybe_checkpoint();
  void write_segment();

  dsa::CosmosStore* cosmos_;
  PersistConfig pcfg_;
  RollupStore store_;
  RollupRecoveryStats recovery_;

  std::uint64_t seq_ = 0;  ///< next WAL sequence number
  SimTime checkpointed_tier1_ = 0;  ///< sealed_until(1) at the last segment
  std::uint64_t wal_frames_ = 0;
  std::uint64_t wal_bytes_ = 0;
  std::uint64_t segments_written_ = 0;
  /// WAL seqs of retained checkpoints, oldest first; the front is the WAL
  /// trim floor (recovery may have to roll forward from it).
  std::vector<std::uint64_t> segment_seqs_;
};

}  // namespace pingmesh::serve
