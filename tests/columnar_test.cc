// Tests for the paper-scale columnar hot path: RecordColumns (SoA batches),
// the binary columnar extent codec, the decode_extent dispatch, and the
// worker-count byte-identity contract with columnar extents enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "agent/record.h"
#include "agent/record_columns.h"
#include "common/csv.h"
#include "core/simulation.h"
#include "dsa/cosmos.h"
#include "dsa/extent_codec.h"

namespace pingmesh {
namespace {

using agent::DecodeStats;
using agent::LatencyRecord;
using agent::RecordColumns;

LatencyRecord rec(SimTime ts, std::uint32_t src, std::uint32_t dst,
                  SimTime rtt = micros(250), bool success = true) {
  LatencyRecord r;
  r.timestamp = ts;
  r.src_ip = IpAddr(src);
  r.dst_ip = IpAddr(dst);
  r.src_port = static_cast<std::uint16_t>(40000 + ts % 1000);
  r.dst_port = 33100;
  r.success = success;
  r.rtt = rtt;
  return r;
}

/// A golden batch covering every field: plain connects, failures, payload
/// probes, both QoS classes, repeated and unique IPs, out-of-order and
/// duplicate timestamps.
std::vector<LatencyRecord> golden_batch() {
  std::vector<LatencyRecord> v;
  v.push_back(rec(seconds(10), 0x0A000001, 0x0A000102));
  v.push_back(rec(seconds(10), 0x0A000001, 0x0A000103, micros(310)));
  v.push_back(rec(seconds(12), 0x0A000002, 0x0A000102, millis(3), false));
  LatencyRecord payload = rec(seconds(9), 0x0A000003, 0x0A000001, micros(190));
  payload.kind = controller::ProbeKind::kTcpPayload;
  payload.qos = controller::QosClass::kLow;
  payload.payload_success = true;
  payload.payload_rtt = micros(420);
  payload.payload_bytes = 64 * 1024;
  v.push_back(payload);
  LatencyRecord http = rec(seconds(15), 0x0A000001, 0x0A000102, micros(500));
  http.kind = controller::ProbeKind::kHttpGet;
  http.payload_bytes = 800;
  v.push_back(http);
  return v;
}

// ---------------------------------------------------------------------------
// RecordColumns
// ---------------------------------------------------------------------------

TEST(RecordColumns, BytesPerRecordTracksRepresentation) {
  // The admission budget scales the whole fleet's buffer cap; pin the
  // computed value so a field added to LatencyRecord forces a conscious
  // update here and in record_columns.h.
  EXPECT_EQ(RecordColumns::kBytesPerRecord, 44u);
}

TEST(RecordColumns, RowRoundTripPreservesEveryField) {
  std::vector<LatencyRecord> batch = golden_batch();
  RecordColumns cols = agent::to_columns(batch);
  ASSERT_EQ(cols.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(csv::encode_row(cols.row(i).to_csv_row()),
              csv::encode_row(batch[i].to_csv_row()))
        << "row " << i;
  }
}

TEST(RecordColumns, EncodeCsvMatchesAosEncoder) {
  std::vector<LatencyRecord> batch = golden_batch();
  RecordColumns cols = agent::to_columns(batch);
  EXPECT_EQ(cols.encode_csv(), agent::encode_batch(batch));
  // Suffix encoding matches a suffix AoS batch.
  std::vector<LatencyRecord> tail(batch.begin() + 2, batch.end());
  EXPECT_EQ(cols.encode_csv(2), agent::encode_batch(tail));
}

TEST(RecordColumns, DropFrontIsStableAcrossCompaction) {
  RecordColumns cols;
  for (int i = 0; i < 100; ++i) {
    cols.push_back(rec(seconds(i), 0x0A000001, 0x0A000002, micros(100 + i)));
  }
  cols.drop_front(30);  // head offset only
  ASSERT_EQ(cols.size(), 70u);
  EXPECT_EQ(cols.row(0).timestamp, seconds(30));
  EXPECT_EQ(cols.timestamps()[0], seconds(30));
  cols.drop_front(40);  // forces compaction (head > live)
  ASSERT_EQ(cols.size(), 30u);
  EXPECT_EQ(cols.row(0).timestamp, seconds(70));
  EXPECT_EQ(cols.row(29).timestamp, seconds(99));
  cols.drop_front(1000);  // over-drop clears
  EXPECT_TRUE(cols.empty());
}

TEST(RecordColumns, ClearKeepsCapacityForArenaReuse) {
  RecordColumns cols;
  cols.reserve(64);
  for (int i = 0; i < 50; ++i) cols.push_back(rec(seconds(i), 1, 2));
  std::size_t cap = cols.capacity();
  EXPECT_GE(cap, 64u);
  cols.clear();
  EXPECT_TRUE(cols.empty());
  EXPECT_EQ(cols.capacity(), cap);
}

TEST(RecordColumns, AppendConcatenates) {
  RecordColumns a = agent::to_columns(golden_batch());
  RecordColumns b;
  b.push_back(rec(seconds(99), 7, 8));
  a.append(b);
  ASSERT_EQ(a.size(), golden_batch().size() + 1);
  EXPECT_EQ(a.row(a.size() - 1).timestamp, seconds(99));
}

// ---------------------------------------------------------------------------
// Columnar codec
// ---------------------------------------------------------------------------

TEST(ExtentCodec, RoundTripsGoldenBatch) {
  RecordColumns cols = agent::to_columns(golden_batch());
  std::string blob = dsa::encode_columnar(cols);
  DecodeStats stats;
  RecordColumns back = dsa::decode_columnar(blob, &stats);
  EXPECT_EQ(stats.rows_dropped, 0u);
  EXPECT_EQ(stats.rows_decoded, cols.size());
  // Field-exact equality via the canonical CSV rendering.
  EXPECT_EQ(back.encode_csv(), cols.encode_csv());
}

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Rows at the format's limits: 65 rows with a fresh src and dst each (130
/// dictionary entries, so later indexes take two bytes), timestamps that
/// swing by 2^63 - 1 both ways, and RTTs, ports and payload sizes at their
/// type limits, so each of those varints takes its longest form.
RecordColumns extremes_batch() {
  RecordColumns cols;
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  for (std::uint32_t i = 0; i < 65; ++i) {
    LatencyRecord r;
    r.timestamp = i % 2 == 0 ? kMin : -1;
    r.src_ip = IpAddr(0xFFFFFF00u - i);
    r.dst_ip = IpAddr(i);
    r.src_port = 0xFFFF;
    r.dst_port = static_cast<std::uint16_t>(0xFFFF - i);
    r.kind = static_cast<controller::ProbeKind>(i % 3);
    r.qos = i % 2 == 0 ? controller::QosClass::kHigh : controller::QosClass::kLow;
    r.success = i % 3 != 1;
    r.payload_success = i % 4 == 0;
    r.rtt = i % 2 == 0 ? kMin : kMax;
    r.payload_rtt = i % 2 == 0 ? kMax : kMin;
    r.payload_bytes = 0xFFFFFFFFu;
    cols.push_back(r);
  }
  return cols;
}

// The exact output bytes of the format, written against the first
// implementation: a rewrite of the encoder must reproduce every byte, which
// a round trip alone would not show.
TEST(ExtentCodec, EncodesToPinnedBytes) {
  EXPECT_EQ(to_hex(dsa::encode_columnar(agent::to_columns(golden_batch()))),
            "c105050100000a0200000a0300000a0201000a0301000a000001020003040300038090dfc04a"
            "0080d0acf30efff782ad1680f085da2cc0b802c0b802c0b802c0b802c0b802cc8202cc8202cc"
            "8202cc8202cc82020808001d0aa0c21ee0eb25809bee02e09817c0843d000000c0a23300000000"
            "808004a006");

  const RecordColumns extremes = extremes_batch();
  const std::string blob = dsa::encode_columnar(extremes);
  EXPECT_EQ(blob.size(), 3386u);
  EXPECT_EQ(fnv1a64(blob), 4211954378528462432ull);
  EXPECT_EQ(to_hex(blob.substr(0, 12)), "c141820100fffffffffeffff");
  // The longest any row can take: two dictionary indexes (5-byte varints of
  // a u32), the timestamp delta (10), two ports (3 each), the flags byte,
  // two RTTs (10 each) and the payload size (5). With the magic byte, two
  // 10-byte counts and 4 bytes per dictionary entry, that bounds a block;
  // the extremes batch comes within the short index varints of it.
  constexpr std::size_t kMaxRowBytes = 5 + 5 + 10 + 3 + 3 + 1 + 10 + 10 + 5;
  const std::size_t rows = extremes.size();
  const std::size_t dict = 2 * rows;
  const std::size_t bound = 1 + 10 + 10 + 4 * dict + kMaxRowBytes * rows;
  EXPECT_LE(blob.size(), bound);
  EXPECT_GE(blob.size() + 21 + 8 * rows, bound);
  const RecordColumns back = dsa::decode_columnar(blob);
  EXPECT_EQ(back.encode_csv(), extremes.encode_csv());
}

TEST(ExtentCodec, BinaryIsSmallerThanCsv) {
  // The headline claim: dictionary + delta + varint beats text. Use a
  // realistic batch (one src, few dsts, clustered timestamps).
  RecordColumns cols;
  for (int i = 0; i < 1000; ++i) {
    cols.push_back(rec(seconds(10) + millis(i), 0x0A000001,
                       0x0A000100 + static_cast<std::uint32_t>(i % 50),
                       micros(200 + i % 97)));
  }
  std::string binary = dsa::encode_columnar(cols);
  std::string csv = cols.encode_csv();
  EXPECT_LT(binary.size() * 3, csv.size())
      << "binary " << binary.size() << " vs csv " << csv.size();
}

TEST(ExtentCodec, ConcatenatedBlocksDecodeAsOneExtent) {
  RecordColumns a = agent::to_columns(golden_batch());
  RecordColumns b;
  b.push_back(rec(seconds(50), 0x0A000009, 0x0A00000A));
  std::string blob = dsa::encode_columnar(a) + dsa::encode_columnar(b);
  RecordColumns all = dsa::decode_columnar(blob);
  ASSERT_EQ(all.size(), a.size() + b.size());
  a.append(b);
  EXPECT_EQ(all.encode_csv(), a.encode_csv());
}

TEST(ExtentCodec, EmptyBatchRoundTrips) {
  RecordColumns empty;
  std::string blob = dsa::encode_columnar(empty);
  EXPECT_TRUE(dsa::decode_columnar(blob).empty());
}

TEST(ExtentCodec, TruncationAtEveryByteNeverCrashesAndCountsDrops) {
  RecordColumns cols = agent::to_columns(golden_batch());
  std::string blob = dsa::encode_columnar(cols);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    DecodeStats stats;
    RecordColumns out = dsa::decode_columnar(blob.substr(0, cut), &stats);
    // A truncated block never yields rows silently: whatever failed to
    // decode is accounted as dropped.
    if (cut > 0) {
      EXPECT_GT(stats.rows_dropped, 0u) << "cut=" << cut;
    }
    EXPECT_EQ(out.size(), stats.rows_decoded) << "cut=" << cut;
  }
}

TEST(ExtentCodec, BitFlipsNeverCrash) {
  RecordColumns cols = agent::to_columns(golden_batch());
  std::string blob = dsa::encode_columnar(cols);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      DecodeStats stats;
      RecordColumns out = dsa::decode_columnar(mutated, &stats);
      EXPECT_EQ(out.size(), stats.rows_decoded);
    }
  }
}

TEST(ExtentCodec, AdversarialRowCountIsBounded) {
  // A block claiming 2^40 rows in 4 bytes must be rejected before any
  // allocation, not after.
  std::string evil;
  evil.push_back(static_cast<char>(0xC1));
  for (int i = 0; i < 5; ++i) evil.push_back(static_cast<char>(0xFF));
  evil.push_back(0x01);
  DecodeStats stats;
  RecordColumns out = dsa::decode_columnar(evil, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(stats.rows_dropped, 0u);
}

// ---------------------------------------------------------------------------
// decode_extent dispatch + Cosmos encoding metadata
// ---------------------------------------------------------------------------

TEST(ExtentCodec, DecodeExtentHandlesBothEncodings) {
  std::vector<LatencyRecord> batch = golden_batch();
  RecordColumns cols = agent::to_columns(batch);

  dsa::Extent csv_extent;
  csv_extent.data = agent::encode_batch(batch);
  csv_extent.encoding = dsa::ExtentEncoding::kCsv;

  dsa::Extent col_extent;
  col_extent.data = dsa::encode_columnar(cols);
  col_extent.encoding = dsa::ExtentEncoding::kColumnar;

  EXPECT_EQ(dsa::decode_extent(csv_extent).encode_csv(),
            dsa::decode_extent(col_extent).encode_csv());
}

TEST(Cosmos, AppendRollsOverOnEncodingChange) {
  dsa::CosmosStore store(/*extent_size_limit=*/1 << 20);
  dsa::CosmosStream& s = store.stream("t");
  s.append("a,b\n", 1, seconds(1), seconds(1), seconds(1),
           dsa::ExtentEncoding::kCsv);
  s.append("c,d\n", 1, seconds(2), seconds(2), seconds(2),
           dsa::ExtentEncoding::kCsv);
  ASSERT_EQ(s.extents().size(), 1u);  // same encoding: grows the open extent
  s.append("\xC1\x00", 1, seconds(3), seconds(3), seconds(3),
           dsa::ExtentEncoding::kColumnar);
  ASSERT_EQ(s.extents().size(), 2u);  // encoding change: new extent
  EXPECT_EQ(s.extents()[0].encoding, dsa::ExtentEncoding::kCsv);
  EXPECT_EQ(s.extents()[1].encoding, dsa::ExtentEncoding::kColumnar);
}

// ---------------------------------------------------------------------------
// Worker-count byte-identity with columnar extents
// ---------------------------------------------------------------------------

core::SimulationConfig fleet_config(int workers) {
  core::SimulationConfig cfg;
  topo::DcSpec spec;
  spec.name = "DC1";
  spec.region = "US West";
  spec.podsets = 2;
  spec.pods_per_podset = 3;
  spec.servers_per_pod = 4;
  cfg.dcs = {spec};
  cfg.seed = 20260807;
  cfg.worker_threads = workers;
  cfg.columnar_extents = true;
  cfg.agent.upload_batch_records = 20;
  return cfg;
}

TEST(ColumnarParallel, WorkerCountDoesNotChangeTheRecordStream) {
  std::string baseline;
  std::uint64_t baseline_probes = 0;
  for (int workers : {1, 4}) {
    core::PingmeshSimulation sim(fleet_config(workers));
    sim.run_for(minutes(10));
    std::string bytes = sim.records_between(0, sim.now() + 1).encode_csv();
    EXPECT_EQ(sim.decode_rows_dropped(), 0u);
    if (workers == 1) {
      baseline = bytes;
      baseline_probes = sim.total_probes();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(bytes, baseline) << "worker count changed the record stream";
      EXPECT_EQ(sim.total_probes(), baseline_probes);
    }
  }
}

TEST(ColumnarParallel, CsvAndColumnarExtentsDecodeIdentically) {
  // Same seed, both encodings: the scan path must hand SCOPE the exact
  // same records either way.
  std::string streams[2];
  for (int i = 0; i < 2; ++i) {
    core::SimulationConfig cfg = fleet_config(1);
    cfg.columnar_extents = (i == 1);
    core::PingmeshSimulation sim(cfg);
    sim.run_for(minutes(10));
    streams[i] = sim.records_between(0, sim.now() + 1).encode_csv();
    EXPECT_EQ(sim.decode_rows_dropped(), 0u);
  }
  EXPECT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

}  // namespace
}  // namespace pingmesh
