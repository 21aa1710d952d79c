// Tests for the paper-scale columnar hot path: RecordColumns (SoA batches),
// the binary columnar extent codec, the decode_extent dispatch, and the
// worker-count byte-identity contract with columnar extents enabled.
#include <gtest/gtest.h>

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
