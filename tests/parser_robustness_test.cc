// Malformed-input contracts for three of the fuzzed parsers, driven from the
// same checked-in corpora the fuzz harnesses replay (tests/corpus/). Each
// parser has one documented failure mode and must hit exactly it:
//
//   xml::parse        — throws std::runtime_error with an "offset N" position
//   http parse_*      — returns std::nullopt
//   cosmos_io load    — returns std::nullopt, or counts corrupt extents
//
// Anything else (crash, UB, unbounded allocation, wrong exception type) is
// a regression the corpus replay would also catch; here we additionally
// assert the *positive* properties of each mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/xml.h"
#include "dsa/cosmos_io.h"
#include "net/http.h"

namespace {

namespace fs = std::filesystem;

std::string corpus_dir(const std::string& parser) {
  return std::string(PINGMESH_CORPUS_DIR) + "/" + parser;
}

std::vector<std::string> corpus_files(const std::string& parser) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(corpus_dir(parser))) {
    if (entry.is_regular_file()) out.push_back(entry.path().string());
  }
  EXPECT_GE(out.size(), 3u) << "corpus " << parser << " went missing";
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- xml -------------------------------------------------------------------

TEST(XmlRobustness, CorpusParsesOrThrowsWithPosition) {
  for (const std::string& path : corpus_files("xml")) {
    std::string doc = slurp(path);
    try {
      auto root = pingmesh::xml::parse(doc);
      EXPECT_NE(root, nullptr) << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << path << ": " << e.what();
    }
  }
}

TEST(XmlRobustness, DepthBombThrowsInsteadOfOverflowingStack) {
  std::string bomb;
  for (std::size_t i = 0; i < pingmesh::xml::kMaxDepth + 50; ++i) bomb += "<d>";
  try {
    (void)pingmesh::xml::parse(bomb);
    FAIL() << "depth bomb parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("depth"), std::string::npos) << e.what();
  }
}

TEST(XmlRobustness, DepthJustBelowTheLimitStillParses) {
  std::string doc;
  for (std::size_t i = 0; i < pingmesh::xml::kMaxDepth; ++i) doc += "<d>";
  for (std::size_t i = 0; i < pingmesh::xml::kMaxDepth; ++i) doc += "</d>";
  EXPECT_NE(pingmesh::xml::parse(doc), nullptr);
}

TEST(XmlRobustness, OversizedDocumentIsRejectedUpFront) {
  // One element, padded with whitespace beyond the cap: rejected by size
  // before any parsing work happens.
  std::string doc(pingmesh::xml::kMaxDocumentBytes + 1, ' ');
  doc.replace(0, 7, "<a></a>");
  try {
    (void)pingmesh::xml::parse(doc);
    FAIL() << "oversized document parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("size cap"), std::string::npos) << e.what();
  }
}

// --- http ------------------------------------------------------------------

TEST(HttpRobustness, CorpusNeverThrows) {
  for (const std::string& path : corpus_files("http")) {
    std::string bytes = slurp(path);
    EXPECT_NO_THROW({
      (void)pingmesh::net::parse_request(bytes);
      (void)pingmesh::net::parse_response(bytes);
    }) << path;
  }
}

TEST(HttpRobustness, MalformedInputsReturnNullopt) {
  EXPECT_FALSE(pingmesh::net::parse_request("NOT_HTTP AT ALL\r\n\r\n").has_value());
  EXPECT_FALSE(pingmesh::net::parse_request("GET /x HTTP/1.1\r\n").has_value())
      << "incomplete head must not parse";
  // Truncated body: Content-Length promises more bytes than present.
  EXPECT_FALSE(
      pingmesh::net::parse_request("POST /u HTTP/1.1\r\ncontent-length: 5\r\n\r\nabc")
          .has_value());
  EXPECT_FALSE(pingmesh::net::parse_response("ICMP nope\r\n\r\n").has_value());
  // A Content-Length that overflows size_t parses as malformed, not as a
  // giant allocation.
  EXPECT_FALSE(pingmesh::net::parse_response(
                   "HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999\r\n\r\nx")
                   .has_value());
}

TEST(HttpRobustness, ValidCorpusMessagesRoundTrip) {
  auto req = pingmesh::net::parse_request(slurp(corpus_dir("http") + "/get_pinglist.req"));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/pinglist/10.0.0.1");
  auto resp = pingmesh::net::parse_response(slurp(corpus_dir("http") + "/ok_body.resp"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "hello world");
}

// --- cosmos_io -------------------------------------------------------------

class CosmosCorpusLoader {
 public:
  static std::optional<pingmesh::dsa::LoadResult> load_bytes(const std::string& bytes,
                                                             std::size_t limit) {
    std::string path = testing::TempDir() + "/robustness_cosmos.pmcosmos";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto result = pingmesh::dsa::load_store(path, limit);
    std::remove(path.c_str());
    return result;
  }
};

TEST(CosmosIoRobustness, CorpusLoadsOrReturnsNullopt) {
  for (const std::string& path : corpus_files("cosmos_io")) {
    EXPECT_NO_THROW({ (void)pingmesh::dsa::load_store(path, 64 * 1024); }) << path;
  }
}

TEST(CosmosIoRobustness, ValidSeedLoadsBothExtents) {
  auto loaded =
      pingmesh::dsa::load_store(corpus_dir("cosmos_io") + "/valid_two_extents.pmcosmos");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->streams, 1u);
  EXPECT_EQ(loaded->extents, 2u);
  EXPECT_EQ(loaded->corrupt_dropped, 0u);
}

TEST(CosmosIoRobustness, CorruptChecksumIsDroppedAndCounted) {
  auto loaded =
      pingmesh::dsa::load_store(corpus_dir("cosmos_io") + "/corrupt_checksum.pmcosmos");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->extents, 0u);
  EXPECT_EQ(loaded->corrupt_dropped, 1u);
}

TEST(CosmosIoRobustness, GiantExtentHeaderIsUnparseableNotBadAlloc) {
  // The reproducer from the fuzz corpus: a header demanding ~100 TB.
  auto loaded = CosmosCorpusLoader::load_bytes(
      "PMCOSMOS1\nstream s 1\nextent 1 0 0 0 1 0 3 99999999999999\n", 64 * 1024);
  EXPECT_FALSE(loaded.has_value());
}

TEST(CosmosIoRobustness, ModeratelyOversizedExtentStillLoads) {
  // Up to 4x the limit is legal (a single oversized append); build one at
  // 2x and confirm the cap does not reject legitimate data.
  std::string payload(128, 'x');
  char header[128];
  std::snprintf(header, sizeof(header), "extent 1 0 0 0 1 %u 3 %zu\n",
                pingmesh::dsa::fnv1a(payload), payload.size());
  std::string file = std::string("PMCOSMOS1\nstream s 1\n") + header + payload + "\n";
  auto loaded = CosmosCorpusLoader::load_bytes(file, /*limit=*/64);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->extents, 1u);
}

TEST(CosmosIoRobustness, TruncatedPayloadIsUnparseable) {
  auto loaded = CosmosCorpusLoader::load_bytes(
      "PMCOSMOS1\nstream s 1\nextent 1 0 0 0 1 0 3 50\nshort", 64 * 1024);
  EXPECT_FALSE(loaded.has_value());
}

}  // namespace
