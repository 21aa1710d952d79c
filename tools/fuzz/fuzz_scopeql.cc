// libFuzzer harness for the ScopeQL lexer/parser/evaluator. Queries come
// from operators and dashboards (pingmeshctl), so garbage must surface as
// QueryError with position info — never UB, signed-overflow, or unbounded
// recursion. Runs each input against a small fixed record set so the
// evaluator and renderer are covered, not just the parser.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "agent/record_columns.h"
#include "dsa/scopeql.h"

namespace {

pingmesh::agent::RecordColumns fixed_records() {
  pingmesh::agent::RecordColumns out;
  for (int i = 0; i < 4; ++i) {
    pingmesh::agent::LatencyRecord r;
    r.timestamp = 1'000'000LL * i;
    r.src_ip = pingmesh::IpAddr{0x0a000001u + static_cast<std::uint32_t>(i)};
    r.dst_ip = pingmesh::IpAddr{0x0a000101u};
    r.src_port = static_cast<std::uint16_t>(40000 + i);
    r.dst_port = 80;
    r.success = i % 2 == 0;
    r.rtt = 250'000 + 10'000 * i;
    out.push_back(r);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  static const pingmesh::agent::RecordColumns kRecords = fixed_records();
  static const pingmesh::dsa::scopeql::Interpreter kInterp;  // no topology attached
  std::string_view query(reinterpret_cast<const char*>(data), size);
  try {
    auto result = kInterp.run(query, kRecords);
    (void)result.to_table();
  } catch (const pingmesh::dsa::scopeql::QueryError&) {
    // Documented failure mode for malformed queries.
  }
  return 0;
}
