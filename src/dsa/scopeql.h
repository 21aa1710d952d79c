// ScopeQL: a declarative, SQL-like query language over latency records —
// the reproduction of SCOPE's role in the paper (§2.3: "SCOPE is a
// declarative and extensible scripting language ... Users only need to
// write scripts similar to SQL"; §3.2: "SCOPE jobs are written in
// declarative language similar to SQL").
//
// Supported shape (one table, the latency records handed to run()):
//
//   SELECT <item> [, <item>]...
//   FROM latency
//   [WHERE <boolean expr>]
//   [GROUP BY <expr> [, <expr>]...]
//   [ORDER BY <output column> [ASC|DESC]]
//   [LIMIT <n>]
//
// Items are expressions or aggregates over expressions:
//   COUNT(*), COUNT(expr), SUM(e), MIN(e), MAX(e), AVG(e),
//   P50(e), P99(e), P999(e)  — latency percentiles (LatencySketch-backed),
//   DROPRATE()               — the paper's 3s/9s SYN heuristic over the group.
//
// Columns: timestamp, src_ip, dst_ip, src_port, dst_port, kind, qos,
// success, rtt, payload_success, payload_rtt, payload_bytes.
// Topology functions (when a Topology is attached): pod(ip), podset(ip),
// dc(ip), tor(ip) — the containment coordinates of the server owning `ip`.
// Time literals: plain integers are nanoseconds; suffixed literals 3s,
// 250ms, 10us are converted.
//
// Everything evaluates in int64 (booleans are 0/1). IP-typed outputs render
// dotted-quad; everything else renders as a number.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "agent/record_columns.h"
#include "topology/topology.h"

namespace pingmesh::dsa::scopeql {

/// Thrown for lexing/parsing/evaluation errors, with position info.
class QueryError : public std::runtime_error {
 public:
  explicit QueryError(const std::string& what) : std::runtime_error(what) {}
};

struct QueryResult {
  std::vector<std::string> columns;                 ///< output header
  std::vector<std::vector<std::string>> rows;       ///< rendered cells
  std::vector<std::vector<std::int64_t>> raw_rows;  ///< numeric cells

  /// Render as an aligned text table.
  [[nodiscard]] std::string to_table() const;
};

class Interpreter {
 public:
  /// `topo` may be null: topology functions then raise QueryError.
  explicit Interpreter(const topo::Topology* topo = nullptr) : topo_(topo) {}

  /// Parse and execute one query against the rows of `data`.
  [[nodiscard]] QueryResult run(std::string_view query, const agent::RecordColumns& data) const;

 private:
  const topo::Topology* topo_;
};

}  // namespace pingmesh::dsa::scopeql
