#include "dsa/scopeql.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <optional>

#include "agent/counters.h"
#include "common/stats.h"

namespace pingmesh::dsa::scopeql {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok {
  kIdent,
  kNumber,
  kComma,
  kLParen,
  kRParen,
  kStar,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;       // idents (upper-cased for keywords happens later)
  std::int64_t number = 0;
  std::size_t pos = 0;
};

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw QueryError("ScopeQL error at offset " + std::to_string(pos) + ": " + what);
}

std::vector<Token> lex(std::string_view q) {
  std::vector<Token> out;
  std::size_t i = 0;
  auto push = [&](Tok kind, std::size_t pos, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.pos = pos;
    out.push_back(std::move(t));
  };
  while (i < q.size()) {
    char c = q[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    std::size_t start = i;
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t value = 0;
      while (i < q.size() && std::isdigit(static_cast<unsigned char>(q[i]))) {
        // Checked accumulate: a long digit string must report overflow, not
        // wrap through signed-overflow UB (fuzz finding).
        if (__builtin_mul_overflow(value, std::int64_t{10}, &value) ||
            __builtin_add_overflow(value, std::int64_t{q[i] - '0'}, &value)) {
          fail(start, "integer literal overflows int64");
        }
        ++i;
      }
      // Time suffixes: ns (default), us, ms, s, m, h.
      std::string suffix;
      while (i < q.size() && std::isalpha(static_cast<unsigned char>(q[i]))) {
        suffix += static_cast<char>(std::tolower(q[i]));
        ++i;
      }
      std::int64_t scale = 1;
      if (suffix == "us") scale = kNanosPerMicro;
      else if (suffix == "ms") scale = kNanosPerMilli;
      else if (suffix == "s") scale = kNanosPerSecond;
      else if (suffix == "m") scale = kNanosPerMinute;
      else if (suffix == "h") scale = kNanosPerHour;
      else if (!suffix.empty() && suffix != "ns") fail(start, "unknown suffix '" + suffix + "'");
      if (__builtin_mul_overflow(value, scale, &value)) {
        fail(start, "time literal overflows int64 nanoseconds");
      }
      Token t;
      t.kind = Tok::kNumber;
      t.number = value;
      t.pos = start;
      out.push_back(t);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (i < q.size() &&
             (std::isalnum(static_cast<unsigned char>(q[i])) || q[i] == '_')) {
        ident += q[i++];
      }
      push(Tok::kIdent, start, ident);
      continue;
    }
    switch (c) {
      case ',': push(Tok::kComma, i++); break;
      case '(': push(Tok::kLParen, i++); break;
      case ')': push(Tok::kRParen, i++); break;
      case '*': push(Tok::kStar, i++); break;
      case '=': push(Tok::kEq, i++); break;
      case '!':
        if (i + 1 < q.size() && q[i + 1] == '=') {
          push(Tok::kNe, i);
          i += 2;
        } else {
          fail(i, "expected '!='");
        }
        break;
      case '<':
        if (i + 1 < q.size() && q[i + 1] == '=') {
          push(Tok::kLe, i);
          i += 2;
        } else if (i + 1 < q.size() && q[i + 1] == '>') {
          push(Tok::kNe, i);
          i += 2;
        } else {
          push(Tok::kLt, i++);
        }
        break;
      case '>':
        if (i + 1 < q.size() && q[i + 1] == '=') {
          push(Tok::kGe, i);
          i += 2;
        } else {
          push(Tok::kGt, i++);
        }
        break;
      default:
        fail(i, std::string("unexpected character '") + c + "'");
    }
  }
  push(Tok::kEnd, q.size());
  return out;
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

enum class ColumnId {
  kTimestamp,
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kKind,
  kQos,
  kSuccess,
  kRtt,
  kPayloadSuccess,
  kPayloadRtt,
  kPayloadBytes,
};

std::optional<ColumnId> column_by_name(const std::string& lower) {
  static const std::map<std::string, ColumnId> kMap = {
      {"timestamp", ColumnId::kTimestamp},
      {"src_ip", ColumnId::kSrcIp},
      {"dst_ip", ColumnId::kDstIp},
      {"src_port", ColumnId::kSrcPort},
      {"dst_port", ColumnId::kDstPort},
      {"kind", ColumnId::kKind},
      {"qos", ColumnId::kQos},
      {"success", ColumnId::kSuccess},
      {"rtt", ColumnId::kRtt},
      {"payload_success", ColumnId::kPayloadSuccess},
      {"payload_rtt", ColumnId::kPayloadRtt},
      {"payload_bytes", ColumnId::kPayloadBytes},
  };
  auto it = kMap.find(lower);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

enum class TopoFn { kPod, kPodset, kDc, kTor };
enum class BinOp { kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { kLiteral, kColumn, kTopoFn, kBinary, kNot } kind;
  std::int64_t literal = 0;
  ColumnId column = ColumnId::kRtt;
  TopoFn topo_fn = TopoFn::kPod;
  BinOp op = BinOp::kEq;
  ExprPtr lhs;
  ExprPtr rhs;
  std::string source;  ///< original text-ish, for output headers
};

enum class AggFn { kNone, kCount, kSum, kMin, kMax, kAvg, kP50, kP99, kP999, kDropRate };

struct SelectItem {
  AggFn agg = AggFn::kNone;
  ExprPtr expr;  ///< null for COUNT(*) / DROPRATE()
  std::string label;
  bool renders_ip = false;  ///< bare src_ip/dst_ip column: render dotted
};

struct Query {
  std::vector<SelectItem> select;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  std::optional<std::string> order_by;  ///< output column label
  bool order_desc = false;
  std::optional<std::size_t> limit;
  bool aggregated = false;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Query parse() {
    expect_keyword("SELECT");
    Query query;
    query.select.push_back(parse_select_item());
    while (peek().kind == Tok::kComma) {
      ++i_;
      query.select.push_back(parse_select_item());
    }
    expect_keyword("FROM");
    Token table = expect(Tok::kIdent, "table name");
    if (upper(table.text) != "LATENCY") fail(table.pos, "unknown table '" + table.text + "'");

    if (accept_keyword("WHERE")) query.where = parse_or();
    if (accept_keyword("GROUP")) {
      expect_keyword("BY");
      query.group_by.push_back(parse_primary_expr());
      while (peek().kind == Tok::kComma) {
        ++i_;
        query.group_by.push_back(parse_primary_expr());
      }
    }
    if (accept_keyword("ORDER")) {
      expect_keyword("BY");
      Token col = expect(Tok::kIdent, "output column");
      query.order_by = col.text;
      if (accept_keyword("DESC")) {
        query.order_desc = true;
      } else {
        accept_keyword("ASC");
      }
    }
    if (accept_keyword("LIMIT")) {
      Token n = expect(Tok::kNumber, "limit");
      query.limit = static_cast<std::size_t>(n.number);
    }
    if (peek().kind != Tok::kEnd) fail(peek().pos, "trailing input");

    for (const SelectItem& item : query.select) {
      if (item.agg != AggFn::kNone) query.aggregated = true;
    }
    if (!query.group_by.empty()) query.aggregated = true;
    if (query.aggregated) {
      // Non-aggregate select items must be group keys; approximated by
      // requiring that GROUP BY exists when mixing.
      for (const SelectItem& item : query.select) {
        if (item.agg == AggFn::kNone && query.group_by.empty()) {
          throw QueryError("ScopeQL error: bare column '" + item.label +
                           "' mixed with aggregates needs GROUP BY");
        }
      }
    }
    return query;
  }

 private:
  const Token& peek() const { return tokens_[i_]; }

  Token expect(Tok kind, const char* what) {
    if (peek().kind != kind) fail(peek().pos, std::string("expected ") + what);
    return tokens_[i_++];
  }

  void expect_keyword(const char* kw) {
    if (!accept_keyword(kw)) fail(peek().pos, std::string("expected ") + kw);
  }

  bool accept_keyword(const char* kw) {
    if (peek().kind == Tok::kIdent && upper(peek().text) == kw) {
      ++i_;
      return true;
    }
    return false;
  }

  static std::optional<AggFn> agg_by_name(const std::string& up) {
    static const std::map<std::string, AggFn> kMap = {
        {"COUNT", AggFn::kCount}, {"SUM", AggFn::kSum},     {"MIN", AggFn::kMin},
        {"MAX", AggFn::kMax},     {"AVG", AggFn::kAvg},     {"P50", AggFn::kP50},
        {"P99", AggFn::kP99},     {"P999", AggFn::kP999},   {"DROPRATE", AggFn::kDropRate},
    };
    auto it = kMap.find(up);
    if (it == kMap.end()) return std::nullopt;
    return it->second;
  }

  static std::optional<TopoFn> topo_by_name(const std::string& lower) {
    static const std::map<std::string, TopoFn> kMap = {
        {"pod", TopoFn::kPod},
        {"podset", TopoFn::kPodset},
        {"dc", TopoFn::kDc},
        {"tor", TopoFn::kTor},
    };
    auto it = kMap.find(lower);
    if (it == kMap.end()) return std::nullopt;
    return it->second;
  }

  SelectItem parse_select_item() {
    SelectItem item;
    const Token& t = peek();
    if (t.kind == Tok::kIdent) {
      std::string up = upper(t.text);
      auto agg = agg_by_name(up);
      if (agg && tokens_[i_ + 1].kind == Tok::kLParen) {
        ++i_;  // fn name
        ++i_;  // '('
        item.agg = *agg;
        item.label = up;
        if (peek().kind == Tok::kStar) {
          if (*agg != AggFn::kCount) fail(peek().pos, "'*' only valid in COUNT(*)");
          ++i_;
          item.label = "COUNT(*)";
        } else if (peek().kind == Tok::kRParen) {
          if (*agg != AggFn::kDropRate && *agg != AggFn::kCount) {
            fail(peek().pos, "aggregate needs an argument");
          }
          item.label = up + "()";
        } else {
          item.expr = parse_primary_expr();
          item.label = up + "(" + item.expr->source + ")";
        }
        expect(Tok::kRParen, "')'");
        return item;
      }
    }
    item.expr = parse_primary_expr();
    item.label = item.expr->source;
    item.renders_ip = item.expr->kind == Expr::Kind::kColumn &&
                      (item.expr->column == ColumnId::kSrcIp ||
                       item.expr->column == ColumnId::kDstIp);
    return item;
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (accept_keyword("OR")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = BinOp::kOr;
      node->lhs = std::move(lhs);
      node->rhs = parse_and();
      node->source = node->lhs->source + " OR " + node->rhs->source;
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (accept_keyword("AND")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = BinOp::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = parse_not();
      node->source = node->lhs->source + " AND " + node->rhs->source;
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (accept_keyword("NOT")) {
      if (++depth_ > kMaxExprDepth) {
        fail(peek().pos, "expression nesting exceeds depth limit (" +
                             std::to_string(kMaxExprDepth) + ")");
      }
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->lhs = parse_not();
      node->source = "NOT " + node->lhs->source;
      --depth_;
      return node;
    }
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_primary_expr();
    BinOp op;
    switch (peek().kind) {
      case Tok::kEq: op = BinOp::kEq; break;
      case Tok::kNe: op = BinOp::kNe; break;
      case Tok::kLt: op = BinOp::kLt; break;
      case Tok::kLe: op = BinOp::kLe; break;
      case Tok::kGt: op = BinOp::kGt; break;
      case Tok::kGe: op = BinOp::kGe; break;
      default: return lhs;  // bare boolean column
    }
    ++i_;
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kBinary;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = parse_primary_expr();
    node->source = node->lhs->source + " <op> " + node->rhs->source;
    return node;
  }

  ExprPtr parse_primary_expr() {
    // Parenthesized expressions and NOT chains recurse; bound the depth so
    // an adversarial query cannot run the parser (or the AST destructor)
    // off the stack.
    if (++depth_ > kMaxExprDepth) {
      fail(peek().pos, "expression nesting exceeds depth limit (" +
                           std::to_string(kMaxExprDepth) + ")");
    }
    ExprPtr node = parse_primary_inner();
    --depth_;
    return node;
  }

  ExprPtr parse_primary_inner() {
    const Token& t = peek();
    if (t.kind == Tok::kNumber) {
      ++i_;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      node->literal = t.number;
      node->source = std::to_string(t.number);
      return node;
    }
    if (t.kind == Tok::kLParen) {
      ++i_;
      ExprPtr inner = parse_or();
      expect(Tok::kRParen, "')'");
      return inner;
    }
    if (t.kind == Tok::kIdent) {
      std::string lower;
      for (char c : t.text) lower += static_cast<char>(std::tolower(c));
      // Topology function?
      auto topo_fn = topo_by_name(lower);
      if (topo_fn && tokens_[i_ + 1].kind == Tok::kLParen) {
        ++i_;  // name
        ++i_;  // (
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kTopoFn;
        node->topo_fn = *topo_fn;
        node->lhs = parse_primary_expr();
        expect(Tok::kRParen, "')'");
        node->source = lower + "(" + node->lhs->source + ")";
        return node;
      }
      auto column = column_by_name(lower);
      if (!column) fail(t.pos, "unknown column or function '" + t.text + "'");
      ++i_;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kColumn;
      node->column = *column;
      node->source = lower;
      return node;
    }
    fail(t.pos, "expected expression");
  }

  static constexpr std::size_t kMaxExprDepth = 128;

  std::vector<Token> tokens_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// One row of the queried batch.
struct Row {
  const agent::RecordColumns& data;
  std::size_t i;
};

std::int64_t column_value(const Row& r, ColumnId column) {
  switch (column) {
    case ColumnId::kTimestamp: return r.data.timestamp(r.i);
    case ColumnId::kSrcIp: return r.data.src_ip(r.i).v;
    case ColumnId::kDstIp: return r.data.dst_ip(r.i).v;
    case ColumnId::kSrcPort: return r.data.src_ports()[r.i];
    case ColumnId::kDstPort: return r.data.dst_ports()[r.i];
    case ColumnId::kKind: return r.data.kinds()[r.i];
    case ColumnId::kQos: return r.data.qos()[r.i];
    case ColumnId::kSuccess: return r.data.success(r.i) ? 1 : 0;
    case ColumnId::kRtt: return r.data.rtt(r.i);
    case ColumnId::kPayloadSuccess: return r.data.payload_successes()[r.i] != 0 ? 1 : 0;
    case ColumnId::kPayloadRtt: return r.data.payload_rtts()[r.i];
    case ColumnId::kPayloadBytes: return r.data.payload_bytes()[r.i];
  }
  return 0;
}

struct EvalContext {
  const topo::Topology* topo;
};

std::int64_t eval(const Expr& e, const Row& r, const EvalContext& ctx) {
  switch (e.kind) {
    case Expr::Kind::kLiteral: return e.literal;
    case Expr::Kind::kColumn: return column_value(r, e.column);
    case Expr::Kind::kNot: return eval(*e.lhs, r, ctx) == 0 ? 1 : 0;
    case Expr::Kind::kTopoFn: {
      if (ctx.topo == nullptr) {
        throw QueryError("ScopeQL error: topology function '" + e.source +
                         "' needs an attached topology");
      }
      auto ip = IpAddr(static_cast<std::uint32_t>(eval(*e.lhs, r, ctx)));
      auto server = ctx.topo->find_server_by_ip(ip);
      if (!server) return -1;
      const topo::Server& s = ctx.topo->server(*server);
      switch (e.topo_fn) {
        case TopoFn::kPod: return s.pod.value;
        case TopoFn::kPodset: return s.podset.value;
        case TopoFn::kDc: return s.dc.value;
        case TopoFn::kTor: return s.tor.value;
      }
      return -1;
    }
    case Expr::Kind::kBinary: {
      std::int64_t lhs = eval(*e.lhs, r, ctx);
      if (e.op == BinOp::kAnd) return (lhs != 0 && eval(*e.rhs, r, ctx) != 0) ? 1 : 0;
      if (e.op == BinOp::kOr) return (lhs != 0 || eval(*e.rhs, r, ctx) != 0) ? 1 : 0;
      std::int64_t rhs = eval(*e.rhs, r, ctx);
      switch (e.op) {
        case BinOp::kEq: return lhs == rhs;
        case BinOp::kNe: return lhs != rhs;
        case BinOp::kLt: return lhs < rhs;
        case BinOp::kLe: return lhs <= rhs;
        case BinOp::kGt: return lhs > rhs;
        case BinOp::kGe: return lhs >= rhs;
        default: return 0;
      }
    }
  }
  return 0;
}

struct Accumulator {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::unique_ptr<LatencySketch> hist;  // for percentiles
  agent::ProbeCounts outcomes;          // for DROPRATE

  void add_value(std::int64_t v, bool need_hist) {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
    if (need_hist) {
      if (!hist) hist = std::make_unique<LatencySketch>(agent::ProbeStats::kSketch);
      hist->record(v);
    }
  }
};

bool needs_hist(AggFn fn) {
  return fn == AggFn::kP50 || fn == AggFn::kP99 || fn == AggFn::kP999;
}

std::int64_t finish(const Accumulator& acc, AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return static_cast<std::int64_t>(acc.count);
    case AggFn::kSum: return acc.sum;
    case AggFn::kMin: return acc.min;
    case AggFn::kMax: return acc.max;
    case AggFn::kAvg:
      return acc.count ? acc.sum / static_cast<std::int64_t>(acc.count) : 0;
    case AggFn::kP50: return acc.hist ? acc.hist->p50() : 0;
    case AggFn::kP99: return acc.hist ? acc.hist->p99() : 0;
    case AggFn::kP999: return acc.hist ? acc.hist->p999() : 0;
    case AggFn::kDropRate:
      // parts-per-million so the integer pipeline carries it; rendered /1e6.
      return acc.outcomes.successes
                 ? static_cast<std::int64_t>(
                       1e6 * static_cast<double>(acc.outcomes.drop_signatures()) /
                       static_cast<double>(acc.outcomes.successes))
                 : 0;
    case AggFn::kNone: return 0;
  }
  return 0;
}

std::string render_cell(std::int64_t v, const SelectItem& item) {
  if (item.renders_ip) return IpAddr(static_cast<std::uint32_t>(v)).str();
  if (item.agg == AggFn::kDropRate) return format_rate(static_cast<double>(v) / 1e6);
  return std::to_string(v);
}

}  // namespace

std::string QueryResult::to_table() const {
  std::vector<std::size_t> width(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) width[c] = columns[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(width[c] - cells[c].size() + 2, ' ');
    }
    out += '\n';
  };
  emit_row(columns);
  for (const auto& row : rows) emit_row(row);
  return out;
}

QueryResult Interpreter::run(std::string_view query_text,
                             const agent::RecordColumns& data) const {
  Parser parser(lex(query_text));
  Query query = parser.parse();
  EvalContext ctx{topo_};

  QueryResult result;
  for (const SelectItem& item : query.select) result.columns.push_back(item.label);

  auto matches = [&](const Row& r) { return !query.where || eval(*query.where, r, ctx) != 0; };

  if (!query.aggregated) {
    for (std::size_t i = 0, n = data.size(); i < n; ++i) {
      const Row r{data, i};
      if (!matches(r)) continue;
      std::vector<std::int64_t> raw;
      std::vector<std::string> rendered;
      for (const SelectItem& item : query.select) {
        std::int64_t v = eval(*item.expr, r, ctx);
        raw.push_back(v);
        rendered.push_back(render_cell(v, item));
      }
      result.raw_rows.push_back(std::move(raw));
      result.rows.push_back(std::move(rendered));
    }
  } else {
    // Grouped aggregation: key -> (group key values, per-item accumulators).
    struct Group {
      std::vector<std::int64_t> keys;
      std::vector<Accumulator> accs;
    };
    std::map<std::vector<std::int64_t>, Group> groups;
    for (std::size_t i = 0, n = data.size(); i < n; ++i) {
      const Row r{data, i};
      if (!matches(r)) continue;
      std::vector<std::int64_t> key;
      key.reserve(query.group_by.size());
      for (const ExprPtr& g : query.group_by) key.push_back(eval(*g, r, ctx));
      Group& group = groups[key];
      if (group.accs.empty()) {
        group.keys = key;
        group.accs.resize(query.select.size());
      }
      for (std::size_t s = 0; s < query.select.size(); ++s) {
        const SelectItem& item = query.select[s];
        Accumulator& acc = group.accs[s];
        if (item.agg == AggFn::kDropRate) {
          acc.outcomes.add(data.success(i), data.rtt(i));
        } else if (item.agg == AggFn::kCount && !item.expr) {
          ++acc.count;
        } else if (item.agg != AggFn::kNone) {
          acc.add_value(eval(*item.expr, r, ctx), needs_hist(item.agg));
        } else {
          acc.add_value(eval(*item.expr, r, ctx), false);  // group key column
        }
      }
    }
    for (auto& [key, group] : groups) {
      std::vector<std::int64_t> raw;
      std::vector<std::string> rendered;
      for (std::size_t s = 0; s < query.select.size(); ++s) {
        const SelectItem& item = query.select[s];
        std::int64_t v;
        if (item.agg == AggFn::kNone) {
          // A bare column in an aggregated query: its (constant-per-group)
          // last value — by SQL convention it should be a group key.
          v = group.accs[s].count ? group.accs[s].max : 0;
          // Prefer the exact key value when the expression matches one.
          for (std::size_t g = 0; g < query.group_by.size(); ++g) {
            if (query.group_by[g]->source == item.expr->source) v = group.keys[g];
          }
        } else {
          v = finish(group.accs[s], item.agg);
        }
        raw.push_back(v);
        rendered.push_back(render_cell(v, item));
      }
      result.raw_rows.push_back(std::move(raw));
      result.rows.push_back(std::move(rendered));
    }
  }

  // ORDER BY over output columns.
  if (query.order_by) {
    std::size_t col = result.columns.size();
    std::string want = upper(*query.order_by);
    for (std::size_t c = 0; c < result.columns.size(); ++c) {
      if (upper(result.columns[c]) == want ||
          upper(result.columns[c]).rfind(want + "(", 0) == 0) {
        col = c;
        break;
      }
    }
    if (col == result.columns.size()) {
      throw QueryError("ScopeQL error: ORDER BY references unknown output column '" +
                       *query.order_by + "'");
    }
    std::vector<std::size_t> index(result.rows.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    std::stable_sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
      return query.order_desc ? result.raw_rows[a][col] > result.raw_rows[b][col]
                              : result.raw_rows[a][col] < result.raw_rows[b][col];
    });
    QueryResult sorted;
    sorted.columns = result.columns;
    for (std::size_t i : index) {
      sorted.rows.push_back(std::move(result.rows[i]));
      sorted.raw_rows.push_back(std::move(result.raw_rows[i]));
    }
    result = std::move(sorted);
  }

  if (query.limit && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
    result.raw_rows.resize(*query.limit);
  }
  return result;
}

}  // namespace pingmesh::dsa::scopeql
