// Shared helpers for the experiment harnesses: record collection from the
// fleet driver, uniform table printing (paper value vs measured value), and
// an optional machine-readable report (`--json <path>`).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "agent/record_columns.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/fleet.h"
#include "topology/topology.h"

namespace pingmesh::bench {

namespace detail {

struct JsonMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct JsonRow {
  std::string label;
  std::string paper;
  std::string measured;
};

inline std::vector<JsonMetric>& json_metrics() {
  static std::vector<JsonMetric> v;
  return v;
}

inline std::vector<JsonRow>& json_rows() {
  static std::vector<JsonRow> v;
  return v;
}

inline std::string& json_path() {
  static std::string p;
  return p;
}

inline std::string& json_bench_name() {
  static std::string n;
  return n;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline void write_json_report() {
  if (json_path().empty()) return;
  std::FILE* f = std::fopen(json_path().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", json_path().c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", json_escape(json_bench_name()).c_str());
  std::fprintf(f, "  \"metrics\": [");
  const auto& metrics = json_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"value\": %.9g, \"unit\": \"%s\"}",
                 i ? "," : "", json_escape(metrics[i].name).c_str(), metrics[i].value,
                 json_escape(metrics[i].unit).c_str());
  }
  std::fprintf(f, "%s],\n", metrics.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"rows\": [");
  const auto& rows = json_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s\n    {\"label\": \"%s\", \"paper\": \"%s\", \"measured\": \"%s\"}",
                 i ? "," : "", json_escape(rows[i].label).c_str(),
                 json_escape(rows[i].paper).c_str(), json_escape(rows[i].measured).c_str());
  }
  std::fprintf(f, "%s]\n}\n", rows.empty() ? "" : "\n  ");
  std::fclose(f);
}

}  // namespace detail

/// Parse harness flags. `--json <path>` registers an atexit hook that dumps
/// every compare_row and json_metric seen during the run as a JSON report
/// (the driver collects these as BENCH_<name>.json artifacts).
inline void parse_args(int argc, char** argv) {
  // Touch every report static now so each is constructed before the atexit
  // hook below is registered; destruction happens in reverse order, which
  // keeps them all alive while write_json_report runs.
  detail::json_metrics();
  detail::json_rows();
  if (argc > 0) {
    std::string prog = argv[0];
    auto slash = prog.find_last_of('/');
    detail::json_bench_name() = slash == std::string::npos ? prog : prog.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      detail::json_path() = argv[++i];
    }
  }
  if (!detail::json_path().empty()) std::atexit(detail::write_json_report);
}

/// Record a numeric metric in the machine-readable report (kept in memory;
/// only written when the harness ran with --json).
inline void json_metric(const std::string& name, double value, const std::string& unit = "") {
  detail::json_metrics().push_back({name, value, unit});
}

inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// "paper X, measured Y" row.
inline void compare_row(const std::string& label, const std::string& paper,
                        const std::string& measured) {
  std::printf("  %-44s paper: %-14s measured: %s\n", label.c_str(), paper.c_str(),
              measured.c_str());
  detail::json_rows().push_back({label, paper, measured});
}

/// Convert a fleet probe into the record shape the analyses consume.
inline agent::LatencyRecord to_record(const topo::Topology& topo,
                                      const core::FleetProbe& p) {
  agent::LatencyRecord r;
  r.timestamp = p.time;
  r.src_ip = topo.server(p.src).ip;
  r.dst_ip = p.target->ip;
  r.src_port = p.src_port;
  r.dst_port = p.target->port;
  r.kind = p.target->kind;
  r.qos = p.target->qos;
  r.success = p.outcome.success;
  r.rtt = p.outcome.rtt;
  r.payload_success = p.outcome.payload_success;
  r.payload_rtt = p.outcome.payload_rtt;
  r.payload_bytes = p.target->payload_bytes;
  return r;
}

inline std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", v * 100.0);
  return buf;
}

}  // namespace pingmesh::bench
