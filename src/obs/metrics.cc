#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace pingmesh::obs {

namespace {

bool valid_segment_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

/// Render a double the way the golden tests can pin: integral values (the
/// overwhelming case — counts mirrored through gauges) print as integers,
/// the rest with %.6g.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string render_line(const std::string& name, const std::string& labels,
                        const std::string& value) {
  std::string out = name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
  return out;
}

/// Merge a histogram's labels with the quantile label.
std::string with_quantile(const std::string& labels, const char* q) {
  std::string merged = labels;
  if (!merged.empty()) merged += ',';
  merged += "quantile=";
  merged += q;
  return merged;
}

bool matches_any_prefix(const std::string& name,
                        const std::vector<std::string>* prefixes) {
  if (prefixes == nullptr) return true;
  for (const std::string& p : *prefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

}  // namespace

void MetricsRegistry::validate_name(std::string_view name) {
  bool seen_dot = false;
  bool segment_open = false;
  for (char c : name) {
    if (c == '.') {
      PINGMESH_CHECK_MSG(segment_open, "metric name has an empty segment");
      seen_dot = true;
      segment_open = false;
    } else {
      PINGMESH_CHECK_MSG(valid_segment_char(c),
                         "metric name must be [a-z0-9_] segments joined by '.'");
      segment_open = true;
    }
  }
  PINGMESH_CHECK_MSG(seen_dot && segment_open,
                     "metric name must be 'subsystem.metric' (at least two segments)");
}

void MetricsRegistry::validate_labels(std::string_view labels) {
  if (labels.empty()) return;
  // k=v[,k=v...] with [a-z0-9_] keys; values may additionally use [-.:A-Z].
  std::size_t pos = 0;
  while (pos <= labels.size()) {
    std::size_t comma = labels.find(',', pos);
    std::string_view pair = labels.substr(
        pos, comma == std::string_view::npos ? labels.size() - pos : comma - pos);
    std::size_t eq = pair.find('=');
    PINGMESH_CHECK_MSG(eq != std::string_view::npos && eq > 0 && eq + 1 < pair.size(),
                       "metric labels must be k=v[,k=v...]");
    for (char c : pair.substr(0, eq)) {
      PINGMESH_CHECK_MSG(valid_segment_char(c), "metric label keys must be [a-z0-9_]");
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view labels) {
  validate_name(name);
  validate_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[Key{std::string(name), std::string(labels)}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels) {
  validate_name(name);
  validate_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[Key{std::string(name), std::string(labels)}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view labels) {
  return histogram(name, labels, default_histogram_config());
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view labels,
                                      LatencySketch::Config cfg) {
  validate_name(name);
  validate_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[Key{std::string(name), std::string(labels)}];
  if (!slot) slot = std::make_unique<Histogram>(cfg);
  return *slot;
}

void MetricsRegistry::gauge_fn(std::string_view name, std::string_view labels,
                               std::function<double()> fn) {
  validate_name(name);
  validate_labels(labels);
  PINGMESH_CHECK_MSG(fn != nullptr, "gauge_fn requires a callback");
  std::lock_guard<std::mutex> lock(mu_);
  gauge_fns_[Key{std::string(name), std::string(labels)}] = std::move(fn);
}

std::size_t MetricsRegistry::instrument_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + gauge_fns_.size() + histograms_.size();
}

std::string MetricsRegistry::expose() const { return expose({}); }

std::string MetricsRegistry::expose(const std::vector<std::string>& name_prefixes) const {
  const std::vector<std::string>* filter =
      name_prefixes.empty() ? nullptr : &name_prefixes;

  struct Entry {
    const Key* key;
    const char* type;
    std::string body;
  };
  std::vector<Entry> entries;
  // Callback gauges are evaluated OUTSIDE mu_: a callback registered by
  // another subsystem may take that subsystem's lock, and that subsystem may
  // call registry methods under the same lock — evaluating under mu_ would
  // close a lock-order cycle. Key pointers stay valid across the unlock
  // (std::map nodes are stable and the registry never erases).
  std::vector<std::pair<const Key*, std::function<double()>>> fns;

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, c] : counters_) {
      if (!matches_any_prefix(key.name, filter)) continue;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(c->value()));
      entries.push_back({&key, "counter", render_line(key.name, key.labels, buf)});
    }
    for (const auto& [key, g] : gauges_) {
      if (!matches_any_prefix(key.name, filter)) continue;
      entries.push_back(
          {&key, "gauge", render_line(key.name, key.labels, format_value(g->value()))});
    }
    for (const auto& [key, fn] : gauge_fns_) {
      if (!matches_any_prefix(key.name, filter)) continue;
      fns.emplace_back(&key, fn);
    }
    for (const auto& [key, h] : histograms_) {
      if (!matches_any_prefix(key.name, filter)) continue;
      LatencySketch sk = h->snapshot();
      std::string body;
      body += render_line(key.name, with_quantile(key.labels, "0.5"),
                          format_value(static_cast<double>(sk.p50())));
      body += render_line(key.name, with_quantile(key.labels, "0.99"),
                          format_value(static_cast<double>(sk.p99())));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(sk.count()));
      body += render_line(key.name + "_count", key.labels, buf);
      entries.push_back({&key, "summary", std::move(body)});
    }
  }

  for (const auto& [key, fn] : fns) {
    entries.push_back(
        {key, "gauge", render_line(key->name, key->labels, format_value(fn()))});
  }

  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return *a.key < *b.key;
  });

  std::string out;
  const std::string* last_name = nullptr;
  for (const Entry& e : entries) {
    if (last_name == nullptr || *last_name != e.key->name) {
      out += "# TYPE ";
      out += e.key->name;
      out += ' ';
      out += e.type;
      out += '\n';
      last_name = &e.key->name;
    }
    out += e.body;
  }
  return out;
}

}  // namespace pingmesh::obs
