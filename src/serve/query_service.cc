#include "serve/query_service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

namespace pingmesh::serve {

namespace {

constexpr SimTime kDefaultWindow = hours(1);  ///< without ?minutes=
constexpr int kDefaultTopk = 10;              ///< without ?k=

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string make_etag(std::uint64_t version, const std::string& path) {
  return "\"q-" + std::to_string(version) + "-" + hex16(fnv1a(path)) + "\"";
}

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// path -> (endpoint segment after /query/, key=value params)
void parse_path(const std::string& path, std::string* endpoint,
                std::unordered_map<std::string, std::string>* params) {
  std::string::size_type q = path.find('?');
  std::string base = path.substr(0, q);
  constexpr std::string_view kPrefix = "/query/";
  if (base.rfind(kPrefix, 0) == 0) {
    *endpoint = base.substr(kPrefix.size());
  }
  if (q == std::string::npos) return;
  std::string_view rest = std::string_view(path).substr(q + 1);
  while (!rest.empty()) {
    std::string_view item = rest.substr(0, rest.find('&'));
    rest = item.size() == rest.size() ? std::string_view{} : rest.substr(item.size() + 1);
    std::string_view::size_type eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    (*params)[std::string(item.substr(0, eq))] = std::string(item.substr(eq + 1));
  }
}

/// `key` as a positive decimal integer no larger than `max`: nullopt when
/// the parameter is absent, 0 when it is anything else (empty, signed, not
/// all digits, 0 itself, or above `max`).
std::optional<std::int64_t> positive_param(
    const std::unordered_map<std::string, std::string>& params, const std::string& key,
    std::int64_t max) {
  auto it = params.find(key);
  if (it == params.end()) return std::nullopt;
  const std::string& text = it->second;
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v <= 0 || v > max) return 0;
  return v;
}

/// The 400 answer to a numeric parameter that is not a positive integer
/// its type can hold.
std::string param_out_of_range(const char* param, int* status) {
  *status = 400;
  return std::string("{\"error\":\"") + param +
         " out of range: want a positive decimal integer\"}";
}

}  // namespace

QueryService::QueryService(const topo::Topology& topo, const RollupStore& store,
                           const topo::ServiceMap* services, Config cfg)
    : topo_(&topo), store_(&store), services_(services), cfg_(cfg) {}

QueryService::QueryService(net::Reactor& reactor, const net::SockAddr& bind_addr,
                           const topo::Topology& topo, const RollupStore& store,
                           const topo::ServiceMap* services, Config cfg)
    : QueryService(topo, store, services, cfg) {
  server_ = std::make_unique<net::HttpServer>(reactor, bind_addr);
  server_->route("/query/", [this](const net::HttpRequest& req) { return handle(req); });
}

QueryService::~QueryService() = default;

std::uint16_t QueryService::port() const { return server_ ? server_->port() : 0; }

void QueryService::enable_observability(obs::MetricsRegistry& registry) {
  metrics_ = &registry;
  registry.gauge_fn("serve.cache_entries", "",
                    [this] { return static_cast<double>(cache_size()); });
  registry.gauge_fn("serve.rollup_version", "",
                    [this] { return static_cast<double>(store_->version()); });
}

std::optional<SimTime> QueryService::window_from_params(const Params& params) const {
  auto m = positive_param(params, "minutes",
                          std::numeric_limits<SimTime>::max() / kNanosPerMinute);
  if (!m) return kDefaultWindow;
  if (*m == 0) return std::nullopt;
  return minutes(*m);
}

net::HttpResponse QueryService::handle(const net::HttpRequest& req) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string endpoint;
  Params params;
  parse_path(req.path, &endpoint, &params);
  const std::string ep_label =
      (endpoint == "heatmap" || endpoint == "sla" || endpoint == "topk") ? endpoint
                                                                         : "other";
  // Revalidation and cache hits compare against the current version; a
  // render carries the version of the one store read it came from.
  const std::uint64_t version = store_->version();
  const std::string etag = make_etag(version, req.path);

  net::HttpResponse resp;
  const char* cache_result = nullptr;
  bool need_render = false;
  auto inm = req.headers.find("if-none-match");
  if (inm != req.headers.end() && net::etag_match(inm->second, etag)) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++requests_;
    ++not_modified_;
    resp = net::HttpResponse::not_modified(etag);
  } else {
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      ++requests_;
      auto cached = cache_.find(req.path);
      if (cached != cache_.end() && cached->second.version == version) {
        ++cache_hits_;
        cache_result = "hit";
        lru_.splice(lru_.begin(), lru_, cached->second.lru);
        resp = net::HttpResponse::ok(cached->second.body, "application/json");
        resp.headers["etag"] = cached->second.etag;
      } else {
        need_render = true;
      }
    }
    if (need_render) {
      // Render outside cache_mu_ — the store is internally locked, and a
      // slow render must not block concurrent cache hits.
      int status = 200;
      std::uint64_t rendered = version;
      std::string body = render(endpoint, params, &status, &rendered);
      if (status == 200) {
        std::string rendered_etag = make_etag(rendered, req.path);
        std::lock_guard<std::mutex> lock(cache_mu_);
        ++cache_misses_;
        cache_result = "miss";
        auto cached = cache_.find(req.path);
        if (cached != cache_.end()) {
          lru_.erase(cached->second.lru);
          cache_.erase(cached);
        }
        while (cache_.size() >= cfg_.cache_capacity && !lru_.empty()) {
          cache_.erase(lru_.back());
          lru_.pop_back();
        }
        lru_.push_front(req.path);
        cache_[req.path] = CacheEntry{rendered, rendered_etag, body, lru_.begin()};
        resp = net::HttpResponse::ok(std::move(body), "application/json");
        resp.headers["etag"] = std::move(rendered_etag);
      } else {
        resp = net::HttpResponse::error(status, status == 404 ? "Not Found" : "Bad Request",
                                        std::move(body));
      }
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter("serve.requests_total", "endpoint=" + ep_label).inc();
    metrics_->counter("serve.responses_total", "status=" + std::to_string(resp.status))
        .inc();
    if (cache_result != nullptr) {
      metrics_->counter("serve.cache_total", std::string("result=") + cache_result).inc();
    }
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    metrics_->histogram("serve.request_latency_ns", "endpoint=" + ep_label).observe(dt);
  }
  return resp;
}

std::string QueryService::render(const std::string& endpoint, const Params& params,
                                 int* status, std::uint64_t* version) {
  if (endpoint == "heatmap") return render_heatmap(params, status, version);
  if (endpoint == "sla") return render_sla(params, status, version);
  if (endpoint == "topk") return render_topk(params, status, version);
  *status = 404;
  return "{\"error\":\"unknown endpoint; expected heatmap|sla|topk\"}";
}

std::string QueryService::render_heatmap(const Params& params, int* status,
                                         std::uint64_t* version) {
  const std::optional<SimTime> window = window_from_params(params);
  if (!window) return param_out_of_range("minutes", status);
  const RollupView view = store_->view(*window);
  *version = view.version;
  std::optional<std::string> dc_filter;
  if (auto it = params.find("dc"); it != params.end()) dc_filter = it->second;

  std::string out = "{\"from_s\":" + std::to_string(view.from / kNanosPerSecond) +
                    ",\"to_s\":" + std::to_string(view.to / kNanosPerSecond) + ",\"pairs\":[";
  bool first = true;
  for (const PairRollup& row : view.pairs) {
    if (dc_filter) {
      const topo::Pod& pod = topo_->pod(row.src_pod);
      if (topo_->dc(pod.dc).name != *dc_filter) continue;
    }
    if (!first) out += ',';
    first = false;
    out += "{\"src_pod\":" + std::to_string(row.src_pod.value) +
           ",\"dst_pod\":" + std::to_string(row.dst_pod.value) +
           ",\"probes\":" + std::to_string(row.stats.probes) +
           ",\"p50_us\":" + std::to_string(row.stats.p50_ns / kNanosPerMicro) +
           ",\"p99_us\":" + std::to_string(row.stats.p99_ns / kNanosPerMicro) +
           ",\"drop_rate\":" + fmt_rate(row.stats.drop_rate()) +
           ",\"failure_rate\":" + fmt_rate(row.stats.failure_rate()) + "}";
  }
  out += "]}";
  *status = 200;
  return out;
}

std::string QueryService::render_sla(const Params& params, int* status,
                                     std::uint64_t* version) {
  auto name_it = params.find("service");
  if (services_ == nullptr || name_it == params.end()) {
    *status = 404;
    return "{\"error\":\"sla requires ?service=NAME and a registered service map\"}";
  }
  std::optional<ServiceId> id;
  for (std::uint32_t i = 0; i < services_->service_count(); ++i) {
    if (services_->name(ServiceId{i}) == name_it->second) {
      id = ServiceId{i};
      break;
    }
  }
  if (!id) {
    *status = 404;
    return "{\"error\":\"unknown service: " + name_it->second + "\"}";
  }
  const std::optional<SimTime> window = window_from_params(params);
  if (!window) return param_out_of_range("minutes", status);
  const RollupView view = store_->view(*window, *id);
  *version = view.version;
  const std::optional<agent::WindowStats>& stats = view.service;
  std::string out = "{\"service\":\"" + name_it->second +
                    "\",\"from_s\":" + std::to_string(view.from / kNanosPerSecond) +
                    ",\"to_s\":" + std::to_string(view.to / kNanosPerSecond);
  if (stats) {
    out += ",\"probes\":" + std::to_string(stats->probes) +
           ",\"successes\":" + std::to_string(stats->successes) +
           ",\"failures\":" + std::to_string(stats->failures) +
           ",\"drop_rate\":" + fmt_rate(stats->drop_rate()) +
           ",\"failure_rate\":" + fmt_rate(stats->failure_rate()) +
           ",\"sla\":" + fmt_rate(1.0 - stats->failure_rate()) +
           ",\"p50_us\":" + std::to_string(stats->p50_ns / kNanosPerMicro) +
           ",\"p99_us\":" + std::to_string(stats->p99_ns / kNanosPerMicro) +
           ",\"p999_us\":" + std::to_string(stats->p999_ns / kNanosPerMicro);
  } else {
    out += ",\"probes\":0";
  }
  out += "}";
  *status = 200;
  return out;
}

std::string QueryService::render_topk(const Params& params, int* status,
                                      std::uint64_t* version) {
  int k = kDefaultTopk;
  if (auto v = positive_param(params, "k", std::numeric_limits<int>::max())) {
    if (*v == 0) return param_out_of_range("k", status);
    k = static_cast<int>(*v);
  }
  std::string metric = "p99";
  if (auto it = params.find("metric"); it != params.end()) metric = it->second;
  if (metric != "p99" && metric != "drop" && metric != "failure") {
    *status = 400;
    return "{\"error\":\"metric must be p99|drop|failure\"}";
  }
  const std::optional<SimTime> window = window_from_params(params);
  if (!window) return param_out_of_range("minutes", status);
  RollupView view = store_->view(*window);
  *version = view.version;
  std::vector<PairRollup>& rows = view.pairs;
  auto score = [&metric](const PairRollup& r) {
    if (metric == "drop") return r.stats.drop_rate();
    if (metric == "failure") return r.stats.failure_rate();
    return static_cast<double>(r.stats.p99_ns);
  };
  // Deterministic order: score descending, then (src, dst) ascending.
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const PairRollup& a, const PairRollup& b) {
                     double sa = score(a);
                     double sb = score(b);
                     if (sa != sb) return sa > sb;
                     if (a.src_pod.value != b.src_pod.value)
                       return a.src_pod.value < b.src_pod.value;
                     return a.dst_pod.value < b.dst_pod.value;
                   });
  if (rows.size() > static_cast<std::size_t>(k)) rows.resize(k);

  std::string out = "{\"metric\":\"" + metric + "\",\"k\":" + std::to_string(k) +
                    ",\"from_s\":" + std::to_string(view.from / kNanosPerSecond) +
                    ",\"to_s\":" + std::to_string(view.to / kNanosPerSecond) + ",\"pairs\":[";
  bool first = true;
  for (const PairRollup& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"src_pod\":" + std::to_string(row.src_pod.value) +
           ",\"dst_pod\":" + std::to_string(row.dst_pod.value) +
           ",\"probes\":" + std::to_string(row.stats.probes) +
           ",\"p99_us\":" + std::to_string(row.stats.p99_ns / kNanosPerMicro) +
           ",\"drop_rate\":" + fmt_rate(row.stats.drop_rate()) +
           ",\"failure_rate\":" + fmt_rate(row.stats.failure_rate()) + "}";
  }
  out += "]}";
  *status = 200;
  return out;
}

}  // namespace pingmesh::serve
