// QueryService — the interactive HTTP query API over materialized rollups
// (DESIGN.md §13).
//
// Three read endpoints, each answered from RollupStore cells (never a raw
// extent rescan):
//
//   GET /query/heatmap?minutes=60[&dc=DC1]      pod-pair latency/drop matrix
//   GET /query/sla?service=Search&minutes=60    one service's SLA summary
//   GET /query/topk?k=10&metric=p99&minutes=60  worst pairs by p99|drop|failure
//
// Serving machinery for the "millions of users" read path:
//  - every 200 carries an ETag derived from (store version, request path);
//    If-None-Match revalidation returns 304 with no body — a dashboard
//    polling an unchanged store costs headers only;
//  - a small LRU response cache keyed by full path holds rendered bodies;
//    an entry is fresh exactly while the store version it was rendered at
//    is current, so cache coherence is a single integer compare and a
//    version bump invalidates everything at once (no per-key tracking);
//  - windows are expressed in *sim time* relative to the store's ingest
//    watermark (`now()`), so answers are deterministic for a deterministic
//    workload and cache keys are stable across replays.
//
// handle() is exposed directly (pingmeshctl and tests call it without
// sockets); the HTTP constructor additionally binds an HttpServer on the
// reactor and routes /query/ to it.
//
// Thread-safety: the RollupStore is internally locked, so reads of it are
// safe from any thread. The service's own mutable state — the LRU response
// cache and the request counters — is PM_GUARDED_BY(cache_mu_). A render
// takes the version, the watermark and the cells in ONE store read
// (RollupStore::view), and keys both its ETag and its cache entry by that
// read's version, so a concurrent write can never label a body rendered at
// version N+1 as version N. Rendering runs outside cache_mu_ so a slow
// render never blocks cache hits, and metrics are recorded after the lock
// is released so cache_mu_ never nests inside or around
// MetricsRegistry::mu_.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "net/http.h"
#include "net/reactor.h"
#include "net/sockaddr.h"
#include "obs/metrics.h"
#include "serve/rollup.h"
#include "topology/topology.h"

namespace pingmesh::serve {

struct QueryServiceConfig {
  std::size_t cache_capacity = 64;  ///< LRU rendered-response entries
};

class QueryService {
 public:
  using Config = QueryServiceConfig;

  /// Handle-only form (no sockets): pingmeshctl and unit tests.
  QueryService(const topo::Topology& topo, const RollupStore& store,
               const topo::ServiceMap* services, Config cfg = Config());
  /// HTTP form: binds an HttpServer on `bind_addr` and serves /query/*.
  QueryService(net::Reactor& reactor, const net::SockAddr& bind_addr,
               const topo::Topology& topo, const RollupStore& store,
               const topo::ServiceMap* services, Config cfg = Config());
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answer one request (any method; HEAD/body stripping happens at the
  /// HTTP layer). Exposed for socket-less callers.
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& req);

  /// Bound port of the HTTP form; 0 in handle-only form.
  [[nodiscard]] std::uint16_t port() const;

  /// Register serve.* instruments: per-endpoint request counters and
  /// latency histograms, cache hit/miss, response status classes. Also
  /// registers callback gauges (cache size, rollup version) that read this
  /// object at expose() time — the service must outlive the registry's
  /// last expose().
  void enable_observability(obs::MetricsRegistry& registry);

  [[nodiscard]] std::uint64_t requests() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return requests_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_hits_;
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_misses_;
  }
  [[nodiscard]] std::uint64_t not_modified() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return not_modified_;
  }
  [[nodiscard]] std::size_t cache_size() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
  }

 private:
  struct CacheEntry {
    std::uint64_t version = 0;  ///< store version the body was rendered at
    std::string etag;
    std::string body;
    std::list<std::string>::iterator lru;
  };

  using Params = std::unordered_map<std::string, std::string>;  ///< query string

  /// Each renderer reads the store once (RollupStore::view) and reports
  /// that read's version in `*version`.
  [[nodiscard]] std::string render(const std::string& endpoint, const Params& params,
                                   int* status, std::uint64_t* version);
  [[nodiscard]] std::string render_heatmap(const Params& params, int* status,
                                           std::uint64_t* version);
  [[nodiscard]] std::string render_sla(const Params& params, int* status,
                                       std::uint64_t* version);
  [[nodiscard]] std::string render_topk(const Params& params, int* status,
                                        std::uint64_t* version);
  /// The ?minutes= window (an hour without one); nullopt when its span
  /// does not fit in SimTime.
  [[nodiscard]] std::optional<SimTime> window_from_params(const Params& params) const;

  const topo::Topology* topo_;
  const RollupStore* store_;
  const topo::ServiceMap* services_;
  Config cfg_;
  std::unique_ptr<net::HttpServer> server_;  // null in handle-only form

  mutable std::mutex cache_mu_;
  // key: full path
  std::unordered_map<std::string, CacheEntry> cache_ PM_GUARDED_BY(cache_mu_);
  // front == most recent
  std::list<std::string> lru_ PM_GUARDED_BY(cache_mu_);

  std::uint64_t requests_ PM_GUARDED_BY(cache_mu_) = 0;
  std::uint64_t cache_hits_ PM_GUARDED_BY(cache_mu_) = 0;
  std::uint64_t cache_misses_ PM_GUARDED_BY(cache_mu_) = 0;
  std::uint64_t not_modified_ PM_GUARDED_BY(cache_mu_) = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pingmesh::serve
