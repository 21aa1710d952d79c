#include "serve/replica.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace pingmesh::serve {

// One failed request removes a dead replica from rotation (it cannot
// half-answer), and readmission probes quickly after restarts.
constexpr int kSlbFailureThreshold = 1;
constexpr std::uint64_t kSlbRecoveryAfter = 8;

ServeReplicaSet::ServeReplicaSet(const topo::Topology& topo,
                                 const topo::ServiceMap* services, RollupConfig cfg,
                                 dsa::CosmosStore& cosmos, ReplicaSetConfig rcfg)
    : topo_(&topo),
      services_(services),
      cfg_(cfg),
      cosmos_(&cosmos),
      rcfg_(std::move(rcfg)),
      writer_(topo, services, cfg, cosmos, rcfg_.persist),
      vip_(kSlbFailureThreshold, kSlbRecoveryAfter) {
  PINGMESH_CHECK_MSG(rcfg_.replica_count > 0, "replica set needs >= 1 replica");
  replicas_.resize(rcfg_.replica_count);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    vip_.add_backend("replica-" + std::to_string(i));
    restart(i);  // cold start == recovery from whatever cosmos holds
  }
}

void ServeReplicaSet::on_records(const agent::RecordColumns& batch, SimTime now) {
  writer_.on_records(batch, now);  // durable before any replica applies
  for (Replica& r : replicas_) {
    if (r.store) r.store->on_records(batch, now);
  }
}

void ServeReplicaSet::advance(SimTime now) {
  writer_.advance(now);
  for (Replica& r : replicas_) {
    if (r.store) r.store->advance(now);
  }
}

void ServeReplicaSet::kill(std::size_t i) {
  Replica& r = replicas_.at(i);
  r.service.reset();  // service reads the store; tear down in that order
  r.store.reset();
}

void ServeReplicaSet::restart(std::size_t i) {
  Replica& r = replicas_.at(i);
  r.service.reset();
  r.store = std::make_unique<RollupStore>(*topo_, services_, cfg_);
  r.recovery = recover_rollup_store(*r.store, *cosmos_, rcfg_.persist);
  r.service = std::make_unique<QueryService>(*topo_, *r.store, services_, rcfg_.query);
}

std::size_t ServeReplicaSet::alive_count() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.store != nullptr ? 1 : 0;
  return n;
}

ReplicaQueryResult ServeReplicaSet::query(const net::HttpRequest& req) {
  ReplicaQueryResult out;
  const std::uint64_t flow = dsa::fnv1a(req.path);
  // Each failed pick removes that replica from rotation (threshold 1), so
  // one attempt per replica suffices; +1 covers a half-open trial landing
  // on a still-dead replica before rotation settles.
  for (std::size_t attempt = 0; attempt <= replicas_.size(); ++attempt) {
    std::optional<std::size_t> idx = vip_.pick(flow);
    if (!idx.has_value()) break;
    Replica& r = replicas_[*idx];
    if (!r.service) {
      vip_.report(*idx, false);
      ++out.dead_picks;
      continue;
    }
    vip_.report(*idx, true);
    out.replica = *idx;
    out.response = r.service->handle(req);
    return out;
  }
  out.response = net::HttpResponse::error(503, "Service Unavailable",
                                          "no live query replica");
  return out;
}

}  // namespace pingmesh::serve
