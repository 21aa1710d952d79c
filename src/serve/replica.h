// ServeReplicaSet — N QueryService replicas behind one SLB VIP, backed by
// a crash-consistent rollup tier (DESIGN.md §13.5).
//
// The paper serves its visualization/query load from a replicated web
// tier: any replica must answer any request, and a replica bounce must be
// invisible to clients. Two properties make that work here:
//
//  - *Replica-consistent ETags.* Every replica ingests the same batches in
//    the same order from the single uploader tap, and RollupStore is
//    deterministic, so all live replicas hold byte-identical state with
//    the SAME version counter. QueryService derives its ETag from
//    (version, path) only — never from replica identity — so a client can
//    take a 200 + ETag from replica A and revalidate it as a 304 against
//    replica B.
//  - *Crash consistency.* One PersistentRollupStore (the writer) WALs and
//    checkpoints every batch through Cosmos before it is applied anywhere.
//    restart(i) rebuilds a dead replica from those streams; because the
//    WAL is write-ahead and complete, the recovered store's digest is
//    byte-identical to the survivors' — which also re-synchronizes its
//    version, keeping the ETag contract intact across restarts.
//
// The front door (query()) picks a replica through the existing
// controller::SlbVip (flow = FNV-1a of the request path so a client's
// polling loop sticks to one replica while healthy). A pick that lands on
// a dead replica reports failure to the VIP — with failure_threshold 1 the
// replica leaves rotation immediately — and retries; only when every
// replica is dead does the set answer 503.
//
// Thread-safety: like the rest of the ingest path, on_records / advance /
// kill / restart are driver-thread-only; query() is driver-thread-only too
// (it mutates SLB health). The per-replica stores remain internally locked
// for their own readers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/slb.h"
#include "dsa/cosmos.h"
#include "dsa/uploader.h"
#include "serve/persist.h"
#include "serve/query_service.h"
#include "serve/rollup.h"
#include "topology/topology.h"

namespace pingmesh::serve {

struct ReplicaSetConfig {
  std::size_t replica_count = 2;
  PersistConfig persist;
  QueryServiceConfig query;
};

/// One answered (or refused) front-door request.
struct ReplicaQueryResult {
  net::HttpResponse response;
  std::size_t replica = 0;  ///< replica that answered; meaningless on 503
  std::size_t dead_picks = 0;  ///< picks that hit a dead replica first
};

class ServeReplicaSet final : public dsa::RecordTap {
 public:
  /// All replicas (and the writer) recover from `cosmos` if it holds
  /// persisted rollup state, so a cold start of the whole set resumes
  /// where the previous incarnation sealed. `cosmos` and the topology
  /// referents must outlive the set.
  ServeReplicaSet(const topo::Topology& topo, const topo::ServiceMap* services,
                  RollupConfig cfg, dsa::CosmosStore& cosmos,
                  ReplicaSetConfig rcfg = {});

  // -- ingest (driver thread) ------------------------------------------------
  /// Fan one uploader batch out: the durable writer first (WAL before any
  /// apply), then every live replica.
  void on_records(const agent::RecordColumns& batch, SimTime now) override;
  void advance(SimTime now);

  // -- chaos surface ---------------------------------------------------------
  /// Drop replica `i`'s in-memory state entirely (process kill).
  void kill(std::size_t i);
  /// Bring replica `i` back: recover a fresh store from Cosmos. The VIP
  /// readmits it through its normal half-open probe.
  void restart(std::size_t i);
  [[nodiscard]] bool alive(std::size_t i) const { return replicas_[i].store != nullptr; }
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }

  // -- front door ------------------------------------------------------------
  /// Route one request through the VIP to a live replica; 503 only when
  /// every replica is dead. Driver thread only (mutates SLB health).
  [[nodiscard]] ReplicaQueryResult query(const net::HttpRequest& req);

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] PersistentRollupStore& writer() { return writer_; }
  [[nodiscard]] const PersistentRollupStore& writer() const { return writer_; }
  /// Null while the replica is dead.
  [[nodiscard]] const RollupStore* replica_store(std::size_t i) const {
    return replicas_[i].store.get();
  }
  [[nodiscard]] controller::SlbVip& vip() { return vip_; }
  /// Recovery accounting of replica `i`'s most recent restart (zeros if it
  /// never restarted).
  [[nodiscard]] const RollupRecoveryStats& last_recovery(std::size_t i) const {
    return replicas_[i].recovery;
  }

 private:
  struct Replica {
    std::unique_ptr<RollupStore> store;
    std::unique_ptr<QueryService> service;
    RollupRecoveryStats recovery;
  };

  const topo::Topology* topo_;
  const topo::ServiceMap* services_;
  RollupConfig cfg_;
  dsa::CosmosStore* cosmos_;
  ReplicaSetConfig rcfg_;

  PersistentRollupStore writer_;
  std::vector<Replica> replicas_;
  controller::SlbVip vip_;
};

}  // namespace pingmesh::serve
