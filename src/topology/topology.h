// Data center network topology model (paper §2.1, Figure 1).
//
// Structure: a Region holds multiple DataCenters connected by an inter-DC
// WAN. Inside a DC, servers connect to a top-of-rack (ToR) switch forming a
// Pod; tens of Pods plus a tier of Leaf switches form a Podset; Podsets
// connect through a tier of Spine switches; Border routers attach the DC to
// the inter-DC network.
//
// The model is intentionally flat: entities live in indexed vectors and
// carry their containment coordinates, so lookups used on the simulator hot
// path are O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace pingmesh::topo {

enum class SwitchKind : std::uint8_t { kTor, kLeaf, kSpine, kBorder };

const char* switch_kind_name(SwitchKind kind);

struct Server {
  ServerId id;
  IpAddr ip;
  std::string name;
  DcId dc;
  PodsetId podset;
  PodId pod;
  SwitchId tor;
  int index_in_pod = 0;  // used by the level-2 pinglist pairing rule
};

struct Switch {
  SwitchId id;
  SwitchKind kind = SwitchKind::kTor;
  std::string name;
  DcId dc;
  PodsetId podset;  // invalid for Spine/Border
};

struct Pod {
  PodId id;
  DcId dc;
  PodsetId podset;
  SwitchId tor;
  std::vector<ServerId> servers;
};

struct Podset {
  PodsetId id;
  DcId dc;
  std::vector<PodId> pods;
  std::vector<SwitchId> leaves;
};

struct DataCenter {
  DcId id;
  std::string name;    // e.g. "DC1"
  std::string region;  // e.g. "US West"
  std::vector<PodsetId> podsets;
  std::vector<SwitchId> spines;
  std::vector<SwitchId> borders;
  std::vector<ServerId> servers;  // all servers, in pod order
};

/// Shape of one data center for the builder.
struct DcSpec {
  std::string name;
  std::string region;
  int podsets = 2;
  int pods_per_podset = 20;
  int servers_per_pod = 40;
  int leaves_per_podset = 4;
  int spines = 16;
  int borders = 2;
};

/// Immutable multi-DC topology. Build once via Topology::build().
class Topology {
 public:
  static Topology build(const std::vector<DcSpec>& specs);

  // -- entity access ------------------------------------------------------
  [[nodiscard]] const Server& server(ServerId id) const { return at(servers_, id.value, "server"); }
  [[nodiscard]] const Switch& sw(SwitchId id) const { return at(switches_, id.value, "switch"); }
  [[nodiscard]] const Pod& pod(PodId id) const { return at(pods_, id.value, "pod"); }
  [[nodiscard]] const Podset& podset(PodsetId id) const { return at(podsets_, id.value, "podset"); }
  [[nodiscard]] const DataCenter& dc(DcId id) const { return at(dcs_, id.value, "dc"); }

  [[nodiscard]] const std::vector<Server>& servers() const { return servers_; }
  [[nodiscard]] const std::vector<Switch>& switches() const { return switches_; }
  [[nodiscard]] const std::vector<Pod>& pods() const { return pods_; }
  [[nodiscard]] const std::vector<Podset>& podsets() const { return podsets_; }
  [[nodiscard]] const std::vector<DataCenter>& dcs() const { return dcs_; }

  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }

  /// Lookup by IP, computed from the IP plan (no table); throws
  /// std::out_of_range for an address outside it.
  [[nodiscard]] ServerId server_by_ip(IpAddr ip) const;
  /// Lookup by IP, computed from the IP plan; nullopt for an address
  /// outside it.
  [[nodiscard]] std::optional<ServerId> find_server_by_ip(IpAddr ip) const;

  // -- relationship helpers -----------------------------------------------
  [[nodiscard]] bool same_pod(ServerId a, ServerId b) const;
  [[nodiscard]] bool same_podset(ServerId a, ServerId b) const;
  [[nodiscard]] bool same_dc(ServerId a, ServerId b) const;

  /// Servers under one ToR (== pod membership).
  [[nodiscard]] const std::vector<ServerId>& servers_in_pod(PodId id) const {
    return pod(id).servers;
  }

  /// All switches of a given kind within a DC.
  [[nodiscard]] std::vector<SwitchId> switches_in_dc(DcId id, SwitchKind kind) const;

 private:
  template <class T>
  static const T& at(const std::vector<T>& v, std::uint32_t i, const char* what) {
    if (i >= v.size()) throw std::out_of_range(std::string("invalid ") + what + " id");
    return v[i];
  }

  std::vector<Server> servers_;
  std::vector<Switch> switches_;
  std::vector<Pod> pods_;
  std::vector<Podset> podsets_;
  std::vector<DataCenter> dcs_;
};

/// Canonical small/medium/large shapes used by tests, examples, and benches.
DcSpec small_dc_spec(std::string name, std::string region);    // 2 podsets x 4 pods x 8 servers
DcSpec medium_dc_spec(std::string name, std::string region);   // 4 podsets x 10 pods x 20 servers
DcSpec large_dc_spec(std::string name, std::string region);    // 8 podsets x 20 pods x 40 servers

/// Assignment of servers to application services (for per-service SLA,
/// paper §4.3 "network SLA can be tracked ... per service").
class ServiceMap {
 public:
  /// Register a service over an explicit server set; returns its id.
  ServiceId add_service(std::string name, std::vector<ServerId> servers);

  [[nodiscard]] const std::string& name(ServiceId id) const;
  [[nodiscard]] const std::vector<ServerId>& servers(ServiceId id) const;
  [[nodiscard]] std::size_t service_count() const { return names_.size(); }

  /// Services a server belongs to (possibly several).
  [[nodiscard]] std::vector<ServiceId> services_of(ServerId server) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<ServerId>> members_;
  std::unordered_map<ServerId, std::vector<ServiceId>> by_server_;
};

}  // namespace pingmesh::topo
