#include "topology/topology.h"

#include <cstdio>

#include "common/check.h"

namespace pingmesh::topo {

const char* switch_kind_name(SwitchKind kind) {
  switch (kind) {
    case SwitchKind::kTor: return "ToR";
    case SwitchKind::kLeaf: return "Leaf";
    case SwitchKind::kSpine: return "Spine";
    case SwitchKind::kBorder: return "Border";
  }
  return "?";
}

namespace {

std::string make_name(const std::string& dc, const char* kind, int a, int b = -1) {
  char buf[96];
  if (b >= 0) {
    std::snprintf(buf, sizeof(buf), "%s-PS%d-%s%d", dc.c_str(), a, kind, b);
  } else {
    std::snprintf(buf, sizeof(buf), "%s-%s%d", dc.c_str(), kind, a);
  }
  return buf;
}

}  // namespace

Topology Topology::build(const std::vector<DcSpec>& specs) {
  if (specs.empty()) throw std::invalid_argument("at least one DC required");
  if (specs.size() > 200) throw std::invalid_argument("too many DCs (ip plan limit)");
  Topology t;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const DcSpec& spec = specs[d];
    if (spec.podsets < 1 || spec.pods_per_podset < 1 || spec.servers_per_pod < 1 ||
        spec.leaves_per_podset < 1 || spec.spines < 1 || spec.borders < 1) {
      throw std::invalid_argument("DcSpec dimensions must be >= 1");
    }
    const auto servers_in_dc = static_cast<std::int64_t>(spec.podsets) *
                               spec.pods_per_podset * spec.servers_per_pod;
    if (servers_in_dc > 65536) {
      throw std::invalid_argument("DC exceeds 65536 servers (ip plan limit)");
    }

    DcId dc_id{static_cast<std::uint32_t>(d)};
    DataCenter dc;
    dc.id = dc_id;
    dc.name = spec.name;
    dc.region = spec.region;

    // Spine tier.
    for (int s = 0; s < spec.spines; ++s) {
      SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
      t.switches_.push_back(Switch{id, SwitchKind::kSpine,
                                   make_name(spec.name, "SP", s), dc_id, PodsetId{}});
      dc.spines.push_back(id);
    }
    // Border routers.
    for (int b = 0; b < spec.borders; ++b) {
      SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
      t.switches_.push_back(Switch{id, SwitchKind::kBorder,
                                   make_name(spec.name, "BR", b), dc_id, PodsetId{}});
      dc.borders.push_back(id);
    }

    std::uint32_t server_index_in_dc = 0;
    for (int ps = 0; ps < spec.podsets; ++ps) {
      PodsetId podset_id{static_cast<std::uint32_t>(t.podsets_.size())};
      Podset podset;
      podset.id = podset_id;
      podset.dc = dc_id;

      for (int l = 0; l < spec.leaves_per_podset; ++l) {
        SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
        t.switches_.push_back(Switch{id, SwitchKind::kLeaf,
                                     make_name(spec.name, "LF", ps, l), dc_id, podset_id});
        podset.leaves.push_back(id);
      }

      for (int p = 0; p < spec.pods_per_podset; ++p) {
        PodId pod_id{static_cast<std::uint32_t>(t.pods_.size())};
        SwitchId tor_id{static_cast<std::uint32_t>(t.switches_.size())};
        t.switches_.push_back(Switch{tor_id, SwitchKind::kTor,
                                     make_name(spec.name, "T", ps, p), dc_id, podset_id});
        Pod pod;
        pod.id = pod_id;
        pod.dc = dc_id;
        pod.podset = podset_id;
        pod.tor = tor_id;

        for (int s = 0; s < spec.servers_per_pod; ++s) {
          ServerId sid{static_cast<std::uint32_t>(t.servers_.size())};
          // IP plan: 10.(dc).(hi).(lo) — up to 65536 servers per DC.
          IpAddr ip(static_cast<std::uint32_t>((10u << 24) |
                                               (static_cast<std::uint32_t>(d) << 16) |
                                               server_index_in_dc));
          char sname[96];
          std::snprintf(sname, sizeof(sname), "%s-PS%d-P%d-S%d", spec.name.c_str(), ps, p, s);
          t.servers_.push_back(Server{sid, ip, sname, dc_id, podset_id, pod_id, tor_id, s});
          pod.servers.push_back(sid);
          dc.servers.push_back(sid);
          ++server_index_in_dc;
        }
        podset.pods.push_back(pod_id);
        t.pods_.push_back(std::move(pod));
      }
      dc.podsets.push_back(podset_id);
      t.podsets_.push_back(std::move(podset));
    }
    t.dcs_.push_back(std::move(dc));
  }
  return t;
}

ServerId Topology::server_by_ip(IpAddr ip) const {
  std::optional<ServerId> id = find_server_by_ip(ip);
  if (!id) throw std::out_of_range("unknown server ip " + ip.str());
  return *id;
}

std::optional<ServerId> Topology::find_server_by_ip(IpAddr ip) const {
  // The IP plan of build(): 10.(dc).(index in DC), and a DC's servers hold
  // consecutive ids in that order.
  if ((ip.v >> 24) != 10u) return std::nullopt;
  const std::uint32_t dc = (ip.v >> 16) & 0xFFu;
  const std::uint32_t index = ip.v & 0xFFFFu;
  if (dc >= dcs_.size() || index >= dcs_[dc].servers.size()) return std::nullopt;
  const ServerId id{dcs_[dc].servers.front().value + index};
  PINGMESH_DCHECK(servers_[id.value].ip == ip);
  return id;
}

bool Topology::same_pod(ServerId a, ServerId b) const {
  return server(a).pod == server(b).pod;
}

bool Topology::same_podset(ServerId a, ServerId b) const {
  return server(a).podset == server(b).podset;
}

bool Topology::same_dc(ServerId a, ServerId b) const {
  return server(a).dc == server(b).dc;
}

std::vector<SwitchId> Topology::switches_in_dc(DcId id, SwitchKind kind) const {
  std::vector<SwitchId> out;
  const DataCenter& d = dc(id);
  switch (kind) {
    case SwitchKind::kSpine: return d.spines;
    case SwitchKind::kBorder: return d.borders;
    case SwitchKind::kLeaf:
      for (PodsetId ps : d.podsets) {
        const auto& leaves = podset(ps).leaves;
        out.insert(out.end(), leaves.begin(), leaves.end());
      }
      return out;
    case SwitchKind::kTor:
      for (PodsetId ps : d.podsets) {
        for (PodId p : podset(ps).pods) out.push_back(pod(p).tor);
      }
      return out;
  }
  return out;
}

DcSpec small_dc_spec(std::string name, std::string region) {
  DcSpec s;
  s.name = std::move(name);
  s.region = std::move(region);
  s.podsets = 2;
  s.pods_per_podset = 4;
  s.servers_per_pod = 8;
  s.leaves_per_podset = 2;
  s.spines = 4;
  s.borders = 2;
  return s;
}

DcSpec medium_dc_spec(std::string name, std::string region) {
  DcSpec s;
  s.name = std::move(name);
  s.region = std::move(region);
  s.podsets = 4;
  s.pods_per_podset = 10;
  s.servers_per_pod = 20;
  s.leaves_per_podset = 4;
  s.spines = 8;
  s.borders = 2;
  return s;
}

DcSpec large_dc_spec(std::string name, std::string region) {
  DcSpec s;
  s.name = std::move(name);
  s.region = std::move(region);
  s.podsets = 8;
  s.pods_per_podset = 20;
  s.servers_per_pod = 40;
  s.leaves_per_podset = 8;
  s.spines = 16;
  s.borders = 4;
  return s;
}

ServiceId ServiceMap::add_service(std::string name, std::vector<ServerId> servers) {
  ServiceId id{static_cast<std::uint32_t>(names_.size())};
  names_.push_back(std::move(name));
  for (ServerId s : servers) by_server_[s].push_back(id);
  members_.push_back(std::move(servers));
  return id;
}

const std::string& ServiceMap::name(ServiceId id) const {
  if (id.value >= names_.size()) throw std::out_of_range("invalid service id");
  return names_[id.value];
}

const std::vector<ServerId>& ServiceMap::servers(ServiceId id) const {
  if (id.value >= members_.size()) throw std::out_of_range("invalid service id");
  return members_[id.value];
}

std::vector<ServiceId> ServiceMap::services_of(ServerId server) const {
  auto it = by_server_.find(server);
  return it != by_server_.end() ? it->second : std::vector<ServiceId>{};
}

}  // namespace pingmesh::topo
