#include "controller/generator.h"

#include <algorithm>

namespace pingmesh::controller {

PinglistGenerator::PinglistGenerator(const topo::Topology& topo, GeneratorConfig config)
    : topo_(&topo), config_(std::move(config)) {
  // Select inter-DC participants: the first `interdc_servers_per_podset`
  // servers of each podset, spread over its pods (first server of pod 0,
  // first server of pod 1, ...). Deterministic by construction.
  // The selection is computed even when inter-DC probing is disabled: the
  // same "selected servers" carry VIP monitoring targets (§6.2).
  interdc_by_dc_.resize(topo.dcs().size());
  is_participant_.assign(topo.server_count(), false);
  for (const topo::DataCenter& dc : topo.dcs()) {
    auto& selected = interdc_by_dc_[dc.id.value];
    for (PodsetId ps_id : dc.podsets) {
      const topo::Podset& ps = topo.podset(ps_id);
      int taken = 0;
      for (PodId pod_id : ps.pods) {
        if (taken >= config_.interdc_servers_per_podset) break;
        const topo::Pod& pod = topo.pod(pod_id);
        if (pod.servers.empty()) continue;
        ServerId s = pod.servers.front();
        selected.push_back(s);
        is_participant_[s.value] = true;
        ++taken;
      }
    }
  }
}

void PinglistGenerator::add_target(Pinglist& pl, IpAddr ip, SimTime interval,
                                   std::size_t& ordinal) const {
  if (pl.targets.size() >= config_.max_targets_per_server) return;
  PingTarget t;
  t.ip = ip;
  t.port = config_.tcp_port;
  t.interval = std::max(interval, kHardMinProbeInterval);
  // Every k-th target additionally exercises the payload path.
  if (config_.payload_every_kth > 0 && ordinal % config_.payload_every_kth == 0) {
    t.kind = ProbeKind::kTcpPayload;
    t.payload_bytes = kPayloadProbeBytes;
  }
  ++ordinal;
  pl.targets.push_back(t);
  // QoS monitoring: mirror the target on the low-priority class.
  if (config_.enable_qos && pl.targets.size() < config_.max_targets_per_server) {
    PingTarget low = t;
    low.kind = ProbeKind::kTcpConnect;
    low.payload_bytes = 0;
    low.qos = QosClass::kLow;
    low.port = config_.low_priority_port;
    pl.targets.push_back(low);
  }
}

Pinglist PinglistGenerator::generate_for(ServerId server) const {
  const topo::Topology& topo = *topo_;
  const topo::Server& self = topo.server(server);
  Pinglist pl;
  pl.server_name = self.name;
  pl.server_ip = self.ip;
  pl.version = version_;
  pl.min_probe_interval = kHardMinProbeInterval;
  std::size_t ordinal = static_cast<std::size_t>(server.value);  // stagger payload picks

  // Level 1: complete graph among servers under the same ToR.
  for (ServerId peer : topo.pod(self.pod).servers) {
    if (peer == server) continue;
    add_target(pl, topo.server(peer).ip, config_.intra_pod_interval, ordinal);
  }

  // Level 2: ToR-level complete graph within the DC. "For any ToR-pair
  // (ToRx, ToRy), let server i in ToRx ping server i in ToRy."
  const topo::DataCenter& dc = topo.dc(self.dc);
  for (PodsetId ps_id : dc.podsets) {
    for (PodId pod_id : topo.podset(ps_id).pods) {
      if (pod_id == self.pod) continue;
      const topo::Pod& peer_pod = topo.pod(pod_id);
      if (peer_pod.servers.empty()) continue;
      // Same index i; wrap if the peer pod has fewer servers.
      std::size_t i = static_cast<std::size_t>(self.index_in_pod) % peer_pod.servers.size();
      add_target(pl, topo.server(peer_pod.servers[i]).ip, config_.intra_dc_interval, ordinal);
    }
  }

  // Level 3: DC-level complete graph among selected servers.
  if (config_.enable_inter_dc && is_participant_[server.value]) {
    for (const topo::DataCenter& peer_dc : topo.dcs()) {
      if (peer_dc.id == self.dc) continue;
      const auto& peers = interdc_by_dc_[peer_dc.id.value];
      int taken = 0;
      // Start at an offset derived from this server so that load spreads
      // over the remote DC's participants.
      std::size_t start = peers.empty() ? 0 : server.value % peers.size();
      for (std::size_t k = 0; k < peers.size() && taken < config_.interdc_peers_per_dc; ++k) {
        ServerId peer = peers[(start + k) % peers.size()];
        add_target(pl, topo.server(peer).ip, config_.inter_dc_interval, ordinal);
        ++taken;
      }
    }
  }

  // VIP monitoring rides on the selected servers (works with or without
  // inter-DC probing).
  if (is_participant_[server.value]) {
    for (const PingTarget& vip : config_.vip_targets) {
      if (pl.targets.size() >= config_.max_targets_per_server) break;
      PingTarget t = vip;
      t.is_vip = true;
      if (t.interval < kHardMinProbeInterval) t.interval = kHardMinProbeInterval;
      pl.targets.push_back(t);
    }
  }

  return pl;
}

std::vector<Pinglist> PinglistGenerator::generate_all() const {
  std::vector<Pinglist> out;
  out.reserve(topo_->server_count());
  for (const topo::Server& s : topo_->servers()) out.push_back(generate_for(s.id));
  return out;
}

std::vector<ServerId> PinglistGenerator::interdc_participants(DcId dc) const {
  if (dc.value >= interdc_by_dc_.size()) return {};
  return interdc_by_dc_[dc.value];
}

bool PinglistGenerator::is_interdc_participant(ServerId server) const {
  return server.value < is_participant_.size() && is_participant_[server.value];
}

}  // namespace pingmesh::controller
