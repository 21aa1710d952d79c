#include "netsim/simnet.h"

#include <algorithm>
#include <stdexcept>

namespace pingmesh::netsim {

namespace {

constexpr double kNsPerUs = 1000.0;

// Context salts separating the counter streams of draws that can share a
// (tuple, time) pair.
constexpr std::uint64_t kSaltPacket = 0x70616b74;      // "pakt"
constexpr std::uint64_t kSaltEcho = 0x6563686f;        // "echo"
constexpr std::uint64_t kSaltTraceroute = 0x74726163;  // "trac"

std::uint64_t wan_key(DcId a, DcId b) {
  std::uint32_t lo = std::min(a.value, b.value);
  std::uint32_t hi = std::max(a.value, b.value);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

std::uint64_t tuple_key(const FiveTuple& t) {
  std::uint64_t ips = (static_cast<std::uint64_t>(t.src_ip.v) << 32) | t.dst_ip.v;
  std::uint64_t rest = (static_cast<std::uint64_t>(t.src_port) << 32) |
                       (static_cast<std::uint64_t>(t.dst_port) << 16) | t.protocol;
  return mix_key(ips, rest);
}

}  // namespace

SimNetwork::SimNetwork(const topo::Topology& topo, std::uint64_t seed)
    : topo_(&topo), router_(topo), seed_(seed) {
  dc_profiles_.assign(topo.dcs().size(), DcProfile{});
}

CounterRng SimNetwork::stream_for(const FiveTuple& tuple, SimTime now,
                                  std::uint64_t salt) const {
  return CounterRng(
      mix_key(seed_, tuple_key(tuple), static_cast<std::uint64_t>(now), salt));
}

void SimNetwork::set_dc_profile(DcId dc, const DcProfile& profile) {
  if (dc.value >= dc_profiles_.size()) throw std::out_of_range("invalid dc id");
  dc_profiles_[dc.value] = profile;
}

const DcProfile& SimNetwork::dc_profile(DcId dc) const {
  if (dc.value >= dc_profiles_.size()) throw std::out_of_range("invalid dc id");
  return dc_profiles_[dc.value];
}

void SimNetwork::set_wan_profile(DcId a, DcId b, const WanProfile& profile) {
  wan_profiles_[wan_key(a, b)] = profile;
}

const WanProfile& SimNetwork::wan_between(DcId a, DcId b) const {
  auto it = wan_profiles_.find(wan_key(a, b));
  return it != wan_profiles_.end() ? it->second : default_wan_;
}

double SimNetwork::element_baseline_drop(const topo::Switch& sw,
                                         const DcProfile& prof) const {
  switch (sw.kind) {
    case topo::SwitchKind::kTor: return prof.tor_drop;
    case topo::SwitchKind::kLeaf: return prof.leaf_drop;
    case topo::SwitchKind::kSpine: return prof.spine_drop;
    case topo::SwitchKind::kBorder: return prof.border_drop;
  }
  return 0.0;
}

SimTime SimNetwork::sample_host_tx(const DcProfile& prof, CounterRng& rng) {
  double us = prof.host_tx_us + rng.exponential(prof.host_tx_exp_us * (0.5 + prof.host_load));
  return static_cast<SimTime>(us * kNsPerUs);
}

SimTime SimNetwork::sample_host_rx(const DcProfile& prof, CounterRng& rng) {
  double us = prof.host_rx_us + rng.exponential(prof.host_rx_exp_us * (0.5 + prof.host_load));
  if (rng.chance(prof.host_stall_prob)) {
    // Non-realtime OS under load: the receiving process does not get
    // scheduled for a long time (paper §4.1: "the server OS is not a
    // real-time operating system").
    double stall_ms = rng.pareto(prof.host_stall_xm_ms, prof.host_stall_alpha);
    stall_ms = std::min(stall_ms, prof.host_stall_cap_ms);
    us += stall_ms * 1000.0;
  }
  return static_cast<SimTime>(us * kNsPerUs);
}

SimTime SimNetwork::sample_hop_latency(const DcProfile& prof, double queue_scale,
                                       int size_bytes, CounterRng& rng) {
  double us = prof.hop_base_us + prof.per_kb_us * (static_cast<double>(size_bytes) / 1024.0);
  us += rng.exponential(prof.queue_exp_us) * queue_scale;
  if (rng.chance(std::min(1.0, prof.burst_prob * queue_scale))) {
    us += rng.exponential(prof.burst_queue_us) * queue_scale;
  }
  return static_cast<SimTime>(us * kNsPerUs);
}

bool SimNetwork::server_up(ServerId server, SimTime now) const {
  return !faults_.podset_down(topo_->server(server).podset, now) &&
         !faults_.server_down(server, now);
}

PacketResult SimNetwork::send_packet(const FiveTuple& tuple, int size_bytes, SimTime now,
                                     bool low_priority) const {
  packets_sent_.fetch_add(1, std::memory_order_relaxed);
  PacketResult r;

  ServerId src = topo_->server_by_ip(tuple.src_ip);
  ServerId dst = topo_->server_by_ip(tuple.dst_ip);
  const topo::Server& s = topo_->server(src);
  const topo::Server& d = topo_->server(dst);
  if (faults_.podset_down(s.podset, now) || faults_.podset_down(d.podset, now)) {
    r.drop_site = DropSite::kPodsetDown;
    return r;
  }
  // A crashed server sends nothing and answers nothing.
  if (faults_.server_down(src, now)) {
    r.drop_site = DropSite::kSrcHost;
    return r;
  }
  if (faults_.server_down(dst, now)) {
    r.drop_site = DropSite::kDstHost;
    return r;
  }

  const DcProfile& src_prof = dc_profiles_[s.dc.value];
  const DcProfile& dst_prof = dc_profiles_[d.dc.value];

  // All randomness for this packet comes from one counter stream keyed by
  // (seed, tuple, launch time): the packet's fate is a pure function of its
  // identity, independent of what other packets are in flight.
  CounterRng rng = stream_for(tuple, now, kSaltPacket);

  // Source NIC / host send-side drop.
  if (rng.chance(src_prof.nic_drop)) {
    r.drop_site = DropSite::kSrcHost;
    return r;
  }

  SimTime latency = sample_host_tx(src_prof, rng);
  Path path = router_.resolve(tuple);

  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    const topo::Switch& sw = topo_->sw(path.hops[i].sw);
    const DcProfile& hop_prof = dc_profiles_[sw.dc.value];
    HopEffect eff = faults_.hop_effect(sw.id, tuple, now);

    if (eff.blackholed) {
      r.drop_site = DropSite::kSwitch;
      r.drop_switch = sw.id;
      r.blackholed = true;
      return r;
    }
    double p_drop = element_baseline_drop(sw, hop_prof) + eff.extra_drop_prob;
    if (rng.chance(std::min(1.0, p_drop))) {
      r.drop_site = DropSite::kSwitch;
      r.drop_switch = sw.id;
      return r;
    }
    // DSCP low priority waits behind the high-priority queue; the penalty
    // grows with whatever congestion the hop is under.
    double queue_scale = eff.queue_scale * (low_priority ? 1.0 + eff.queue_scale : 1.0);
    latency += sample_hop_latency(hop_prof, queue_scale, size_bytes, rng);

    // WAN segment between the two border routers.
    if (path.cross_dc && i + 1 < path.hops.size()) {
      const topo::Switch& next_sw = topo_->sw(path.hops[i + 1].sw);
      if (sw.kind == topo::SwitchKind::kBorder &&
          next_sw.kind == topo::SwitchKind::kBorder && sw.dc != next_sw.dc) {
        const WanProfile& wan = wan_between(sw.dc, next_sw.dc);
        if (rng.chance(wan.drop)) {
          r.drop_site = DropSite::kSwitch;
          r.drop_switch = sw.id;  // attribute to the egress border
          return r;
        }
        double wan_ms = wan.propagation_ms_oneway + rng.exponential(wan.jitter_ms);
        latency += static_cast<SimTime>(wan_ms * 1'000'000.0);
      }
    }
  }

  // Destination NIC / receive-side drop, then receive-path latency.
  if (rng.chance(dst_prof.nic_drop)) {
    r.drop_site = DropSite::kDstHost;
    return r;
  }
  latency += sample_host_rx(dst_prof, rng);

  r.delivered = true;
  r.latency = latency;
  return r;
}

ProbeOutcome SimNetwork::tcp_probe(ServerId src, ServerId dst, std::uint16_t src_port,
                                   std::uint16_t dst_port, const ProbeSpec& spec,
                                   SimTime now) const {
  ProbeOutcome out;
  const topo::Server& s = topo_->server(src);
  const topo::Server& d = topo_->server(dst);
  FiveTuple fwd{s.ip, d.ip, src_port, dst_port, 6};
  FiveTuple rev = reverse(fwd);

  auto note_drop = [&out](const PacketResult& pr) {
    ++out.packets_dropped;
    if (pr.blackholed) out.hit_blackhole = true;
    if (!out.first_drop_switch.valid() && pr.drop_site == DropSite::kSwitch) {
      out.first_drop_switch = pr.drop_switch;
    }
  };

  // --- connection establishment with SYN retransmission -------------------
  SimTime wait = 0;
  SimTime rto = kSynInitialRto;
  for (int attempt = 0; attempt <= kSynRetries; ++attempt) {
    out.syn_transmissions = attempt + 1;
    PacketResult syn = send_packet(fwd, 64, now + wait, spec.low_priority);
    if (syn.delivered) {
      PacketResult synack = send_packet(rev, 64, now + wait + syn.latency, spec.low_priority);
      if (synack.delivered) {
        out.success = true;
        out.rtt = wait + syn.latency + synack.latency;
        break;
      }
      note_drop(synack);
    } else {
      note_drop(syn);
    }
    wait += rto;
    rto *= 2;
  }
  if (!out.success) return out;

  // --- optional payload echo ----------------------------------------------
  if (spec.payload_bytes > 0) {
    const DcProfile& dst_prof = dc_profiles_[d.dc.value];
    SimTime start = now + out.rtt;
    SimTime pwait = 0;
    SimTime prto = kDataRto;
    for (int attempt = 0; attempt <= kDataRetries; ++attempt) {
      PacketResult data = send_packet(fwd, spec.payload_bytes, start + pwait, spec.low_priority);
      if (data.delivered) {
        // User-space processing at the responder before echoing back.
        CounterRng erng = stream_for(fwd, start + pwait, kSaltEcho);
        double echo_us =
            dst_prof.user_echo_base_us +
            erng.exponential(dst_prof.user_echo_load_us * (0.5 + dst_prof.host_load));
        SimTime echo_proc = static_cast<SimTime>(echo_us * kNsPerUs);
        PacketResult echo = send_packet(rev, spec.payload_bytes,
                                        start + pwait + data.latency + echo_proc,
                                        spec.low_priority);
        if (echo.delivered) {
          out.payload_success = true;
          out.payload_rtt = pwait + data.latency + echo_proc + echo.latency;
          break;
        }
        note_drop(echo);
      } else {
        note_drop(data);
      }
      pwait += prto;
      prto *= 2;
    }
  }
  return out;
}

SessionOutcome SimNetwork::tcp_session(ServerId src, ServerId dst, std::uint16_t src_port,
                                       std::uint16_t dst_port, const SessionSpec& spec,
                                       SimTime now) const {
  SessionOutcome out;
  ProbeOutcome connect = tcp_probe(src, dst, src_port, dst_port, ProbeSpec{}, now);
  if (!connect.success) return out;

  const topo::Server& s = topo_->server(src);
  const topo::Server& d = topo_->server(dst);
  FiveTuple fwd{s.ip, d.ip, src_port, dst_port, 6};
  FiveTuple rev = reverse(fwd);

  auto segments = static_cast<std::int64_t>(
      (spec.total_bytes + spec.mss - 1) / std::max(1, spec.mss));
  std::int64_t window = std::max(1, spec.icw_segments);
  std::int64_t sent = 0;
  SimTime t = connect.rtt;

  // Slow start without loss-driven window reduction: each round trip ships
  // the current window (sampled as one full-size data packet + ack, the
  // window's pipelined segments arriving back-to-back), then doubles it.
  // Lost data or ack packets cost a retransmission timeout.
  while (sent < segments) {
    ++out.round_trips;
    for (;;) {
      PacketResult data = send_packet(fwd, spec.mss, now + t);
      if (data.delivered) {
        PacketResult ack = send_packet(rev, 64, now + t + data.latency);
        if (ack.delivered) {
          t += data.latency + ack.latency;
          break;
        }
      }
      t += kDataRto;
      if (t > seconds(120)) return out;  // give up: session failed
    }
    sent += window;
    window *= 2;
  }
  out.success = true;
  out.finish_time = t;
  return out;
}

std::optional<SwitchId> SimNetwork::traceroute_hop(const FiveTuple& tuple, int ttl,
                                                   SimTime now) const {
  if (ttl < 1) return std::nullopt;
  ServerId src = topo_->server_by_ip(tuple.src_ip);
  ServerId dst = topo_->server_by_ip(tuple.dst_ip);
  const topo::Server& s = topo_->server(src);
  const topo::Server& d = topo_->server(dst);
  if (faults_.podset_down(s.podset, now) || faults_.podset_down(d.podset, now)) {
    return std::nullopt;
  }
  if (faults_.server_down(src, now) || faults_.server_down(dst, now)) {
    return std::nullopt;
  }
  Path path = router_.resolve(tuple);
  if (static_cast<std::size_t>(ttl) > path.hops.size()) return std::nullopt;

  packets_sent_.fetch_add(1, std::memory_order_relaxed);
  CounterRng rng = stream_for(tuple, now, kSaltTraceroute);
  // The probe must survive hops 1..ttl-1; the hop at `ttl` answers.
  for (int i = 0; i < ttl; ++i) {
    const topo::Switch& sw = topo_->sw(path.hops[static_cast<std::size_t>(i)].sw);
    const DcProfile& prof = dc_profiles_[sw.dc.value];
    HopEffect eff = faults_.hop_effect(sw.id, tuple, now);
    bool is_answering_hop = (i == ttl - 1);
    if (!is_answering_hop) {
      if (eff.blackholed) return std::nullopt;
      double p_drop = element_baseline_drop(sw, prof) + eff.extra_drop_prob;
      if (rng.chance(std::min(1.0, p_drop))) return std::nullopt;
    }
    // The answering hop replies even if it black-holes transit traffic of
    // this pattern (TTL-expired handling is control-plane).
  }
  return path.hops[static_cast<std::size_t>(ttl - 1)].sw;
}

}  // namespace pingmesh::netsim
