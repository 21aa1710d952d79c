#include "netsim/fault.h"

#include <stdexcept>

namespace pingmesh::netsim {

FaultId FaultInjector::add_blackhole(SwitchId sw, BlackholeMode mode,
                                     double entry_fraction, SimTime start, SimTime end,
                                     std::uint64_t salt) {
  if (entry_fraction <= 0.0 || entry_fraction > 1.0) {
    throw std::invalid_argument("entry_fraction must be in (0, 1]");
  }
  Fault f;
  f.id = next_id_++;
  f.kind = FaultKind::kBlackhole;
  f.sw = sw;
  f.mode = mode;
  f.magnitude = entry_fraction;
  f.salt = salt;
  f.start = start;
  f.end = end;
  by_switch_[sw].push_back(faults_.size());
  faults_.push_back(f);
  return f.id;
}

FaultId FaultInjector::add_silent_random_drop(SwitchId sw, double drop_prob,
                                              SimTime start, SimTime end) {
  if (drop_prob <= 0.0 || drop_prob > 1.0) {
    throw std::invalid_argument("drop_prob must be in (0, 1]");
  }
  Fault f;
  f.id = next_id_++;
  f.kind = FaultKind::kSilentRandomDrop;
  f.sw = sw;
  f.magnitude = drop_prob;
  f.start = start;
  f.end = end;
  by_switch_[sw].push_back(faults_.size());
  faults_.push_back(f);
  return f.id;
}

FaultId FaultInjector::add_congestion(SwitchId sw, double queue_scale, double drop_prob,
                                      SimTime start, SimTime end) {
  if (queue_scale < 1.0) throw std::invalid_argument("queue_scale must be >= 1");
  if (drop_prob < 0.0 || drop_prob > 1.0) {
    throw std::invalid_argument("drop_prob must be in [0, 1]");
  }
  Fault f;
  f.id = next_id_++;
  f.kind = FaultKind::kCongestion;
  f.sw = sw;
  f.magnitude = drop_prob;
  f.queue_scale = queue_scale;
  f.start = start;
  f.end = end;
  by_switch_[sw].push_back(faults_.size());
  faults_.push_back(f);
  return f.id;
}

FaultId FaultInjector::add_podset_down(PodsetId podset, SimTime start, SimTime end) {
  Fault f;
  f.id = next_id_++;
  f.kind = FaultKind::kPodsetDown;
  f.podset = podset;
  f.start = start;
  f.end = end;
  by_podset_[podset].push_back(faults_.size());
  faults_.push_back(f);
  return f.id;
}

FaultId FaultInjector::add_server_down(ServerId server, SimTime start, SimTime end) {
  Fault f;
  f.id = next_id_++;
  f.kind = FaultKind::kServerDown;
  f.server = server;
  f.start = start;
  f.end = end;
  by_server_[server].push_back(faults_.size());
  faults_.push_back(f);
  return f.id;
}

void FaultInjector::remove(FaultId id) {
  for (auto& f : faults_) {
    if (f.id == id) {
      f.removed = true;
      return;
    }
  }
}

int FaultInjector::clear_blackholes_on(SwitchId sw) {
  int n = 0;
  auto it = by_switch_.find(sw);
  if (it == by_switch_.end()) return 0;
  for (std::size_t idx : it->second) {
    Fault& f = faults_[idx];
    if (!f.removed && f.kind == FaultKind::kBlackhole) {
      f.removed = true;
      ++n;
    }
  }
  return n;
}

int FaultInjector::clear_all_on(SwitchId sw) {
  int n = 0;
  auto it = by_switch_.find(sw);
  if (it == by_switch_.end()) return 0;
  for (std::size_t idx : it->second) {
    Fault& f = faults_[idx];
    if (!f.removed) {
      f.removed = true;
      ++n;
    }
  }
  return n;
}

void FaultInjector::clear() {
  faults_.clear();
  by_switch_.clear();
  by_podset_.clear();
  by_server_.clear();
}

bool FaultInjector::pattern_hit(const Fault& f, const FiveTuple& tuple) {
  std::uint64_t h = (static_cast<std::uint64_t>(tuple.src_ip.v) << 32) | tuple.dst_ip.v;
  if (f.mode == BlackholeMode::kFiveTuple) {
    h = mix64(h) ^ ((static_cast<std::uint64_t>(tuple.src_port) << 16) | tuple.dst_port);
  }
  h = mix64(h ^ f.salt);
  // Map the pattern space onto [0,1) and black-hole the lowest fraction.
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
  return u < f.magnitude;
}

HopEffect FaultInjector::hop_effect(SwitchId sw, const FiveTuple& tuple,
                                    SimTime now) const {
  HopEffect e;
  auto it = by_switch_.find(sw);
  if (it == by_switch_.end()) return e;
  for (std::size_t idx : it->second) {
    const Fault& f = faults_[idx];
    if (!f.active(now)) continue;
    switch (f.kind) {
      case FaultKind::kBlackhole:
        if (pattern_hit(f, tuple)) e.blackholed = true;
        break;
      case FaultKind::kSilentRandomDrop:
        e.extra_drop_prob += f.magnitude;
        break;
      case FaultKind::kCongestion:
        e.extra_drop_prob += f.magnitude;
        e.queue_scale *= f.queue_scale;
        break;
      case FaultKind::kPodsetDown:
        break;  // handled via podset_down()
      case FaultKind::kServerDown:
        break;  // handled via server_down()
    }
  }
  return e;
}

bool FaultInjector::podset_down(PodsetId podset, SimTime now) const {
  auto it = by_podset_.find(podset);
  if (it == by_podset_.end()) return false;
  for (std::size_t idx : it->second) {
    const Fault& f = faults_[idx];
    if (f.active(now) && f.kind == FaultKind::kPodsetDown) return true;
  }
  return false;
}

bool FaultInjector::server_down(ServerId server, SimTime now) const {
  auto it = by_server_.find(server);
  if (it == by_server_.end()) return false;
  for (std::size_t idx : it->second) {
    const Fault& f = faults_[idx];
    if (f.active(now) && f.kind == FaultKind::kServerDown) return true;
  }
  return false;
}

bool FaultInjector::has_active_fault(SwitchId sw, SimTime now) const {
  auto it = by_switch_.find(sw);
  if (it == by_switch_.end()) return false;
  for (std::size_t idx : it->second) {
    if (faults_[idx].active(now)) return true;
  }
  return false;
}

std::size_t FaultInjector::active_fault_count(SimTime now) const {
  std::size_t n = 0;
  for (const auto& f : faults_) {
    if (f.active(now)) ++n;
  }
  return n;
}

std::vector<SwitchId> FaultInjector::blackholed_switches(SimTime now) const {
  std::vector<SwitchId> out;
  for (const auto& f : faults_) {
    if (f.active(now) && f.kind == FaultKind::kBlackhole) out.push_back(f.sw);
  }
  return out;
}

bool FaultInjector::blackholes_tuple(SwitchId sw, const FiveTuple& tuple,
                                     SimTime now) const {
  auto it = by_switch_.find(sw);
  if (it == by_switch_.end()) return false;
  for (std::size_t idx : it->second) {
    const Fault& f = faults_[idx];
    if (f.active(now) && f.kind == FaultKind::kBlackhole && pattern_hit(f, tuple)) {
      return true;
    }
  }
  return false;
}

}  // namespace pingmesh::netsim
