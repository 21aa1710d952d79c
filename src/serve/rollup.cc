#include "serve/rollup.h"

#include <algorithm>

#include "common/check.h"

namespace pingmesh::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

RollupStore::RollupStore(const topo::Topology& topo, const topo::ServiceMap* services,
                         RollupConfig cfg)
    : topo_(&topo), cfg_(cfg) {
  PINGMESH_CHECK_MSG(cfg_.tier_width[0] > 0, "tier-0 width must be positive");
  PINGMESH_CHECK_MSG(cfg_.tier_width[1] % cfg_.tier_width[0] == 0 &&
                         cfg_.tier_width[2] % cfg_.tier_width[1] == 0,
                     "rollup tier widths must nest (w0 | w1 | w2)");
  PINGMESH_CHECK_MSG(cfg_.seal_grace >= 0 && cfg_.future_slack >= 0,
                     "seal_grace / future_slack must be non-negative");
  if (services != nullptr) {
    server_services_.resize(topo.server_count());
    for (const topo::Server& srv : topo.servers()) {
      for (ServiceId sid : services->services_of(srv.id)) {
        server_services_[srv.id.value].push_back(sid.value);
      }
    }
  }
}

void RollupStore::place(Series& s, SimTime ts, bool success, SimTime rtt) {
  const SimTime w0 = cfg_.tier_width[0];
  const SimTime start = w0 * (ts / w0);
  // Retransmit artifacts count as drop signatures, never as latency samples
  // (the same ProbeStats rule as the streaming windows and the batch jobs).
  s.tier[0][start].add(success, rtt);
}

void RollupStore::on_records(const agent::RecordColumns& batch, SimTime now) {
  const std::size_t n = batch.size();
  const SimTime* ts = batch.timestamps();
  const std::uint32_t* src_ips = batch.src_ips();
  const std::uint32_t* dst_ips = batch.dst_ips();
  const std::uint8_t* successes = batch.successes();
  const SimTime* rtts = batch.rtts();
  std::lock_guard<std::mutex> lock(mu_);
  const SimTime horizon = std::max(last_now_, now) + cfg_.future_slack;
  bool changed = false;
  for (std::size_t i = 0; i < n; ++i) {
    ++ingested_;
    if (ts[i] > horizon) {  // clock-skew guard: refuse to extend the future
      ++rejected_future_;
      continue;
    }
    if (ts[i] < sealed_until_[0]) {  // seals are final
      ++late_dropped_;
      continue;
    }
    auto src = topo_->find_server_by_ip(IpAddr(src_ips[i]));
    auto dst = topo_->find_server_by_ip(IpAddr(dst_ips[i]));
    if (!src || !dst) {  // mirrors the batch pod-pair job's filter
      ++skipped_;
      continue;
    }
    const bool ok = successes[i] != 0;
    PodId src_pod = topo_->server(*src).pod;
    PodId dst_pod = topo_->server(*dst).pod;
    place(pairs_[pair_key(src_pod, dst_pod)], ts[i], ok, rtts[i]);
    ++placed_;
    changed = true;
    if (!server_services_.empty()) {
      for (std::uint32_t sid : server_services_[src->value]) {
        place(services_[sid], ts[i], ok, rtts[i]);
      }
    }
  }
  if (changed) ++version_;
  advance_locked(now);
}

void RollupStore::advance(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  advance_locked(now);
}

void RollupStore::advance_locked(SimTime now) {
  last_now_ = std::max(last_now_, now);
  const SimTime basis = std::max<SimTime>(0, last_now_ - cfg_.seal_grace);
  SimTime next[3];
  for (int t = 0; t < 3; ++t) {
    next[t] = cfg_.tier_width[t] * (basis / cfg_.tier_width[t]);
  }
  if (next[0] == sealed_until_[0] && next[1] == sealed_until_[1] &&
      next[2] == sealed_until_[2]) {
    return;
  }
  // seal_series derives the same `next` watermarks from last_now_; the
  // members are only moved after every series has sealed, so the merge
  // ranges [sealed_until_, next) are consistent across all scopes.
  for (auto& [key, series] : pairs_) {
    (void)key;
    seal_series(series);
  }
  for (auto& [key, series] : services_) {
    (void)key;
    seal_series(series);
  }
  sealed_until_[0] = next[0];
  sealed_until_[1] = next[1];
  sealed_until_[2] = next[2];
  ++version_;
}

void RollupStore::seal_series(Series& s) {
  const SimTime basis = std::max<SimTime>(0, last_now_ - cfg_.seal_grace);
  const SimTime w1 = cfg_.tier_width[1];
  const SimTime w2 = cfg_.tier_width[2];
  SimTime next[3];
  for (int t = 0; t < 3; ++t) {
    next[t] = cfg_.tier_width[t] * (basis / cfg_.tier_width[t]);
  }
  // Newly sealed tier-0 cells merge into their tier-1 parent accumulator
  // (ascending start order — the deterministic merge order contract).
  for (auto it = s.tier[0].lower_bound(sealed_until_[0]);
       it != s.tier[0].end() && it->first < next[0]; ++it) {
    s.tier[1][w1 * (it->first / w1)].merge(it->second);
  }
  // Newly sealed tier-1 cells merge into tier 2 and shed their children.
  for (auto it = s.tier[1].lower_bound(sealed_until_[1]);
       it != s.tier[1].end() && it->first < next[1]; ++it) {
    s.tier[2][w2 * (it->first / w2)].merge(it->second);
    s.tier[0].erase(s.tier[0].lower_bound(it->first),
                    s.tier[0].lower_bound(it->first + w1));
  }
  // Newly sealed tier-2 cells shed their tier-1 children.
  for (auto it = s.tier[2].lower_bound(sealed_until_[2]);
       it != s.tier[2].end() && it->first < next[2]; ++it) {
    s.tier[1].erase(s.tier[1].lower_bound(it->first),
                    s.tier[1].lower_bound(it->first + w2));
  }
  // Bounded memory: evict the oldest sealed tier-2 cells beyond the cap.
  std::size_t sealed2 = 0;
  for (const auto& [start, cell] : s.tier[2]) {
    (void)cell;
    if (start >= next[2]) break;
    ++sealed2;
  }
  while (sealed2 > cfg_.max_tier2_cells) {
    auto oldest = s.tier[2].begin();
    expired_ += oldest->second.probes;
    s.tier[2].erase(oldest);
    --sealed2;
  }
}

bool RollupStore::cell_queryable(int tier, SimTime start) const {
  if (tier == 0) return true;  // live + sealed tier-0 cells both serve
  return start < sealed_until_[tier];
}

std::optional<agent::WindowStats> RollupStore::merge_range(const Series& s, SimTime from,
                                                           SimTime to) const {
  const SimTime w0 = cfg_.tier_width[0];
  const SimTime from_al = w0 * (std::max<SimTime>(0, from) / w0);
  const SimTime to_al = to <= 0 ? 0 : w0 * ((to + w0 - 1) / w0);
  scratch_.clear();
  SimTime window_start = 0;
  SimTime window_end = 0;
  bool any = false;
  for (int tier = 2; tier >= 0; --tier) {
    const SimTime w = cfg_.tier_width[tier];
    // Cell starts are w-aligned, so the first cell that can overlap from_al
    // is the one containing it.
    auto it = s.tier[tier].lower_bound(w * (from_al / w));
    for (; it != s.tier[tier].end() && it->first < to_al; ++it) {
      if (!cell_queryable(tier, it->first)) continue;
      scratch_.merge(it->second);
      if (!any) {
        window_start = it->first;
        window_end = it->first + w;
        any = true;
      } else {
        window_start = std::min(window_start, it->first);
        window_end = std::max(window_end, it->first + w);
      }
    }
  }
  if (!any) return std::nullopt;
  return agent::WindowStats::of(scratch_, window_start, window_end);
}

std::optional<agent::WindowStats> RollupStore::query_pair(PodId src, PodId dst,
                                                          SimTime from, SimTime to) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pairs_.find(pair_key(src, dst));
  if (it == pairs_.end()) return std::nullopt;
  return merge_range(it->second, from, to);
}

RollupView RollupStore::view(SimTime window, std::optional<ServiceId> service) const {
  RollupView v;
  std::lock_guard<std::mutex> lock(mu_);
  v.version = version_;
  v.to = last_now_;
  v.from = std::max<SimTime>(0, v.to - window);
  if (service) {
    auto it = services_.find(service->value);
    if (it != services_.end()) v.service = merge_range(it->second, v.from, v.to);
    return v;
  }
  for (const auto& [key, series] : pairs_) {
    auto stats = merge_range(series, v.from, v.to);
    if (!stats) continue;
    PairRollup row;
    row.src_pod = PodId{static_cast<std::uint32_t>(key >> 32)};
    row.dst_pod = PodId{static_cast<std::uint32_t>(key & 0xffffffffu)};
    row.stats = *stats;
    v.pairs.push_back(row);
  }
  return v;
}

std::uint64_t RollupStore::digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = kFnvOffset;
  auto mix_series = [&](std::uint64_t scope_key, const Series& s) {
    fnv_mix(h, scope_key);
    for (int tier = 0; tier < 3; ++tier) {
      for (const auto& [start, c] : s.tier[tier]) {
        fnv_mix(h, static_cast<std::uint64_t>(tier));
        fnv_mix(h, static_cast<std::uint64_t>(start));
        fnv_mix(h, c.probes);
        fnv_mix(h, c.successes);
        fnv_mix(h, c.failures);
        fnv_mix(h, c.probes_3s);
        fnv_mix(h, c.probes_9s);
        fnv_mix(h, c.latency.count());
        fnv_mix(h, static_cast<std::uint64_t>(c.latency.quantile(0.5)));
        fnv_mix(h, static_cast<std::uint64_t>(c.latency.quantile(0.99)));
      }
    }
  };
  for (const auto& [key, series] : pairs_) mix_series(key, series);
  for (const auto& [key, series] : services_) mix_series(0x8000000000000000ULL | key, series);
  fnv_mix(h, ingested_);
  fnv_mix(h, placed_);
  fnv_mix(h, skipped_);
  fnv_mix(h, rejected_future_);
  fnv_mix(h, late_dropped_);
  fnv_mix(h, expired_);
  fnv_mix(h, static_cast<std::uint64_t>(sealed_until_[0]));
  fnv_mix(h, static_cast<std::uint64_t>(sealed_until_[1]));
  fnv_mix(h, static_cast<std::uint64_t>(sealed_until_[2]));
  return h;
}

bool RollupStore::check_conservation() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ingested_ != placed_ + skipped_ + rejected_future_ + late_dropped_) return false;
  // Coverage over the pair keyspace: the disjoint queryable set plus
  // evictions accounts for every placed record exactly once. (Service
  // series overlap — a server can belong to several services — so they are
  // excluded from the ledger.)
  std::uint64_t covered = 0;
  for (const auto& [key, s] : pairs_) {
    (void)key;
    for (int tier = 0; tier < 3; ++tier) {
      for (const auto& [start, c] : s.tier[tier]) {
        if (cell_queryable(tier, start)) covered += c.probes;
      }
    }
  }
  return covered + expired_ == placed_;
}

std::size_t RollupStore::cell_count_locked() const {
  std::size_t n = 0;
  for (const auto& [key, s] : pairs_) {
    (void)key;
    n += s.tier[0].size() + s.tier[1].size() + s.tier[2].size();
  }
  for (const auto& [key, s] : services_) {
    (void)key;
    n += s.tier[0].size() + s.tier[1].size() + s.tier[2].size();
  }
  return n;
}

std::size_t RollupStore::cell_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cell_count_locked();
}

std::size_t RollupStore::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t per_cell = sizeof(Cell) + scratch_.latency.memory_bytes();
  return cell_count_locked() * per_cell +
         (pairs_.size() + services_.size()) * sizeof(Series);
}

double RollupStore::relative_error_bound() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scratch_.latency.relative_error_bound();
}

}  // namespace pingmesh::serve
