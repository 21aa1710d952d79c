#include "streaming/window.h"

#include <algorithm>
#include <stdexcept>

#include "agent/counters.h"
#include "common/check.h"

namespace pingmesh::streaming {

WindowedAggregator::WindowedAggregator(const topo::Topology& topo, Config cfg)
    : topo_(&topo), cfg_(cfg) {
  if (cfg_.sub_window <= 0) throw std::invalid_argument("sub_window must be positive");
  if (cfg_.sub_window_count < 1 || cfg_.sub_window_count > 4096) {
    throw std::invalid_argument("sub_window_count out of range");
  }
}

void WindowedAggregator::ingest(const agent::RecordColumns& batch, std::size_t i) {
  auto src = topo_->find_server_by_ip(batch.src_ip(i));
  auto dst = topo_->find_server_by_ip(batch.dst_ip(i));
  if (!src || !dst) {
    ++skipped_;
    return;
  }
  PodId src_pod = topo_->server(*src).pod;
  PodId dst_pod = topo_->server(*dst).pod;

  auto& slot = pairs_[key(src_pod, dst_pod)];
  if (slot == nullptr) {  // warm-up: the only allocation on the ingest path
    slot = std::make_unique<PairState>();
    slot->ring.resize(static_cast<std::size_t>(cfg_.sub_window_count));
  }
  PairState& pair = *slot;

  SimTime ts = std::max<SimTime>(batch.timestamp(i), 0);
  SimTime window_start = ts - ts % cfg_.sub_window;
  auto idx = static_cast<std::size_t>((ts / cfg_.sub_window) %
                                      cfg_.sub_window_count);
  PINGMESH_DCHECK(idx < pair.ring.size());
  PINGMESH_DCHECK(window_start >= 0 && window_start % cfg_.sub_window == 0);
  SubWindow& sub = pair.ring[idx];
  if (sub.start != window_start) {
    if (sub.start != kUnset && sub.start > window_start) {
      // The slot already advanced past this record's window: older than the
      // retained horizon, drop rather than pollute a newer sub-window.
      ++late_dropped_;
      return;
    }
    // Recycling a previously-filled slot is the moment its old sub-window
    // leaves the retained horizon.
    if (sub.start != kUnset) ++expiries_;
    sub.start = window_start;
    sub.stats.clear();
  }

  ++ingested_;
  ++pair.lifetime_probes;
  pair.last_probe_ts = std::max(pair.last_probe_ts, ts);
  if (batch.success(i)) pair.last_success_ts = std::max(pair.last_success_ts, ts);
  // The batch jobs' classification: retransmit artifacts count as drop
  // signatures, never as latency samples.
  sub.stats.add(batch.success(i), batch.rtt(i));
}

const WindowedAggregator::PairState* WindowedAggregator::find(PodId src, PodId dst) const {
  auto it = pairs_.find(key(src, dst));
  return it == pairs_.end() ? nullptr : it->second.get();
}

std::optional<WindowStats> WindowedAggregator::merge_range(const PairState& pair,
                                                           SimTime from, SimTime to) const {
  scratch_.clear();
  for (const SubWindow& sub : pair.ring) {
    if (sub.start == kUnset || sub.start < from || sub.start >= to) continue;
    // Every populated sub-window sits on a sub_window boundary; ingest
    // rounds timestamps down before writing.
    PINGMESH_DCHECK(sub.start % cfg_.sub_window == 0);
    scratch_.merge(sub.stats);
  }
  return WindowStats::of(scratch_, from, to);
}

std::optional<WindowStats> WindowedAggregator::query(PodId src, PodId dst,
                                                     SimTime now) const {
  SimTime newest_start = now - now % cfg_.sub_window;
  SimTime from = newest_start - cfg_.sub_window * (cfg_.sub_window_count - 1);
  return query_range(src, dst, from, newest_start + cfg_.sub_window);
}

std::optional<WindowStats> WindowedAggregator::query_range(PodId src, PodId dst,
                                                           SimTime from, SimTime to) const {
  const PairState* pair = find(src, dst);
  if (pair == nullptr) return std::nullopt;
  // Round outward to sub-window boundaries.
  from -= ((from % cfg_.sub_window) + cfg_.sub_window) % cfg_.sub_window;
  if (to % cfg_.sub_window != 0) to += cfg_.sub_window - to % cfg_.sub_window;
  return merge_range(*pair, from, to);
}

std::vector<WindowedAggregator::PairWindow> WindowedAggregator::snapshot(SimTime now) const {
  std::vector<PairWindow> out;
  out.reserve(pairs_.size());
  for (const auto& [k, pair] : pairs_) {
    PodId src{static_cast<std::uint32_t>(k >> 32)};
    PodId dst{static_cast<std::uint32_t>(k & 0xffffffffu)};
    auto stats = query(src, dst, now);
    if (!stats || stats->probes == 0) continue;
    out.push_back(PairWindow{src, dst, *stats});
  }
  std::sort(out.begin(), out.end(), [](const PairWindow& a, const PairWindow& b) {
    return a.src_pod == b.src_pod ? a.dst_pod < b.dst_pod : a.src_pod < b.src_pod;
  });
  return out;
}

std::optional<SimTime> WindowedAggregator::last_success(PodId src, PodId dst) const {
  const PairState* pair = find(src, dst);
  if (pair == nullptr || pair->last_success_ts == kUnset) return std::nullopt;
  return pair->last_success_ts;
}

std::optional<SimTime> WindowedAggregator::last_probe(PodId src, PodId dst) const {
  const PairState* pair = find(src, dst);
  if (pair == nullptr || pair->last_probe_ts == kUnset) return std::nullopt;
  return pair->last_probe_ts;
}

std::size_t WindowedAggregator::memory_bytes() const {
  std::size_t per_pair = sizeof(PairState) +
                         static_cast<std::size_t>(cfg_.sub_window_count) *
                             (sizeof(SubWindow) + scratch_.latency.memory_bytes());
  return sizeof(*this) + pairs_.size() * per_pair;
}

}  // namespace pingmesh::streaming
