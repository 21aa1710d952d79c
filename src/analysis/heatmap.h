// Latency-pattern visualization (paper §6.3, Figure 8).
//
// "a small green, yellow, or red block or pixel shows the network latency
// at the 99th percentile between a source-destination pod-pair. Green means
// the latency is less than 4ms, yellow means the latency is between 4-5ms,
// and red is for latency larger than 5ms. A white block means there is no
// latency data available."
//
// The classifier recognizes the four canonical patterns of Figure 8:
//   (a) normal         — (almost) all green;
//   (b) podset-down    — a white cross the width of one podset;
//   (c) podset-failure — a red cross the width of one podset;
//   (d) spine-failure  — red everywhere except green squares on the
//                        diagonal (intra-podset traffic unaffected).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agent/counters.h"
#include "common/types.h"
#include "dsa/database.h"
#include "topology/topology.h"

namespace pingmesh::analysis {

enum class CellColor : std::uint8_t { kGreen, kYellow, kRed, kWhite };

char cell_color_char(CellColor c);

struct HeatmapThresholds {
  SimTime green_below = millis(4);
  SimTime yellow_below = millis(5);
  /// A cell is also red when its drop rate alone breaks SLA.
  double red_drop_rate = agent::kAlertDropRate;
};

/// Pod-pair heatmap for one DC. Pods are ordered by podset then pod, so
/// podset structure is visible as diagonal blocks.
class Heatmap {
 public:
  Heatmap(const topo::Topology& topo, DcId dc, HeatmapThresholds thresholds = {});

  /// Load one window of pod-pair rows (rows for other DCs are ignored).
  void load(const std::vector<dsa::PodPairStatRow>& rows);

  [[nodiscard]] std::size_t size() const { return pods_.size(); }  ///< matrix dimension
  [[nodiscard]] CellColor cell(std::size_t src_idx, std::size_t dst_idx) const;
  [[nodiscard]] PodId pod_at(std::size_t idx) const { return pods_[idx]; }
  [[nodiscard]] PodsetId podset_at(std::size_t idx) const { return podsets_[idx]; }

  /// Text rendering: G/Y/R/. per cell, one row per line.
  [[nodiscard]] std::string ascii() const;
  /// Binary PPM (P6) rendering with `scale` pixels per cell.
  [[nodiscard]] std::string to_ppm(int scale = 4) const;

  /// Fraction of cells with each color (diagnostics + classification).
  [[nodiscard]] double fraction(CellColor c) const;

 private:
  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const {
    return i * pods_.size() + j;
  }

  const topo::Topology* topo_;
  DcId dc_;
  HeatmapThresholds thresholds_;
  std::vector<PodId> pods_;
  std::vector<PodsetId> podsets_;
  std::vector<std::int32_t> pod_index_;  // PodId.value -> matrix index or -1
  std::vector<CellColor> cells_;
};

enum class LatencyPattern : std::uint8_t {
  kNormal,
  kPodsetDown,
  kPodsetFailure,
  kSpineFailure,
  kUnknown,
};

const char* latency_pattern_name(LatencyPattern p);

struct PatternResult {
  LatencyPattern pattern = LatencyPattern::kUnknown;
  PodsetId podset;  ///< the cross's podset for (b)/(c)
  double green_fraction = 0.0;
  double white_fraction = 0.0;
  double red_fraction = 0.0;
};

/// Classify a loaded heatmap into one of the Figure-8 patterns.
PatternResult classify_pattern(const Heatmap& map);

}  // namespace pingmesh::analysis
