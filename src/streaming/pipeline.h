// StreamingPipeline — the near-real-time analytics path, end to end.
//
// Taps record batches at upload time (dsa::RecordTap on the
// CosmosUploader: the moment an agent's upload lands, ~20 minutes before
// the batch SCOPE job would consume the same records), folds them into the
// sliding-window aggregator, and runs the online detector on a seconds
// cadence. The third data path of DESIGN.md §8, coexisting with the PA
// 5-min and SCOPE 10-min+ paths for availability (paper §3.5).
#pragma once

#include <memory>

#include "dsa/database.h"
#include "dsa/uploader.h"
#include "obs/trace.h"
#include "streaming/detector.h"
#include "streaming/window.h"
#include "topology/topology.h"

namespace pingmesh::streaming {

struct StreamingConfig {
  bool enabled = false;  ///< simulation wiring flag (off: zero overhead)
  WindowedAggregator::Config windows;
  DetectorConfig detector;
};

class StreamingPipeline final : public dsa::RecordTap {
 public:
  StreamingPipeline(const topo::Topology& topo, dsa::Database& db, StreamingConfig cfg)
      : cfg_(cfg), windows_(topo, cfg.windows), detector_(topo, db) {}

  /// dsa::RecordTap: a record batch just landed in Cosmos.
  void on_records(const agent::RecordColumns& batch, SimTime now) override {
    for (std::size_t i = 0, n = batch.size(); i < n; ++i) {
      windows_.ingest(batch, i);
      if (tracer_ != nullptr && tracer_->enabled()) {
        std::uint64_t key = obs::trace_key(batch.timestamps()[i], batch.src_ips()[i],
                                           batch.dst_ips()[i], batch.src_ports()[i]);
        if (tracer_->sampled(key)) {
          tracer_->span(key, "streaming.ingest", now, now,
                        "pairs=" + std::to_string(windows_.pair_count()));
        }
      }
    }
  }

  /// Attach the data-path tracer (nullptr to detach). Sampled records get a
  /// streaming.ingest span as they land in the sliding windows.
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Driver cadence (DetectorConfig::eval_period): run the online rules.
  /// Returns alerts newly opened.
  int tick(SimTime now) { return detector_.evaluate(windows_, now); }

  [[nodiscard]] const StreamingConfig& config() const { return cfg_; }
  [[nodiscard]] WindowedAggregator& windows() { return windows_; }
  [[nodiscard]] const WindowedAggregator& windows() const { return windows_; }
  [[nodiscard]] OnlineDetector& detector() { return detector_; }
  [[nodiscard]] const OnlineDetector& detector() const { return detector_; }

 private:
  StreamingConfig cfg_;
  WindowedAggregator windows_;
  OnlineDetector detector_;
  const obs::Tracer* tracer_ = nullptr;
};

}  // namespace pingmesh::streaming
