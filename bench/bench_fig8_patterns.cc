// Figure 8 reproduction: network latency patterns through visualization.
//
//   (a) normal          — all green;
//   (b) podset down     — white cross (power loss of a whole podset);
//   (c) podset failure  — red cross (network issue inside the podset);
//   (d) spine failure   — red with green squares on the diagonal
//                         (intra-podset fine, cross-podset out of SLA).
//
// Each scenario: inject the fault, probe the fleet, aggregate pod-pair
// stats through the 10-minute SCOPE job, render the heatmap, and run the
// pattern classifier. PPM images are written next to the binary.
#include <cstdio>
#include <fstream>

#include "analysis/heatmap.h"
#include "bench_util.h"
#include "controller/generator.h"
#include "core/scenarios.h"
#include "dsa/jobs.h"
#include "dsa/scan_cache.h"
#include "netsim/simnet.h"

namespace {

using namespace pingmesh;

struct Scenario {
  const char* name;
  const char* paper_pattern;
  analysis::LatencyPattern expected;
  std::function<void(netsim::SimNetwork&, const topo::Topology&)> inject;
};

analysis::PatternResult run_scenario(const Scenario& scenario, int index) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, 808 + static_cast<std::uint64_t>(index));
  scenario.inject(net, topo);

  controller::GeneratorConfig gcfg;
  gcfg.enable_inter_dc = false;
  gcfg.payload_every_kth = 0;
  controller::PinglistGenerator gen(topo, gcfg);
  core::FleetProbeDriver driver(topo, net, gen);

  // One aggregation window of probing, through the DSA job into pod-pair rows.
  agent::RecordColumns records;
  driver.run_dense(0, 60, seconds(10), [&](const core::FleetProbe& p) {
    records.push_back(bench::to_record(topo, p));
  });
  dsa::CosmosStore store;
  dsa::CosmosStream& stream = store.stream(dsa::kLatencyStream);
  stream.append(records.encode_csv(), records.size(), 0, minutes(10), minutes(10));
  dsa::Database db;
  dsa::DecodedExtentCache cache;
  dsa::JobContext ctx{&topo, nullptr, &db, &cache};
  dsa::run_pod_pair_job(stream, ctx, 0, minutes(10));

  analysis::Heatmap map(topo, DcId{0});
  map.load(db.latest_pod_pair_window());
  std::printf("\n  --- %s (paper: %s) ---\n", scenario.name, scenario.paper_pattern);
  // Indent the ascii art.
  std::string art = map.ascii();
  std::string line;
  for (char c : art) {
    if (c == '\n') {
      std::printf("    %s\n", line.c_str());
      line.clear();
    } else {
      line += c;
    }
  }
  std::string ppm_path = std::string("fig8_") + std::to_string(index) + ".ppm";
  std::ofstream(ppm_path, std::ios::binary) << map.to_ppm(8);
  analysis::PatternResult result = analysis::classify_pattern(map);
  std::printf("    classified: %s (green %.0f%%, red %.0f%%, white %.0f%%) -> %s\n",
              analysis::latency_pattern_name(result.pattern),
              result.green_fraction * 100, result.red_fraction * 100,
              result.white_fraction * 100, ppm_path.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  pingmesh::bench::parse_args(argc, argv);
  bench::heading("Figure 8: network latency patterns through visualization");

  std::vector<Scenario> scenarios = {
      {"(a) normal", "all green", analysis::LatencyPattern::kNormal,
       [](netsim::SimNetwork&, const topo::Topology&) {}},
      {"(b) podset down", "white cross", analysis::LatencyPattern::kPodsetDown,
       [](netsim::SimNetwork& net, const topo::Topology& topo) {
         net.faults().add_podset_down(topo.podsets()[0].id);
       }},
      {"(c) podset failure", "red cross", analysis::LatencyPattern::kPodsetFailure,
       [](netsim::SimNetwork& net, const topo::Topology& topo) {
         // A leaf-layer problem inside podset 1: heavy queueing + drops on
         // both of its leaves hits all traffic from and to the podset.
         for (SwitchId leaf : topo.podsets()[1].leaves) {
           net.faults().add_congestion(leaf, /*queue_scale=*/120.0, /*drop_prob=*/0.003);
         }
         // Its ToR uplinks queue too (the podset is saturated internally).
         for (PodId pod : topo.podsets()[1].pods) {
           net.faults().add_congestion(topo.pod(pod).tor, 120.0, 0.003);
         }
       }},
      {"(d) spine failure", "red, green diagonal squares",
       analysis::LatencyPattern::kSpineFailure,
       [](netsim::SimNetwork& net, const topo::Topology& topo) {
         for (SwitchId spine : topo.dcs()[0].spines) {
           net.faults().add_congestion(spine, /*queue_scale=*/150.0, /*drop_prob=*/0.002);
         }
       }},
  };

  bool all_match = true;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    analysis::PatternResult result = run_scenario(scenarios[i], static_cast<int>(i));
    if (result.pattern != scenarios[i].expected) {
      all_match = false;
      std::printf("    !! expected %s\n",
                  analysis::latency_pattern_name(scenarios[i].expected));
    }
  }

  bench::heading("shape checks");
  bench::note(std::string("all four patterns classified as in the paper: ") +
              (all_match ? "yes" : "NO"));
  return all_match ? 0 : 1;
}
