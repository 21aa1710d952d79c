// Tests for the core module: the fleet driver, canonical scenarios, Cosmos
// persistence round-trips, the report renderer, and the netsim extensions
// (QoS classes, multi-RTT session model).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/sketch.h"
#include "common/stats.h"
#include "core/fleet.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/cosmos_io.h"
#include "dsa/report.h"

namespace pingmesh::core {
namespace {

controller::GeneratorConfig basic_gen() {
  controller::GeneratorConfig cfg;
  cfg.enable_inter_dc = false;
  cfg.payload_every_kth = 0;
  cfg.intra_pod_interval = seconds(30);
  cfg.intra_dc_interval = minutes(1);
  return cfg;
}

// ---------------------------------------------------------------------------
// FleetProbeDriver
// ---------------------------------------------------------------------------

TEST(FleetDriver, DenseFiresEveryTargetEveryRound) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 1);
  controller::PinglistGenerator gen(topo, basic_gen());
  FleetProbeDriver driver(topo, net, gen);
  std::uint64_t visits = 0;
  driver.run_dense(0, 3, seconds(10), [&](const FleetProbe&) { ++visits; });
  std::uint64_t per_round = 0;
  for (const auto& pl : gen.generate_all()) per_round += pl.targets.size();
  EXPECT_EQ(visits, per_round * 3);
  EXPECT_EQ(driver.probes_fired(), visits);
}

TEST(FleetDriver, IntervalModeRespectsTargetIntervals) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 2);
  controller::GeneratorConfig cfg = basic_gen();
  cfg.intra_pod_interval = seconds(30);
  cfg.intra_dc_interval = minutes(5);
  controller::PinglistGenerator gen(topo, cfg);
  FleetProbeDriver driver(topo, net, gen);
  std::uint64_t pod_probes = 0, dc_probes = 0;
  // 30 rounds of 10s = 300s: intra-pod targets fire 10x, intra-DC 1x.
  driver.run(0, 30, seconds(10), [&](const FleetProbe& p) {
    if (p.target->interval == seconds(30)) {
      ++pod_probes;
    } else {
      ++dc_probes;
    }
  });
  std::uint64_t pod_targets = 0, dc_targets = 0;
  for (const auto& pl : gen.generate_all()) {
    for (const auto& t : pl.targets) {
      (t.interval == seconds(30) ? pod_targets : dc_targets) += 1;
    }
  }
  EXPECT_EQ(pod_probes, pod_targets * 10);
  EXPECT_EQ(dc_probes, dc_targets * 1);
}

TEST(FleetDriver, SkipsDownedServers) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 3);
  net.faults().add_podset_down(topo.podsets()[0].id);
  controller::PinglistGenerator gen(topo, basic_gen());
  FleetProbeDriver driver(topo, net, gen);
  driver.run_dense(0, 1, seconds(10), [&](const FleetProbe& p) {
    EXPECT_NE(topo.server(p.src).podset, topo.podsets()[0].id);
  });
}

TEST(FleetDriver, FreshSourcePorts) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 4);
  controller::PinglistGenerator gen(topo, basic_gen());
  FleetProbeDriver driver(topo, net, gen);
  std::uint16_t last = 0;
  int checked = 0;
  driver.run_dense(0, 1, seconds(10), [&](const FleetProbe& p) {
    if (checked++ > 100) return;
    EXPECT_GE(p.src_port, 32768);
    EXPECT_NE(p.src_port, last);
    last = p.src_port;
  });
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

TEST(Scenarios, TableOneProfilesMatchLossPlan) {
  // intra-pod probe loss = 2*(2*nic + tor) must reproduce the paper column.
  static const double kPaperIntra[5] = {1.31e-5, 2.10e-5, 9.58e-6, 1.52e-5, 9.82e-6};
  for (std::size_t d = 0; d < 5; ++d) {
    netsim::DcProfile p = table1_profile(d);
    double intra = 2 * (2 * p.nic_drop + p.tor_drop);
    EXPECT_NEAR(intra, kPaperIntra[d], kPaperIntra[d] * 0.05) << "DC" << d + 1;
  }
  EXPECT_THROW(table1_profile(5), std::out_of_range);
}

TEST(Scenarios, TwoDcSpecsShape) {
  auto specs = two_dc_specs(false);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "DC1");
  auto topo = topo::Topology::build(specs);
  EXPECT_EQ(topo.dcs().size(), 2u);
}

// ---------------------------------------------------------------------------
// Cosmos persistence
// ---------------------------------------------------------------------------

TEST(CosmosIo, SaveLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/pm_cosmos_io_test.pm";
  dsa::CosmosStore store(64);
  store.stream("a/latency").append("row1,x\nrow2,y\n", 2, seconds(1), seconds(2), 0);
  store.stream("a/latency").append(std::string(100, 'z'), 1, seconds(3), seconds(3), 0);
  store.stream("b").append("solo", 1, seconds(9), seconds(9), 0);

  ASSERT_TRUE(dsa::save_store(store, path));
  auto loaded = dsa::load_store(path, 64);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->streams, 2u);
  EXPECT_EQ(loaded->extents, 3u);  // second append rolled to a new extent
  EXPECT_EQ(loaded->corrupt_dropped, 0u);
  EXPECT_EQ(loaded->store.total_records(), store.total_records());
  EXPECT_EQ(loaded->store.total_bytes(), store.total_bytes());

  const dsa::CosmosStream* a = loaded->store.find("a/latency");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->extents()[0].data, "row1,x\nrow2,y\n");
  EXPECT_EQ(a->extents()[0].first_ts, seconds(1));
  std::filesystem::remove(path);
}

TEST(CosmosIo, CorruptExtentDroppedOnLoad) {
  std::string path = ::testing::TempDir() + "/pm_cosmos_io_corrupt.pm";
  dsa::CosmosStore store(8);
  store.stream("s").append("extent-1", 1, 0, 0, 0);
  store.stream("s").append("extent-2", 1, 0, 0, 0);
  store.stream("s").corrupt_extent_for_test(0);
  ASSERT_TRUE(dsa::save_store(store, path));
  auto loaded = dsa::load_store(path, 8);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->extents, 1u);
  EXPECT_EQ(loaded->corrupt_dropped, 1u);
  std::filesystem::remove(path);
}

TEST(CosmosIo, MissingOrGarbageFile) {
  EXPECT_FALSE(dsa::load_store("/nonexistent/nowhere.pm").has_value());
  std::string path = ::testing::TempDir() + "/pm_cosmos_io_garbage.pm";
  std::ofstream(path) << "not a store";
  EXPECT_FALSE(dsa::load_store(path).has_value());
  std::filesystem::remove(path);
}

TEST(CosmosIo, AppendContinuesAfterRestore) {
  std::string path = ::testing::TempDir() + "/pm_cosmos_io_cont.pm";
  dsa::CosmosStore store(1 << 20);
  store.stream("s").append("first", 1, 0, 0, 0);
  ASSERT_TRUE(dsa::save_store(store, path));
  auto loaded = dsa::load_store(path, 1 << 20);
  ASSERT_TRUE(loaded.has_value());
  loaded->store.stream("s").append("second", 1, seconds(1), seconds(1), 0);
  EXPECT_EQ(loaded->store.stream("s").extents()[0].data, "firstsecond");
  EXPECT_TRUE(loaded->store.stream("s").extents()[0].verify());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Report, RendersAllSections) {
  SimulationConfig cfg = small_test_config(71);
  PingmeshSimulation sim(cfg);
  sim.services().add_service("Search", sim.topology().pods()[0].servers);
  sim.run_for(hours(2));
  std::string report = dsa::render_network_report(sim.db(), sim.topology(),
                                                  &sim.services());
  EXPECT_NE(report.find("PINGMESH NETWORK REPORT"), std::string::npos);
  EXPECT_NE(report.find("DC1"), std::string::npos);
  EXPECT_NE(report.find("Search"), std::string::npos);
  EXPECT_NE(report.find("worst pods"), std::string::npos);
  EXPECT_NE(report.find("alerts in window: 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// QoS classes in the simulator
// ---------------------------------------------------------------------------

TEST(Qos, LowPriorityQueuesLongerUnderCongestion) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 5);
  for (SwitchId spine : topo.dcs()[0].spines) {
    net.faults().add_congestion(spine, 6.0, 0.0);
  }
  ServerId a = topo.pods()[0].servers[0];
  ServerId b = topo.pods()[4].servers[0];  // cross-podset
  LatencySketch high, low;
  for (int i = 0; i < 4000; ++i) {
    netsim::ProbeSpec spec;
    auto r1 = net.tcp_probe(a, b, static_cast<std::uint16_t>(32768 + i), 33100, spec, 0);
    spec.low_priority = true;
    auto r2 = net.tcp_probe(a, b, static_cast<std::uint16_t>(32768 + i), 33101, spec, 0);
    if (r1.success && r1.syn_transmissions == 1) high.record(r1.rtt);
    if (r2.success && r2.syn_transmissions == 1) low.record(r2.rtt);
  }
  EXPECT_GT(low.p99(), high.p99() * 2);
  EXPECT_GT(low.p50(), high.p50());
}

// ---------------------------------------------------------------------------
// Multi-RTT session model (§6.4)
// ---------------------------------------------------------------------------

TEST(Session, SmallerIcwNeedsMoreRoundTrips) {
  topo::Topology topo = topo::Topology::build(two_dc_specs(false));
  netsim::SimNetwork net(topo, 6);
  ServerId a = topo.dcs()[0].servers[0];
  ServerId b = topo.dcs()[1].servers[0];
  netsim::SessionSpec spec;
  spec.total_bytes = 256 * 1024;
  spec.icw_segments = 16;
  auto fast = net.tcp_session(a, b, 40000, 443, spec, 0);
  spec.icw_segments = 4;
  auto slow = net.tcp_session(a, b, 40001, 443, spec, 0);
  ASSERT_TRUE(fast.success);
  ASSERT_TRUE(slow.success);
  EXPECT_EQ(fast.round_trips, 4);  // 16+32+64+128 = 240 >= 180 segments
  EXPECT_EQ(slow.round_trips, 6);  // 4+8+...+128 = 252 >= 180
  EXPECT_GT(slow.finish_time, fast.finish_time);
}

TEST(Session, SinglePacketProbeBlindToIcw) {
  // The negative result as a unit test: probe RTT distribution is the same
  // whatever the ICW, because Pingmesh never opens a window.
  topo::Topology topo = topo::Topology::build(two_dc_specs(false));
  netsim::SimNetwork n1(topo, 7);
  netsim::SimNetwork n2(topo, 7);
  ServerId a = topo.dcs()[0].servers[0];
  ServerId b = topo.dcs()[1].servers[0];
  for (int i = 0; i < 50; ++i) {
    auto p1 = n1.tcp_probe(a, b, static_cast<std::uint16_t>(40000 + i), 33100, {}, 0);
    auto p2 = n2.tcp_probe(a, b, static_cast<std::uint16_t>(40000 + i), 33100, {}, 0);
    EXPECT_EQ(p1.rtt, p2.rtt);  // ICW does not appear in the probe path at all
  }
}

TEST(Session, TinyTransferTakesOneRoundTrip) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 9);
  ServerId a = topo.pods()[0].servers[0];
  ServerId b = topo.pods()[1].servers[0];
  netsim::SessionSpec spec;
  spec.total_bytes = 500;  // one segment
  spec.icw_segments = 4;
  auto session = net.tcp_session(a, b, 40000, 443, spec, 0);
  ASSERT_TRUE(session.success);
  EXPECT_EQ(session.round_trips, 1);
  EXPECT_GT(session.finish_time, 0);
}

TEST(Session, FailsWhenDestinationDown) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "r")});
  netsim::SimNetwork net(topo, 8);
  net.faults().add_podset_down(topo.podsets()[1].id);
  ServerId a = topo.pods()[0].servers[0];
  ServerId b = topo.pod(topo.podsets()[1].pods[0]).servers[0];
  auto session = net.tcp_session(a, b, 40000, 443, {}, 0);
  EXPECT_FALSE(session.success);
}

// ---------------------------------------------------------------------------
// VIP mapping in the simulation facade
// ---------------------------------------------------------------------------

TEST(Vip, DipsShareLoadByPortHash) {
  SimulationConfig cfg = small_test_config(72);
  cfg.agent.pinglist_refresh = minutes(2);
  PingmeshSimulation sim(cfg);
  IpAddr vip(172, 16, 9, 9);
  const auto& pod = sim.topology().pods()[2];
  sim.register_vip(vip, {pod.servers[0], pod.servers[1], pod.servers[2]});
  sim.run_for(minutes(30));
  std::uint64_t vip_probes = 0;
  const agent::RecordColumns records = sim.records_between(0, sim.now());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records.dst_ip(i) == vip && records.success(i)) ++vip_probes;
  }
  EXPECT_GT(vip_probes, 10u);
}

}  // namespace
}  // namespace pingmesh::core
