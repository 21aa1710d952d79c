// Tests for the network simulator: ECMP routing, fault injection, the TCP
// connect model, and the statistical behaviour of the latency/drop models.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/stats.h"
#include "netsim/ecmp.h"
#include "netsim/fault.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

namespace pingmesh::netsim {
namespace {

topo::Topology two_dcs() {
  return topo::Topology::build(
      {topo::small_dc_spec("DC1", "US West"), topo::small_dc_spec("DC2", "Asia")});
}

FiveTuple tuple_between(const topo::Topology& t, ServerId a, ServerId b,
                        std::uint16_t sport = 40000, std::uint16_t dport = 33100) {
  return FiveTuple{t.server(a).ip, t.server(b).ip, sport, dport, 6};
}

// ---------------------------------------------------------------------------
// EcmpRouter
// ---------------------------------------------------------------------------

TEST(EcmpRouter, LoopbackIsEmpty) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  ServerId a = t.servers()[0].id;
  Path p = router.resolve(tuple_between(t, a, a));
  EXPECT_TRUE(p.hops.empty());
}

TEST(EcmpRouter, IntraPodPathIsOneTor) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  const topo::Pod& pod = t.pods()[0];
  Path p = router.resolve(tuple_between(t, pod.servers[0], pod.servers[1]));
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_EQ(p.hops[0].sw, pod.tor);
  EXPECT_FALSE(p.cross_pod);
}

TEST(EcmpRouter, IntraPodsetPathShape) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  const topo::Pod& pod_a = t.pods()[0];
  const topo::Pod& pod_b = t.pods()[1];
  ASSERT_EQ(pod_a.podset, pod_b.podset);
  Path p = router.resolve(tuple_between(t, pod_a.servers[0], pod_b.servers[0]));
  ASSERT_EQ(p.hops.size(), 3u);
  EXPECT_EQ(p.hops[0].sw, pod_a.tor);
  EXPECT_EQ(t.sw(p.hops[1].sw).kind, topo::SwitchKind::kLeaf);
  EXPECT_EQ(p.hops[2].sw, pod_b.tor);
  EXPECT_TRUE(p.cross_pod);
  EXPECT_FALSE(p.cross_podset);
}

TEST(EcmpRouter, IntraDcPathShape) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  // pods 0..3 are podset 0; pods 4..7 podset 1 (same DC)
  const topo::Pod& pod_a = t.pods()[0];
  const topo::Pod& pod_b = t.pods()[4];
  ASSERT_NE(pod_a.podset, pod_b.podset);
  ASSERT_EQ(pod_a.dc, pod_b.dc);
  Path p = router.resolve(tuple_between(t, pod_a.servers[0], pod_b.servers[0]));
  ASSERT_EQ(p.hops.size(), 5u);
  EXPECT_EQ(t.sw(p.hops[2].sw).kind, topo::SwitchKind::kSpine);
  EXPECT_TRUE(p.cross_podset);
  EXPECT_FALSE(p.cross_dc);
}

TEST(EcmpRouter, CrossDcPathShape) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  ServerId a = t.dcs()[0].servers[0];
  ServerId b = t.dcs()[1].servers[0];
  Path p = router.resolve(tuple_between(t, a, b));
  ASSERT_EQ(p.hops.size(), 8u);
  EXPECT_TRUE(p.cross_dc);
  EXPECT_EQ(t.sw(p.hops[3].sw).kind, topo::SwitchKind::kBorder);
  EXPECT_EQ(t.sw(p.hops[4].sw).kind, topo::SwitchKind::kBorder);
  EXPECT_NE(t.sw(p.hops[3].sw).dc, t.sw(p.hops[4].sw).dc);
}

TEST(EcmpRouterDeathTest, HopListHoldsTheLongestPathAndNoMore) {
  // The cross-DC path fills the inline hop list; a ninth hop is a bug.
  HopList hops;
  for (std::size_t i = 0; i < HopList::kCapacity; ++i) {
    hops.push_back(Hop{SwitchId{static_cast<std::uint32_t>(i)}});
  }
  EXPECT_EQ(hops.size(), HopList::kCapacity);
  EXPECT_EQ(hops.back().sw.value, HopList::kCapacity - 1);
  EXPECT_DEATH(hops.push_back(Hop{SwitchId{99}}), "PINGMESH_CHECK failed");
}

TEST(EcmpRouter, DeterministicPerTuple) {
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  FiveTuple tup = tuple_between(t, t.pods()[0].servers[0], t.pods()[4].servers[0]);
  Path p1 = router.resolve(tup);
  Path p2 = router.resolve(tup);
  ASSERT_EQ(p1.hops.size(), p2.hops.size());
  for (std::size_t i = 0; i < p1.hops.size(); ++i) EXPECT_EQ(p1.hops[i].sw, p2.hops[i].sw);
}

TEST(EcmpRouter, SourcePortSpreadsOverSpines) {
  // "a new TCP source port ... to explore the multi-path nature of the
  // network as much as possible" — varying ports must hit several spines.
  topo::Topology t = two_dcs();
  EcmpRouter router(t);
  ServerId a = t.pods()[0].servers[0];
  ServerId b = t.pods()[4].servers[0];
  std::set<std::uint32_t> spines;
  for (std::uint16_t port = 32768; port < 32768 + 256; ++port) {
    Path p = router.resolve(tuple_between(t, a, b, port));
    spines.insert(p.hops[2].sw.value);
  }
  EXPECT_GE(spines.size(), 3u);  // 4 spines in the small DC
}

TEST(EcmpRouter, EcmpIndexUniform) {
  // No choice should be starved across the port space.
  topo::Topology t = two_dcs();
  ServerId a = t.pods()[0].servers[0];
  ServerId b = t.pods()[4].servers[0];
  std::map<std::size_t, int> counts;
  const int kPorts = 4096;
  for (int i = 0; i < kPorts; ++i) {
    FiveTuple tup = tuple_between(t, a, b, static_cast<std::uint16_t>(20000 + i));
    ++counts[EcmpRouter::ecmp_index(tup, 0x5b1e, 8)];
  }
  for (const auto& [idx, n] : counts) {
    EXPECT_GT(n, kPorts / 8 / 2) << "choice " << idx << " starved";
  }
  EXPECT_EQ(counts.size(), 8u);
}

TEST(EcmpRouter, ReverseTupleSwapsEndpoints) {
  FiveTuple f{IpAddr(10, 0, 0, 1), IpAddr(10, 0, 0, 2), 1111, 2222, 6};
  FiveTuple r = reverse(f);
  EXPECT_EQ(r.src_ip, f.dst_ip);
  EXPECT_EQ(r.dst_ip, f.src_ip);
  EXPECT_EQ(r.src_port, f.dst_port);
  EXPECT_EQ(r.dst_port, f.src_port);
}

// Property sweep: structural invariants of every resolved path, across
// topology shapes and random endpoint pairs.
class PathInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(PathInvariantTest, PathsAreStructurallyValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<topo::DcSpec> specs;
  int ndc = 1 + GetParam() % 3;
  for (int d = 0; d < ndc; ++d) {
    topo::DcSpec spec = topo::small_dc_spec("D" + std::to_string(d), "r");
    spec.podsets = 1 + static_cast<int>(rng.uniform_u32(3));
    spec.pods_per_podset = 1 + static_cast<int>(rng.uniform_u32(5));
    spec.servers_per_pod = 1 + static_cast<int>(rng.uniform_u32(6));
    spec.leaves_per_podset = 1 + static_cast<int>(rng.uniform_u32(3));
    spec.spines = 1 + static_cast<int>(rng.uniform_u32(6));
    specs.push_back(spec);
  }
  topo::Topology t = topo::Topology::build(specs);
  EcmpRouter router(t);

  auto n = static_cast<std::uint32_t>(t.server_count());
  for (int trial = 0; trial < 200; ++trial) {
    ServerId a{rng.uniform_u32(n)};
    ServerId b{rng.uniform_u32(n)};
    FiveTuple tup = tuple_between(t, a, b, static_cast<std::uint16_t>(32768 + trial));
    Path p = router.resolve(tup);
    const topo::Server& src = t.server(a);
    const topo::Server& dst = t.server(b);
    if (a == b) {
      EXPECT_TRUE(p.hops.empty());
      continue;
    }
    // Ends: first hop is the source ToR, last is the destination ToR.
    ASSERT_FALSE(p.hops.empty());
    EXPECT_EQ(p.hops.front().sw, src.tor);
    EXPECT_EQ(p.hops.back().sw, dst.tor);
    // Flags match topology relations.
    EXPECT_EQ(p.cross_pod, !(src.pod == dst.pod));
    EXPECT_EQ(p.cross_podset, !(src.podset == dst.podset));
    EXPECT_EQ(p.cross_dc, !(src.dc == dst.dc));
    // Tier sequence: Tor [Leaf [Spine [Border Border Spine] Leaf] Tor],
    // encoded by hop count given the relation.
    std::size_t expected = 1;
    if (p.cross_pod) expected = 3;
    if (p.cross_podset) expected = 5;
    if (p.cross_dc) expected = 8;
    EXPECT_EQ(p.hops.size(), expected);
    // Every hop is a real switch in a DC on the way.
    for (const Hop& hop : p.hops) {
      const topo::Switch& sw = t.sw(hop.sw);
      EXPECT_TRUE(sw.dc == src.dc || sw.dc == dst.dc);
      // Leaves on the path belong to an endpoint's podset.
      if (sw.kind == topo::SwitchKind::kLeaf) {
        EXPECT_TRUE(sw.podset == src.podset || sw.podset == dst.podset);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PathInvariantTest, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, BlackholeDeterministicPerTuple) {
  FaultInjector fi;
  SwitchId sw{3};
  fi.add_blackhole(sw, BlackholeMode::kSrcDstPair, 0.5, 0, FaultInjector::kForever, 99);
  FiveTuple t1{IpAddr(10, 0, 0, 1), IpAddr(10, 0, 1, 2), 40000, 33100, 6};
  bool first = fi.blackholes_tuple(sw, t1, seconds(1));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fi.blackholes_tuple(sw, t1, seconds(i)), first);
}

TEST(FaultInjector, SrcDstModeIgnoresPorts) {
  FaultInjector fi;
  SwitchId sw{3};
  fi.add_blackhole(sw, BlackholeMode::kSrcDstPair, 0.5);
  FiveTuple base{IpAddr(10, 0, 0, 1), IpAddr(10, 0, 1, 2), 40000, 33100, 6};
  bool flag = fi.blackholes_tuple(sw, base, 0);
  for (std::uint16_t p = 1000; p < 1100; ++p) {
    FiveTuple t = base;
    t.src_port = p;
    EXPECT_EQ(fi.blackholes_tuple(sw, t, 0), flag);
  }
}

TEST(FaultInjector, FiveTupleModeVariesWithPorts) {
  FaultInjector fi;
  SwitchId sw{3};
  fi.add_blackhole(sw, BlackholeMode::kFiveTuple, 0.5);
  FiveTuple base{IpAddr(10, 0, 0, 1), IpAddr(10, 0, 1, 2), 40000, 33100, 6};
  int holes = 0;
  for (std::uint16_t p = 1000; p < 1512; ++p) {
    FiveTuple t = base;
    t.src_port = p;
    if (fi.blackholes_tuple(sw, t, 0)) ++holes;
  }
  EXPECT_GT(holes, 128);  // ~50% of 512
  EXPECT_LT(holes, 384);
}

TEST(FaultInjector, FractionControlsPatternSpace) {
  FaultInjector fi;
  SwitchId sw{1};
  fi.add_blackhole(sw, BlackholeMode::kSrcDstPair, 0.1);
  int holes = 0;
  const int kPairs = 5000;
  for (int i = 0; i < kPairs; ++i) {
    FiveTuple t{IpAddr(static_cast<std::uint32_t>(0x0a000000 + i)),
                IpAddr(static_cast<std::uint32_t>(0x0a010000 + i * 7)), 40000, 33100, 6};
    if (fi.blackholes_tuple(sw, t, 0)) ++holes;
  }
  EXPECT_NEAR(static_cast<double>(holes) / kPairs, 0.1, 0.03);
}

TEST(FaultInjector, TimeWindows) {
  FaultInjector fi;
  SwitchId sw{2};
  fi.add_silent_random_drop(sw, 0.5, seconds(10), seconds(20));
  EXPECT_FALSE(fi.has_active_fault(sw, seconds(5)));
  EXPECT_TRUE(fi.has_active_fault(sw, seconds(10)));
  EXPECT_TRUE(fi.has_active_fault(sw, seconds(19)));
  EXPECT_FALSE(fi.has_active_fault(sw, seconds(20)));
}

TEST(FaultInjector, EffectsAggregate) {
  FaultInjector fi;
  SwitchId sw{5};
  fi.add_silent_random_drop(sw, 0.01);
  fi.add_congestion(sw, 4.0, 0.002);
  HopEffect e = fi.hop_effect(sw, FiveTuple{}, 0);
  EXPECT_FALSE(e.blackholed);
  EXPECT_NEAR(e.extra_drop_prob, 0.012, 1e-12);
  EXPECT_DOUBLE_EQ(e.queue_scale, 4.0);
}

TEST(FaultInjector, ReloadClearsOnlyBlackholes) {
  FaultInjector fi;
  SwitchId sw{4};
  fi.add_blackhole(sw, BlackholeMode::kSrcDstPair, 1.0);
  fi.add_silent_random_drop(sw, 0.01);
  EXPECT_EQ(fi.clear_blackholes_on(sw), 1);
  EXPECT_TRUE(fi.has_active_fault(sw, 0));  // silent drop remains
  EXPECT_EQ(fi.clear_all_on(sw), 1);
  EXPECT_FALSE(fi.has_active_fault(sw, 0));
}

TEST(FaultInjector, PodsetDown) {
  FaultInjector fi;
  fi.add_podset_down(PodsetId{1}, seconds(5), seconds(10));
  EXPECT_FALSE(fi.podset_down(PodsetId{1}, seconds(4)));
  EXPECT_TRUE(fi.podset_down(PodsetId{1}, seconds(7)));
  EXPECT_FALSE(fi.podset_down(PodsetId{2}, seconds(7)));
}

TEST(FaultInjector, RemoveById) {
  FaultInjector fi;
  SwitchId sw{9};
  FaultId id = fi.add_silent_random_drop(sw, 0.1);
  EXPECT_TRUE(fi.has_active_fault(sw, 0));
  fi.remove(id);
  EXPECT_FALSE(fi.has_active_fault(sw, 0));
}

TEST(FaultInjector, InvalidArgsThrow) {
  FaultInjector fi;
  EXPECT_THROW(fi.add_blackhole(SwitchId{1}, BlackholeMode::kSrcDstPair, 0.0),
               std::invalid_argument);
  EXPECT_THROW(fi.add_blackhole(SwitchId{1}, BlackholeMode::kSrcDstPair, 1.5),
               std::invalid_argument);
  EXPECT_THROW(fi.add_silent_random_drop(SwitchId{1}, 0.0), std::invalid_argument);
  EXPECT_THROW(fi.add_congestion(SwitchId{1}, 0.5, 0.0), std::invalid_argument);
}

TEST(FaultInjector, BlackholedSwitchListing) {
  FaultInjector fi;
  fi.add_blackhole(SwitchId{1}, BlackholeMode::kSrcDstPair, 0.5);
  fi.add_blackhole(SwitchId{2}, BlackholeMode::kFiveTuple, 0.5, seconds(100));
  auto now_list = fi.blackholed_switches(0);
  ASSERT_EQ(now_list.size(), 1u);
  EXPECT_EQ(now_list[0], SwitchId{1});
  EXPECT_EQ(fi.blackholed_switches(seconds(200)).size(), 2u);
}

// ---------------------------------------------------------------------------
// SimNetwork
// ---------------------------------------------------------------------------

class SimNetworkTest : public ::testing::Test {
 protected:
  SimNetworkTest() : topo_(two_dcs()), net_(topo_, 1234) {}

  ServerId server(std::size_t pod, std::size_t idx) const {
    return topo_.pods()[pod].servers[idx];
  }

  topo::Topology topo_;
  SimNetwork net_;
};

TEST_F(SimNetworkTest, CleanProbeSucceedsQuickly) {
  ProbeOutcome out = net_.tcp_probe(server(0, 0), server(0, 1), 40000, 33100, {}, 0);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.syn_transmissions, 1);
  EXPECT_GT(out.rtt, micros(50));
  EXPECT_LT(out.rtt, seconds(1));
}

TEST_F(SimNetworkTest, IntraPodMedianAroundPaperValue) {
  // Paper (Fig 4c): DC1 intra-pod P50 = 216us. Band-check 120..350us.
  std::vector<double> rtts;
  for (int i = 0; i < 4000; ++i) {
    ProbeOutcome out = net_.tcp_probe(server(0, 0), server(0, 1),
                                      static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    if (out.success && out.syn_transmissions == 1) {
      rtts.push_back(static_cast<double>(out.rtt));
    }
  }
  double p50 = exact_quantile(rtts, 0.5);
  EXPECT_GT(p50, 120e3);
  EXPECT_LT(p50, 350e3);
}

TEST_F(SimNetworkTest, InterPodAddsTensOfMicroseconds) {
  // Paper: P50 difference intra- vs inter-pod is ~52us (small queuing).
  std::vector<double> intra, inter;
  for (int i = 0; i < 6000; ++i) {
    auto p1 = net_.tcp_probe(server(0, 0), server(0, 1),
                             static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    auto p2 = net_.tcp_probe(server(0, 0), server(4, 1),
                             static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    if (p1.success && p1.syn_transmissions == 1) intra.push_back(static_cast<double>(p1.rtt));
    if (p2.success && p2.syn_transmissions == 1) inter.push_back(static_cast<double>(p2.rtt));
  }
  double d = exact_quantile(inter, 0.5) - exact_quantile(intra, 0.5);
  EXPECT_GT(d, 15e3);   // at least ~15us
  EXPECT_LT(d, 200e3);  // well under 200us
}

TEST_F(SimNetworkTest, PayloadRttExceedsConnectRtt) {
  ProbeSpec spec;
  spec.payload_bytes = 1000;
  std::vector<double> connect, payload;
  for (int i = 0; i < 3000; ++i) {
    auto out = net_.tcp_probe(server(0, 0), server(1, 0),
                              static_cast<std::uint16_t>(32768 + i), 33100, spec, 0);
    if (out.success && out.payload_success && out.syn_transmissions == 1 &&
        out.payload_rtt < seconds(1)) {
      connect.push_back(static_cast<double>(out.rtt));
      payload.push_back(static_cast<double>(out.payload_rtt));
    }
  }
  EXPECT_GT(exact_quantile(payload, 0.5), exact_quantile(connect, 0.5));
}

TEST_F(SimNetworkTest, SynDropGives3sSignature) {
  // 30% random drop at the ToR: many probes should carry the 3s signature.
  SwitchId tor = topo_.pods()[0].tor;
  net_.faults().add_silent_random_drop(tor, 0.3);
  int sig3 = 0, sig9 = 0, clean = 0, fail = 0;
  for (int i = 0; i < 2000; ++i) {
    auto out = net_.tcp_probe(server(0, 0), server(0, 1),
                              static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    if (!out.success) {
      ++fail;
      continue;
    }
    if (out.rtt >= seconds(8)) {
      ++sig9;
    } else if (out.rtt >= millis(2500)) {
      ++sig3;
    } else {
      ++clean;
    }
  }
  // Two packets cross the ToR; p(probe has >=1 drop) ~ 1-(0.7)^2 = 0.51.
  EXPECT_GT(sig3, 400);
  EXPECT_GT(sig9, 50);
  EXPECT_GT(clean, 400);
  // All three SYNs dropped: 0.51^3 ~ 13%.
  EXPECT_GT(fail, 100);
}

TEST_F(SimNetworkTest, BlackholeKillsConnectionDeterministically) {
  SwitchId tor = topo_.pods()[0].tor;
  net_.faults().add_blackhole(tor, BlackholeMode::kSrcDstPair, 1.0);
  for (int i = 0; i < 20; ++i) {
    auto out = net_.tcp_probe(server(0, 0), server(0, 1),
                              static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    EXPECT_FALSE(out.success);
    EXPECT_TRUE(out.hit_blackhole);
    EXPECT_EQ(out.first_drop_switch, tor);
    EXPECT_EQ(out.syn_transmissions, 3);  // all retries exhausted
  }
}

TEST_F(SimNetworkTest, PodsetDownFailsProbesBothWays) {
  PodsetId ps = topo_.pods()[0].podset;
  net_.faults().add_podset_down(ps, 0, FaultInjector::kForever);
  EXPECT_FALSE(net_.server_up(server(0, 0), 0));
  // Probe into the dead podset from a live one (pod 4 is podset 1).
  auto out = net_.tcp_probe(server(4, 0), server(0, 0), 40000, 33100, {}, 0);
  EXPECT_FALSE(out.success);
}

TEST_F(SimNetworkTest, CrossDcLatencyIncludesWan) {
  WanProfile wan;
  wan.propagation_ms_oneway = 30.0;
  net_.set_wan_profile(DcId{0}, DcId{1}, wan);
  ServerId a = topo_.dcs()[0].servers[0];
  ServerId b = topo_.dcs()[1].servers[0];
  auto out = net_.tcp_probe(a, b, 40000, 33100, {}, 0);
  ASSERT_TRUE(out.success);
  EXPECT_GT(out.rtt, millis(60));   // 2 x 30ms propagation
  EXPECT_LT(out.rtt, millis(200));
}

TEST_F(SimNetworkTest, BaselineDropRateInPaperBand) {
  // §4.2: normal-condition drop rates live in 1e-4..1e-5. Estimate the
  // probe-level drop frequency for inter-pod traffic. Each probe launches at
  // a distinct time: outcomes are a pure function of (tuple, launch time),
  // so a repeated (tuple, time) pair would replay the identical packet
  // rather than contribute an independent trial.
  std::uint64_t probes = 0, dropped = 0;
  for (int i = 0; i < 300000; ++i) {
    auto out = net_.tcp_probe(server(0, i % 8), server(4, (i + 1) % 8),
                              static_cast<std::uint16_t>(32768 + (i % 28000)), 33100, {},
                              millis(i));
    ++probes;
    if (!out.success || out.syn_transmissions > 1) ++dropped;
  }
  double rate = static_cast<double>(dropped) / static_cast<double>(probes);
  EXPECT_GT(rate, 5e-6);
  EXPECT_LT(rate, 3e-4);
}

TEST_F(SimNetworkTest, TracerouteWalksThePath) {
  ServerId a = server(0, 0);
  ServerId b = server(4, 0);
  FiveTuple tup{topo_.server(a).ip, topo_.server(b).ip, 41000, 33100, 6};
  Path expected = net_.router().resolve(tup);
  for (std::size_t ttl = 1; ttl <= expected.hops.size(); ++ttl) {
    auto hop = net_.traceroute_hop(tup, static_cast<int>(ttl), 0);
    ASSERT_TRUE(hop.has_value()) << "ttl=" << ttl;
    EXPECT_EQ(*hop, expected.hops[ttl - 1].sw);
  }
  EXPECT_FALSE(net_.traceroute_hop(tup, static_cast<int>(expected.hops.size()) + 1, 0));
}

TEST_F(SimNetworkTest, GroundTruthAttributesDropSwitch) {
  SwitchId spine = topo_.dcs()[0].spines[0];
  net_.faults().add_silent_random_drop(spine, 1.0);  // drop everything it carries
  int attributed = 0, total = 0;
  for (int i = 0; i < 400; ++i) {
    auto out = net_.tcp_probe(server(0, 0), server(4, 0),
                              static_cast<std::uint16_t>(32768 + i), 33100, {}, 0);
    ++total;
    if (out.first_drop_switch == spine) ++attributed;
  }
  // 4 spines: ~1/4 of tuples ride the faulty one and always record it.
  EXPECT_GT(attributed, total / 10);
}

TEST_F(SimNetworkTest, SeedReproducibility) {
  SimNetwork n1(topo_, 777);
  SimNetwork n2(topo_, 777);
  for (int i = 0; i < 100; ++i) {
    auto a = n1.tcp_probe(server(0, 0), server(1, 0),
                          static_cast<std::uint16_t>(40000 + i), 33100, {}, 0);
    auto b = n2.tcp_probe(server(0, 0), server(1, 0),
                          static_cast<std::uint16_t>(40000 + i), 33100, {}, 0);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.rtt, b.rtt);
  }
}

TEST_F(SimNetworkTest, HeavierProfileHasFatterTail) {
  SimNetwork hot(topo_, 99);
  hot.set_dc_profile(DcId{0}, DcProfile::throughput_intensive());
  SimNetwork cool(topo_, 99);
  cool.set_dc_profile(DcId{0}, DcProfile::lightly_loaded());
  auto tail = [&](SimNetwork& n) {
    std::vector<double> rtts;
    for (int i = 0; i < 60000; ++i) {
      auto out = n.tcp_probe(server(0, 0), server(1, 0),
                             static_cast<std::uint16_t>(32768 + (i % 28000)), 33100, {}, 0);
      if (out.success && out.syn_transmissions == 1) {
        rtts.push_back(static_cast<double>(out.rtt));
      }
    }
    return exact_quantile(rtts, 0.9999);
  };
  EXPECT_GT(tail(hot), 2.0 * tail(cool));
}

}  // namespace
}  // namespace pingmesh::netsim
