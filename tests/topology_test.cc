// Unit tests for the Clos topology model.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "topology/topology.h"

namespace pingmesh::topo {

// Names each Shapes case after its spec ("A_2x4x8"). Without it gtest prints
// DcSpec's raw bytes, heap pointers included, so the case names (and the
// ctest names derived from them) changed from build to build.
void PrintTo(const DcSpec& spec, std::ostream* os) {
  *os << spec.name << '_' << spec.podsets << 'x' << spec.pods_per_podset << 'x'
      << spec.servers_per_pod;
}

namespace {

Topology two_small_dcs() {
  return Topology::build({small_dc_spec("DC1", "US West"), small_dc_spec("DC2", "Asia")});
}

TEST(Topology, BuildCounts) {
  Topology t = two_small_dcs();
  // small: 2 podsets x 4 pods x 8 servers = 64 servers per DC
  EXPECT_EQ(t.server_count(), 128u);
  EXPECT_EQ(t.dcs().size(), 2u);
  EXPECT_EQ(t.podsets().size(), 4u);
  EXPECT_EQ(t.pods().size(), 16u);
  // switches per DC: 4 spines + 2 borders + 2 podsets * (2 leaves) + 8 tors = 18
  EXPECT_EQ(t.switch_count(), 36u);
}

TEST(Topology, ContainmentCoordinatesConsistent) {
  Topology t = two_small_dcs();
  for (const Server& s : t.servers()) {
    const Pod& pod = t.pod(s.pod);
    EXPECT_EQ(pod.podset, s.podset);
    EXPECT_EQ(pod.dc, s.dc);
    EXPECT_EQ(pod.tor, s.tor);
    const Podset& ps = t.podset(s.podset);
    EXPECT_EQ(ps.dc, s.dc);
    // server is listed in its pod at index_in_pod
    ASSERT_LT(static_cast<std::size_t>(s.index_in_pod), pod.servers.size());
    EXPECT_EQ(pod.servers[static_cast<std::size_t>(s.index_in_pod)], s.id);
  }
}

TEST(Topology, UniqueIps) {
  Topology t = two_small_dcs();
  std::set<std::uint32_t> ips;
  for (const Server& s : t.servers()) ips.insert(s.ip.v);
  EXPECT_EQ(ips.size(), t.server_count());
}

TEST(Topology, IpLookup) {
  Topology t = two_small_dcs();
  for (const Server& s : t.servers()) {
    EXPECT_EQ(t.server_by_ip(s.ip), s.id);
    EXPECT_EQ(t.find_server_by_ip(s.ip), s.id);
  }
  // The second DC's servers follow the first's: its first server, 10.1.0.0,
  // has the id equal to the first DC's server count.
  const std::size_t dc1_servers = t.dcs()[0].servers.size();
  EXPECT_EQ(t.server_by_ip(IpAddr(10, 1, 0, 0)).value, dc1_servers);

  // Addresses just outside the plan: a DC past the last, and the first
  // unassigned index of each DC.
  std::vector<IpAddr> outside = {IpAddr(1, 2, 3, 4),
                                 IpAddr(10, static_cast<std::uint8_t>(t.dcs().size()), 0, 0)};
  for (const DataCenter& dc : t.dcs()) {
    const auto next = static_cast<std::uint32_t>(dc.servers.size());
    outside.push_back(IpAddr((10u << 24) | (dc.id.value << 16) | next));
  }
  for (IpAddr ip : outside) {
    EXPECT_FALSE(t.find_server_by_ip(ip).has_value()) << ip.str();
    EXPECT_THROW((void)t.server_by_ip(ip), std::out_of_range) << ip.str();
  }
}

TEST(Topology, Relations) {
  Topology t = two_small_dcs();
  const Pod& pod0 = t.pods()[0];
  ServerId a = pod0.servers[0];
  ServerId b = pod0.servers[1];
  EXPECT_TRUE(t.same_pod(a, b));
  EXPECT_TRUE(t.same_podset(a, b));
  EXPECT_TRUE(t.same_dc(a, b));

  const Pod& pod1 = t.pods()[1];  // same podset, different pod
  ServerId c = pod1.servers[0];
  EXPECT_FALSE(t.same_pod(a, c));
  EXPECT_TRUE(t.same_podset(a, c));

  // Server in the second DC.
  ServerId far = t.dcs()[1].servers.front();
  EXPECT_FALSE(t.same_dc(a, far));
}

TEST(Topology, SwitchQueries) {
  Topology t = two_small_dcs();
  DcId dc0{0};
  EXPECT_EQ(t.switches_in_dc(dc0, SwitchKind::kSpine).size(), 4u);
  EXPECT_EQ(t.switches_in_dc(dc0, SwitchKind::kBorder).size(), 2u);
  EXPECT_EQ(t.switches_in_dc(dc0, SwitchKind::kLeaf).size(), 4u);
  EXPECT_EQ(t.switches_in_dc(dc0, SwitchKind::kTor).size(), 8u);
  for (SwitchId sw : t.switches_in_dc(dc0, SwitchKind::kTor)) {
    EXPECT_EQ(t.sw(sw).kind, SwitchKind::kTor);
    EXPECT_EQ(t.sw(sw).dc, dc0);
  }
}

TEST(Topology, NamesAreDescriptive) {
  Topology t = two_small_dcs();
  EXPECT_EQ(t.servers()[0].name, "DC1-PS0-P0-S0");
  bool found_spine = false;
  for (const Switch& sw : t.switches()) {
    if (sw.kind == SwitchKind::kSpine && sw.name == "DC1-SP0") found_spine = true;
  }
  EXPECT_TRUE(found_spine);
}

TEST(Topology, InvalidSpecsThrow) {
  EXPECT_THROW(Topology::build({}), std::invalid_argument);
  DcSpec bad = small_dc_spec("X", "Y");
  bad.servers_per_pod = 0;
  EXPECT_THROW(Topology::build({bad}), std::invalid_argument);
  DcSpec huge = small_dc_spec("X", "Y");
  huge.podsets = 100;
  huge.pods_per_podset = 100;
  huge.servers_per_pod = 100;  // 1M > 65536 per-DC IP plan
  EXPECT_THROW(Topology::build({huge}), std::invalid_argument);
}

TEST(Topology, InvalidIdAccessThrows) {
  Topology t = two_small_dcs();
  EXPECT_THROW((void)t.server(ServerId{99999}), std::out_of_range);
  EXPECT_THROW((void)t.pod(PodId{99999}), std::out_of_range);
  EXPECT_THROW((void)t.dc(DcId{99}), std::out_of_range);
}

class SpecShapeTest : public ::testing::TestWithParam<DcSpec> {};

TEST_P(SpecShapeTest, StructuralInvariants) {
  Topology t = Topology::build({GetParam()});
  const DcSpec& spec = GetParam();
  const DataCenter& dc = t.dcs()[0];
  EXPECT_EQ(dc.podsets.size(), static_cast<std::size_t>(spec.podsets));
  EXPECT_EQ(dc.spines.size(), static_cast<std::size_t>(spec.spines));
  std::size_t servers = 0;
  for (PodsetId ps : dc.podsets) {
    EXPECT_EQ(t.podset(ps).pods.size(), static_cast<std::size_t>(spec.pods_per_podset));
    EXPECT_EQ(t.podset(ps).leaves.size(), static_cast<std::size_t>(spec.leaves_per_podset));
    for (PodId p : t.podset(ps).pods) {
      EXPECT_EQ(t.pod(p).servers.size(), static_cast<std::size_t>(spec.servers_per_pod));
      servers += t.pod(p).servers.size();
    }
  }
  EXPECT_EQ(servers, t.server_count());
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpecShapeTest,
                         ::testing::Values(small_dc_spec("A", "r"),
                                           medium_dc_spec("B", "r"),
                                           large_dc_spec("C", "r")));

TEST(ServiceMap, MembershipAndReverseLookup) {
  Topology t = two_small_dcs();
  ServiceMap services;
  std::vector<ServerId> search_servers(t.dcs()[0].servers.begin(),
                                       t.dcs()[0].servers.begin() + 10);
  ServiceId search = services.add_service("Search", search_servers);
  ServiceId storage = services.add_service(
      "Storage", {t.dcs()[0].servers[5], t.dcs()[1].servers[0]});

  EXPECT_EQ(services.service_count(), 2u);
  EXPECT_EQ(services.name(search), "Search");
  EXPECT_EQ(services.servers(search).size(), 10u);

  auto both = services.services_of(t.dcs()[0].servers[5]);
  EXPECT_EQ(both.size(), 2u);
  auto none = services.services_of(t.dcs()[1].servers[5]);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(services.services_of(t.dcs()[1].servers[0]),
            (std::vector<ServiceId>{storage}));
  EXPECT_THROW((void)services.name(ServiceId{7}), std::out_of_range);
}

}  // namespace
}  // namespace pingmesh::topo
