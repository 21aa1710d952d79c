// Tests for ScopeQL: lexing, parsing, evaluation, aggregation, ordering,
// error reporting — the declarative layer of the DSA pipeline.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "dsa/scopeql.h"
#include "topology/topology.h"

namespace pingmesh::dsa::scopeql {
namespace {

using agent::LatencyRecord;

topo::Topology small_dc() {
  return topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
}

LatencyRecord rec(IpAddr src, IpAddr dst, SimTime rtt, bool success = true) {
  LatencyRecord r;
  r.src_ip = src;
  r.dst_ip = dst;
  r.rtt = rtt;
  r.success = success;
  r.src_port = 40000;
  r.dst_port = 33100;
  return r;
}

agent::RecordColumns tiny_data() {
  IpAddr a(10, 0, 0, 1), b(10, 0, 0, 2), c(10, 0, 0, 3);
  agent::RecordColumns data;
  data.push_back(rec(a, b, micros(200)));
  data.push_back(rec(a, b, micros(300)));
  data.push_back(rec(a, c, micros(400)));
  data.push_back(rec(b, c, micros(500), /*success=*/false));
  data.push_back(rec(b, a, seconds(3) + micros(250)));  // one SYN-drop signature
  return data;
}

TEST(ScopeQl, SelectWhereProjection) {
  Interpreter ql;
  auto result = ql.run("SELECT rtt, success FROM latency WHERE rtt >= 300us", tiny_data());
  EXPECT_EQ(result.columns, (std::vector<std::string>{"rtt", "success"}));
  ASSERT_EQ(result.rows.size(), 4u);  // 300us, 400us, 500us (failed), 3s
  EXPECT_EQ(result.rows[0][0], std::to_string(micros(300)));
  EXPECT_EQ(result.rows[0][1], "1");
}

TEST(ScopeQl, IpColumnsRenderDotted) {
  Interpreter ql;
  auto result = ql.run("SELECT src_ip, dst_ip FROM latency LIMIT 1", tiny_data());
  EXPECT_EQ(result.rows[0][0], "10.0.0.1");
  EXPECT_EQ(result.rows[0][1], "10.0.0.2");
}

TEST(ScopeQl, TimeSuffixLiterals) {
  Interpreter ql;
  auto r1 = ql.run("SELECT rtt FROM latency WHERE rtt > 2s", tiny_data());
  EXPECT_EQ(r1.rows.size(), 1u);
  auto r2 = ql.run("SELECT rtt FROM latency WHERE rtt = 200us", tiny_data());
  EXPECT_EQ(r2.rows.size(), 1u);
  auto r3 = ql.run("SELECT rtt FROM latency WHERE rtt < 1ms AND rtt > 250000", tiny_data());
  EXPECT_EQ(r3.rows.size(), 3u);  // 300us, 400us, 500us
}

TEST(ScopeQl, BooleanOperators) {
  Interpreter ql;
  auto result = ql.run(
      "SELECT rtt FROM latency WHERE NOT success OR rtt >= 3s", tiny_data());
  EXPECT_EQ(result.rows.size(), 2u);  // the failure + the 3s signature
}

TEST(ScopeQl, GlobalAggregates) {
  Interpreter ql;
  auto result = ql.run(
      "SELECT COUNT(*), MIN(rtt), MAX(rtt), AVG(rtt), SUM(success) FROM latency "
      "WHERE success",
      tiny_data());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "4");
  EXPECT_EQ(result.rows[0][1], std::to_string(micros(200)));
  EXPECT_EQ(result.rows[0][2], std::to_string(seconds(3) + micros(250)));
  EXPECT_EQ(result.rows[0][4], "4");
}

TEST(ScopeQl, DropRateAggregate) {
  Interpreter ql;
  auto result = ql.run("SELECT DROPRATE(), COUNT(*) FROM latency", tiny_data());
  ASSERT_EQ(result.rows.size(), 1u);
  // 1 signature / 4 successes = 0.25.
  EXPECT_EQ(result.rows[0][0], format_rate(0.25));
}

TEST(ScopeQl, PercentileAggregates) {
  agent::RecordColumns data;
  for (int i = 1; i <= 1000; ++i) {
    data.push_back(rec(IpAddr(10, 0, 0, 1), IpAddr(10, 0, 0, 2), micros(i)));
  }
  Interpreter ql;
  auto result = ql.run("SELECT P50(rtt), P99(rtt) FROM latency", data);
  double p50 = std::stod(result.rows[0][0]);
  double p99 = std::stod(result.rows[0][1]);
  EXPECT_NEAR(p50, micros(500), micros(25));
  EXPECT_NEAR(p99, micros(990), micros(40));
}

TEST(ScopeQl, GroupByWithTopologyFunctions) {
  topo::Topology topo = small_dc();
  agent::RecordColumns data;
  const topo::Pod& pod0 = topo.pods()[0];
  const topo::Pod& pod1 = topo.pods()[1];
  for (int i = 0; i < 10; ++i) {
    data.push_back(rec(topo.server(pod0.servers[0]).ip, topo.server(pod0.servers[1]).ip,
                       micros(100 + i)));
  }
  for (int i = 0; i < 5; ++i) {
    data.push_back(rec(topo.server(pod1.servers[0]).ip, topo.server(pod0.servers[1]).ip,
                       micros(300 + i)));
  }
  Interpreter ql(&topo);
  auto result = ql.run(
      "SELECT pod(src_ip), COUNT(*), MAX(rtt) FROM latency GROUP BY pod(src_ip) "
      "ORDER BY COUNT DESC",
      data);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0], std::to_string(pod0.id.value));
  EXPECT_EQ(result.rows[0][1], "10");
  EXPECT_EQ(result.rows[1][1], "5");
}

TEST(ScopeQl, TopologyFunctionWithoutTopologyThrows) {
  Interpreter ql;  // no topology attached
  EXPECT_THROW(ql.run("SELECT pod(src_ip) FROM latency", tiny_data()), QueryError);
}

TEST(ScopeQl, UnknownIpYieldsMinusOneGroup) {
  topo::Topology topo = small_dc();
  Interpreter ql(&topo);
  agent::RecordColumns foreign;
  foreign.push_back(rec(IpAddr(192, 168, 1, 1), IpAddr(192, 168, 1, 2), micros(200)));
  auto result = ql.run(
      "SELECT dc(src_ip), COUNT(*) FROM latency GROUP BY dc(src_ip)", foreign);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "-1");  // 192.168.x.x is not in this topology
}

TEST(ScopeQl, OrderByAscDescAndLimit) {
  Interpreter ql;
  auto asc = ql.run("SELECT rtt FROM latency WHERE success ORDER BY rtt ASC LIMIT 2",
                    tiny_data());
  ASSERT_EQ(asc.rows.size(), 2u);
  EXPECT_EQ(asc.rows[0][0], std::to_string(micros(200)));
  auto desc =
      ql.run("SELECT rtt FROM latency WHERE success ORDER BY rtt DESC LIMIT 1", tiny_data());
  EXPECT_EQ(desc.rows[0][0], std::to_string(seconds(3) + micros(250)));
}

TEST(ScopeQl, TableRendering) {
  Interpreter ql;
  auto result = ql.run("SELECT COUNT(*) FROM latency", tiny_data());
  std::string table = result.to_table();
  EXPECT_NE(table.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(table.find("\n5"), std::string::npos);
}

TEST(ScopeQl, ErrorsArePrecise) {
  Interpreter ql;
  EXPECT_THROW(ql.run("SELEKT rtt FROM latency", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT rtt FROM nowhere", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT bogus_column FROM latency", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT rtt FROM latency WHERE rtt >", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT rtt FROM latency trailing", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT SUM(*) FROM latency", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT rtt, COUNT(*) FROM latency", tiny_data()), QueryError);
  EXPECT_THROW(ql.run("SELECT COUNT(*) FROM latency ORDER BY nope", tiny_data()),
               QueryError);
  EXPECT_THROW(ql.run("SELECT rtt FROM latency WHERE rtt > 3parsecs", tiny_data()),
               QueryError);
}

TEST(ScopeQl, CaseInsensitiveKeywords) {
  Interpreter ql;
  auto result =
      ql.run("select count(*) from latency where SUCCESS group by success", tiny_data());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "4");
}

}  // namespace
}  // namespace pingmesh::dsa::scopeql
