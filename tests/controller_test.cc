// Tests for the Pingmesh Controller: pinglist XML interchange, the pinglist
// generation algorithm (the three complete-graph levels), thresholds, the
// SLB/VIP model, and the RESTful distribution path over real sockets.
#include <gtest/gtest.h>

#include <set>

#include "controller/generator.h"
#include "controller/pinglist.h"
#include "controller/service.h"
#include "controller/slb.h"
#include "net/reactor.h"
#include "obs/metrics.h"
#include "topology/topology.h"

namespace pingmesh::controller {
namespace {

topo::Topology two_small_dcs() {
  return topo::Topology::build(
      {topo::small_dc_spec("DC1", "US West"), topo::small_dc_spec("DC2", "Asia")});
}

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.intra_pod_interval = seconds(30);
  cfg.intra_dc_interval = seconds(30);
  cfg.inter_dc_interval = minutes(1);
  return cfg;
}

// ---------------------------------------------------------------------------
// Pinglist XML
// ---------------------------------------------------------------------------

TEST(Pinglist, XmlRoundTrip) {
  Pinglist pl;
  pl.server_name = "DC1-PS0-P0-S0";
  pl.server_ip = IpAddr(10, 0, 0, 1);
  pl.version = 42;
  pl.min_probe_interval = seconds(10);
  PingTarget t1;
  t1.ip = IpAddr(10, 0, 0, 2);
  t1.port = 33100;
  t1.kind = ProbeKind::kTcpPayload;
  t1.payload_bytes = 1000;
  t1.interval = seconds(30);
  PingTarget t2;
  t2.ip = IpAddr(10, 1, 0, 7);
  t2.port = 33101;
  t2.kind = ProbeKind::kHttpGet;
  t2.qos = QosClass::kLow;
  t2.interval = minutes(5);
  t2.is_vip = true;
  pl.targets = {t1, t2};

  Pinglist parsed = Pinglist::from_xml(pl.to_xml());
  EXPECT_EQ(parsed.server_name, pl.server_name);
  EXPECT_EQ(parsed.server_ip, pl.server_ip);
  EXPECT_EQ(parsed.version, 42u);
  EXPECT_EQ(parsed.min_probe_interval, seconds(10));
  ASSERT_EQ(parsed.targets.size(), 2u);
  EXPECT_EQ(parsed.targets[0].ip, t1.ip);
  EXPECT_EQ(parsed.targets[0].kind, ProbeKind::kTcpPayload);
  EXPECT_EQ(parsed.targets[0].payload_bytes, 1000u);
  EXPECT_EQ(parsed.targets[1].qos, QosClass::kLow);
  EXPECT_TRUE(parsed.targets[1].is_vip);
  EXPECT_EQ(parsed.targets[1].interval, minutes(5));
}

TEST(Pinglist, MalformedXmlThrows) {
  EXPECT_THROW(Pinglist::from_xml("<NotAPinglist/>"), std::runtime_error);
  EXPECT_THROW(Pinglist::from_xml("<Pinglist ip=\"999.0.0.1\"/>"), std::runtime_error);
  EXPECT_THROW(Pinglist::from_xml("garbage"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PinglistGenerator — the three complete graphs (§3.3.1)
// ---------------------------------------------------------------------------

TEST(Generator, Level1IntraPodCompleteGraph) {
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  const topo::Pod& pod = t.pods()[0];
  for (ServerId s : pod.servers) {
    Pinglist pl = gen.generate_for(s);
    std::set<std::uint32_t> pod_peer_ips;
    for (ServerId peer : pod.servers) {
      if (peer != s) pod_peer_ips.insert(t.server(peer).ip.v);
    }
    std::set<std::uint32_t> targeted;
    for (const PingTarget& target : pl.targets) {
      if (pod_peer_ips.contains(target.ip.v)) targeted.insert(target.ip.v);
    }
    EXPECT_EQ(targeted, pod_peer_ips) << "server " << t.server(s).name;
  }
}

TEST(Generator, Level2ServerIPingsServerI) {
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  // For server i under ToRx, every other pod in the DC contributes exactly
  // its server i as a target.
  const topo::Server& s = t.server(t.pods()[2].servers[3]);  // i = 3
  Pinglist pl = gen.generate_for(s.id);
  std::set<std::uint32_t> target_ips;
  for (const PingTarget& target : pl.targets) target_ips.insert(target.ip.v);
  for (const topo::Pod& pod : t.pods()) {
    if (pod.dc != s.dc || pod.id == s.pod) continue;
    IpAddr expected = t.server(pod.servers[3]).ip;
    EXPECT_TRUE(target_ips.contains(expected.v))
        << "missing level-2 peer in pod " << pod.id.value;
    // and NOT some other index of that pod (beyond pod-level targets)
    IpAddr wrong = t.server(pod.servers[5]).ip;
    EXPECT_FALSE(target_ips.contains(wrong.v));
  }
}

TEST(Generator, Level2CoversAllTorPairs) {
  // Aggregated over all servers, every ToR pair in a DC is probed: the
  // ToR-level virtual complete graph.
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  std::set<std::pair<std::uint32_t, std::uint32_t>> tor_pairs;
  for (const topo::Server& s : t.servers()) {
    if (!(s.dc == DcId{0})) continue;
    Pinglist pl = gen.generate_for(s.id);
    for (const PingTarget& target : pl.targets) {
      auto dst = t.find_server_by_ip(target.ip);
      if (!dst) continue;
      const topo::Server& d = t.server(*dst);
      if (d.dc == s.dc && !(d.pod == s.pod)) {
        tor_pairs.emplace(s.tor.value, d.tor.value);
      }
    }
  }
  std::size_t tors = t.switches_in_dc(DcId{0}, topo::SwitchKind::kTor).size();
  EXPECT_EQ(tor_pairs.size(), tors * (tors - 1));
}

TEST(Generator, Level3InterDcParticipants) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.interdc_servers_per_podset = 2;
  PinglistGenerator gen(t, cfg);

  auto participants = gen.interdc_participants(DcId{0});
  // 2 podsets x 2 servers each
  EXPECT_EQ(participants.size(), 4u);
  for (ServerId p : participants) EXPECT_TRUE(gen.is_interdc_participant(p));

  // A participant has targets in the other DC; a non-participant does not.
  Pinglist pl = gen.generate_for(participants[0]);
  bool has_remote = false;
  for (const PingTarget& target : pl.targets) {
    auto dst = t.find_server_by_ip(target.ip);
    if (dst && t.server(*dst).dc == DcId{1}) has_remote = true;
  }
  EXPECT_TRUE(has_remote);

  ServerId non_participant;
  for (const topo::Server& s : t.servers()) {
    if (s.dc == DcId{0} && !gen.is_interdc_participant(s.id)) {
      non_participant = s.id;
      break;
    }
  }
  ASSERT_TRUE(non_participant.valid());
  Pinglist pl2 = gen.generate_for(non_participant);
  for (const PingTarget& target : pl2.targets) {
    auto dst = t.find_server_by_ip(target.ip);
    if (dst) {
      EXPECT_EQ(t.server(*dst).dc, DcId{0});
    }
  }
}

TEST(Generator, InterDcDisabled) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.enable_inter_dc = false;
  PinglistGenerator gen(t, cfg);
  // Selection still exists (it carries VIP monitoring), but no pinglist
  // contains a cross-DC target.
  EXPECT_FALSE(gen.interdc_participants(DcId{0}).empty());
  for (const topo::Server& s : t.servers()) {
    for (const PingTarget& target : gen.generate_for(s.id).targets) {
      auto dst = t.find_server_by_ip(target.ip);
      ASSERT_TRUE(dst.has_value());
      EXPECT_EQ(t.server(*dst).dc, s.dc);
    }
  }
}

TEST(Generator, TargetCapEnforced) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.max_targets_per_server = 5;
  PinglistGenerator gen(t, cfg);
  for (const topo::Server& s : t.servers()) {
    EXPECT_LE(gen.generate_for(s.id).targets.size(), 5u);
  }
}

TEST(Generator, IntervalFloorApplied) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.intra_pod_interval = seconds(1);  // below the 10s floor
  PinglistGenerator gen(t, cfg);
  Pinglist pl = gen.generate_for(t.servers()[0].id);
  for (const PingTarget& target : pl.targets) {
    EXPECT_GE(target.interval, seconds(10));
  }
}

TEST(Generator, PayloadTargetsSprinkled) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.payload_every_kth = 4;
  PinglistGenerator gen(t, cfg);
  Pinglist pl = gen.generate_for(t.servers()[0].id);
  int with_payload = 0;
  for (const PingTarget& target : pl.targets) {
    if (target.kind == ProbeKind::kTcpPayload) {
      ++with_payload;
      EXPECT_EQ(target.payload_bytes, kPayloadProbeBytes);
    }
  }
  EXPECT_GT(with_payload, 0);
  EXPECT_LT(with_payload, static_cast<int>(pl.targets.size()));
}

TEST(Generator, QosDuplicatesOnLowPriorityPort) {
  topo::Topology t = two_small_dcs();
  GeneratorConfig cfg = fast_config();
  cfg.enable_qos = true;
  PinglistGenerator gen(t, cfg);
  Pinglist pl = gen.generate_for(t.servers()[0].id);
  int high = 0, low = 0;
  for (const PingTarget& target : pl.targets) {
    if (target.qos == QosClass::kLow) {
      ++low;
      EXPECT_EQ(target.port, cfg.low_priority_port);
    } else {
      ++high;
    }
  }
  EXPECT_EQ(high, low);
}

TEST(Generator, DeterministicAcrossReplicas) {
  // "Every Pingmesh Controller server runs the same piece of code and
  // generates the same set of Pinglist files" — determinism is the
  // stateless-controller contract.
  topo::Topology t = two_small_dcs();
  PinglistGenerator a(t, fast_config());
  PinglistGenerator b(t, fast_config());
  for (const topo::Server& s : t.servers()) {
    EXPECT_EQ(a.generate_for(s.id).to_xml(), b.generate_for(s.id).to_xml());
  }
}

TEST(Generator, PaperScaleTargetCount) {
  // §3.3.1: "a server in Pingmesh needs to ping 2000-5000 peer servers" at
  // production scale. At our large-DC scale the shape holds: intra-pod
  // (servers_per_pod-1) + one per other ToR in the DC.
  topo::Topology t = topo::Topology::build({topo::large_dc_spec("DC1", "US West")});
  GeneratorConfig cfg = fast_config();
  cfg.enable_inter_dc = false;
  PinglistGenerator gen(t, cfg);
  Pinglist pl = gen.generate_for(t.servers()[0].id);
  // 39 pod peers + 159 other ToRs = 198
  EXPECT_EQ(pl.targets.size(), 39u + 159u);
}

// ---------------------------------------------------------------------------
// SLB / VIP
// ---------------------------------------------------------------------------

TEST(Slb, SpreadsOverHealthyBackends) {
  SlbVip vip;
  vip.add_backend("a");
  vip.add_backend("b");
  vip.add_backend("c");
  std::set<std::size_t> picked;
  for (std::uint64_t flow = 0; flow < 100; ++flow) {
    auto idx = vip.pick(flow);
    ASSERT_TRUE(idx.has_value());
    picked.insert(*idx);
  }
  EXPECT_EQ(picked.size(), 3u);
}

TEST(Slb, FailuresRemoveFromRotation) {
  // recovery_after beyond the pick count here: no half-open trial interferes.
  SlbVip vip(/*failure_threshold=*/3, /*recovery_after=*/1000);
  std::size_t a = vip.add_backend("a");
  vip.add_backend("b");
  for (int i = 0; i < 3; ++i) vip.report(a, false);
  EXPECT_EQ(vip.healthy_count(), 1u);
  EXPECT_EQ(vip.health_flips_down(), 1u);
  for (std::uint64_t flow = 0; flow < 50; ++flow) {
    EXPECT_EQ(vip.pick(flow), std::optional<std::size_t>{1});
  }
  // A successful health probe re-admits it.
  vip.report(a, true);
  EXPECT_EQ(vip.healthy_count(), 2u);
  EXPECT_EQ(vip.health_flips_up(), 1u);
}

TEST(Slb, RecoversBackendViaHalfOpenTrial) {
  // Regression: before half-open re-probing, an unhealthy backend was never
  // picked again, so no success could ever be reported for it and removal
  // was permanent (recovery required an out-of-band set_healthy call).
  SlbVip vip(/*failure_threshold=*/2, /*recovery_after=*/8);
  std::size_t a = vip.add_backend("a");
  std::size_t b = vip.add_backend("b");
  vip.report(a, false);
  vip.report(a, false);
  EXPECT_EQ(vip.healthy_count(), 1u);

  // Flows land on "b" until the trial window elapses; the 8th pick is the
  // half-open trial routed to "a".
  for (std::uint64_t flow = 0; flow < 7; ++flow) {
    EXPECT_EQ(vip.pick(flow), std::optional<std::size_t>{b});
  }
  EXPECT_EQ(vip.pick(7), std::optional<std::size_t>{a});
  EXPECT_EQ(vip.half_open_trials(), 1u);

  // The trial failed: "a" stays out and waits a full window again.
  vip.report(a, false);
  EXPECT_EQ(vip.healthy_count(), 1u);
  for (std::uint64_t flow = 0; flow < 7; ++flow) {
    EXPECT_EQ(vip.pick(100 + flow), std::optional<std::size_t>{b});
  }

  // The next trial succeeds: "a" rejoins rotation and gets hash-spread.
  EXPECT_EQ(vip.pick(999), std::optional<std::size_t>{a});
  vip.report(a, true);
  EXPECT_EQ(vip.healthy_count(), 2u);
  EXPECT_EQ(vip.health_flips_up(), 1u);
  std::set<std::size_t> seen;
  for (std::uint64_t flow = 0; flow < 50; ++flow) seen.insert(*vip.pick(flow));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Slb, HalfOpenTrialEmitsMetrics) {
  obs::MetricsRegistry reg;
  SlbVip vip(/*failure_threshold=*/1, /*recovery_after=*/2);
  vip.enable_observability(reg);
  std::size_t a = vip.add_backend("a");
  vip.add_backend("b");
  vip.report(a, false);
  for (std::uint64_t flow = 0; flow < 4; ++flow) vip.pick(flow);
  vip.report(a, true);
  std::string text = reg.expose({"slb."});
  EXPECT_NE(text.find("slb.health_flips_total{to=down} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("slb.health_flips_total{to=up} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("slb.picks_total 4"), std::string::npos) << text;
  EXPECT_NE(text.find("slb.healthy_backends 2"), std::string::npos) << text;
  EXPECT_GE(vip.half_open_trials(), 1u);
}

TEST(Slb, NoBackendsAtAll) {
  SlbVip vip(1);
  EXPECT_FALSE(vip.pick(1).has_value());
}

TEST(Slb, EmptyHealthySetProbesInsteadOfBlackholing) {
  // Regression: with every backend unhealthy, pick() used to return nullopt
  // forever — no pick meant no report(success), so a VIP whose backends all
  // restarted at once was permanently blackholed. Now the longest-waiting
  // unhealthy backend gets an immediate half-open trial.
  SlbVip vip(/*failure_threshold=*/1, /*recovery_after=*/1000);
  std::size_t a = vip.add_backend("a");
  vip.report(a, false);
  EXPECT_EQ(vip.healthy_count(), 0u);

  auto probe = vip.pick(1);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(*probe, a);
  EXPECT_EQ(vip.half_open_trials(), 1u);

  // Trial succeeded: the backend is back in rotation, VIP recovered.
  vip.report(a, true);
  EXPECT_EQ(vip.healthy_count(), 1u);
  EXPECT_EQ(vip.pick(2), std::optional<std::size_t>{a});
}

TEST(Slb, AllBackendsRestartSimultaneouslyThenRecover) {
  // The outage scenario itself: three backends all fail, probes rotate
  // across them (longest-waiting first), and a single success during the
  // outage is enough to restore service.
  SlbVip vip(/*failure_threshold=*/1, /*recovery_after=*/1000);
  std::size_t a = vip.add_backend("a");
  std::size_t b = vip.add_backend("b");
  std::size_t c = vip.add_backend("c");
  vip.report(a, false);
  vip.report(b, false);
  vip.report(c, false);
  EXPECT_EQ(vip.healthy_count(), 0u);

  // All went down at pick 0, so ties resolve to the lowest index; each
  // failed probe re-arms that backend, rotating the next probe onward.
  std::optional<std::size_t> p1 = vip.pick(10);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(*p1, a);
  vip.report(*p1, false);
  std::optional<std::size_t> p2 = vip.pick(11);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p2, b);
  vip.report(*p2, false);
  std::optional<std::size_t> p3 = vip.pick(12);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(*p3, c);
  vip.report(*p3, true);  // "c" came back up first

  EXPECT_EQ(vip.healthy_count(), 1u);
  EXPECT_EQ(vip.half_open_trials(), 3u);
  for (std::uint64_t flow = 0; flow < 20; ++flow) {
    EXPECT_EQ(vip.pick(flow), std::optional<std::size_t>{c});
  }
}

// ---------------------------------------------------------------------------
// Distribution paths
// ---------------------------------------------------------------------------

TEST(DirectSource, ServesAndWithdraws) {
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  DirectPinglistSource source(t, gen);

  FetchResult r = source.fetch(t.servers()[0].ip);
  EXPECT_EQ(r.status, FetchStatus::kOk);
  ASSERT_TRUE(r.pinglist != nullptr);
  EXPECT_FALSE(r.pinglist->targets.empty());

  source.set_serving(false);
  EXPECT_EQ(source.fetch(t.servers()[0].ip).status, FetchStatus::kNoPinglist);
  source.set_serving(true);
  source.set_reachable(false);
  EXPECT_EQ(source.fetch(t.servers()[0].ip).status, FetchStatus::kUnreachable);

  source.set_reachable(true);
  EXPECT_EQ(source.fetch(IpAddr(1, 2, 3, 4)).status, FetchStatus::kNoPinglist);
}

TEST(HttpDistribution, EndToEndOverLoopback) {
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  ControllerHttpService svc(reactor, net::SockAddr::loopback(0), t, gen);

  SlbVip vip;
  vip.add_backend("controller-0");
  HttpPinglistSource source(reactor, vip, {net::SockAddr::loopback(svc.port())});

  const topo::Server& s = t.servers()[3];
  FetchResult r = source.fetch(s.ip);
  ASSERT_EQ(r.status, FetchStatus::kOk);
  ASSERT_TRUE(r.pinglist != nullptr);
  EXPECT_EQ(r.pinglist->server_ip, s.ip);
  EXPECT_EQ(r.pinglist->to_xml(), gen.generate_for(s.id).to_xml());

  // Unknown server -> 404 -> kNoPinglist (the fail-closed trigger).
  EXPECT_EQ(source.fetch(IpAddr(9, 9, 9, 9)).status, FetchStatus::kNoPinglist);

  // Withdrawal: the operator kill switch.
  svc.withdraw_all();
  EXPECT_EQ(source.fetch(s.ip).status, FetchStatus::kNoPinglist);
}

namespace {

/// GET `path` from a local ControllerHttpService; returns the status code.
int http_get_status(net::Reactor& reactor, std::uint16_t port, const std::string& path,
                    std::string* body = nullptr) {
  net::HttpClient client(reactor);
  std::optional<net::HttpResult> result;
  client.get(net::SockAddr::loopback(port), path, std::chrono::milliseconds(2000),
             [&result](const net::HttpResult& r) { result = r; });
  reactor.run_until([&result] { return result.has_value(); },
                    net::Reactor::Clock::now() + std::chrono::milliseconds(2500));
  if (!result || !result->ok) return -1;
  if (body != nullptr) *body = result->response.body;
  return result->response.status;
}

}  // namespace

TEST(HttpDistribution, ShortPinglistPathIsRejectedNotFatal) {
  // Regression: handle_pinglist took req.path.substr(len("/pinglist/"))
  // without checking the prefix, so a bare "/pinglist" request threw
  // std::out_of_range from the handler. It must answer 404 and keep serving.
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  ControllerHttpService svc(reactor, net::SockAddr::loopback(0), t, gen);

  EXPECT_EQ(http_get_status(reactor, svc.port(), "/pinglist"), 404);
  EXPECT_EQ(http_get_status(reactor, svc.port(), "/pinglist?x=1"), 404);
  // The service survived and still serves real pinglists.
  const topo::Server& s = t.servers()[0];
  EXPECT_EQ(http_get_status(reactor, svc.port(), "/pinglist/" + s.ip.str()), 200);
}

TEST(HttpDistribution, ServesFreshFilesAfterVersionChange) {
  // Regression: pinglists were generated once at construction; a topology
  // or config change (generator version bump) kept stale files on the wire
  // until an explicit regenerate() call.
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  ControllerHttpService svc(reactor, net::SockAddr::loopback(0), t, gen);
  const topo::Server& s = t.servers()[0];

  std::string body;
  ASSERT_EQ(http_get_status(reactor, svc.port(), "/pinglist/" + s.ip.str(), &body), 200);
  EXPECT_EQ(Pinglist::from_xml(body).version, gen.version());

  gen.set_version(7);
  ASSERT_EQ(http_get_status(reactor, svc.port(), "/pinglist/" + s.ip.str(), &body), 200);
  EXPECT_EQ(Pinglist::from_xml(body).version, 7u);
  EXPECT_GE(svc.regenerations(), 2u);

  // Withdrawal is sticky: a later version bump must not resurrect files.
  svc.withdraw_all();
  gen.set_version(8);
  EXPECT_EQ(http_get_status(reactor, svc.port(), "/pinglist/" + s.ip.str()), 404);
}

TEST(HttpDistribution, ConditionalGetRevalidatesWithoutRerender) {
  // The thundering-herd path: a re-poll with If-None-Match must come back
  // 304 before the render path runs, so an unchanged pinglist costs the
  // controller headers only. A generator version bump invalidates the
  // validator and the next conditional GET gets a fresh 200.
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  ControllerHttpService svc(reactor, net::SockAddr::loopback(0), t, gen);
  const topo::Server& s = t.servers()[0];
  const std::string path = "/pinglist/" + s.ip.str();

  net::HttpClient client(reactor);
  auto fetch = [&](const std::string& inm) {
    net::HttpRequest req{"GET", path, {}, ""};
    if (!inm.empty()) req.headers["if-none-match"] = inm;
    std::optional<net::HttpResult> result;
    client.request(net::SockAddr::loopback(svc.port()), std::move(req),
                   std::chrono::milliseconds(2000),
                   [&result](const net::HttpResult& r) { result = r; });
    reactor.run_until([&result] { return result.has_value(); },
                      net::Reactor::Clock::now() + std::chrono::milliseconds(2500));
    EXPECT_TRUE(result && result->ok);
    return result->response;
  };

  net::HttpResponse first = fetch("");
  ASSERT_EQ(first.status, 200);
  std::string etag = first.headers.at("etag");
  std::uint64_t renders = svc.files_rendered();

  // Herd re-poll: 8 revalidations, zero new renders, empty bodies.
  for (int i = 0; i < 8; ++i) {
    net::HttpResponse again = fetch(etag);
    EXPECT_EQ(again.status, 304);
    EXPECT_TRUE(again.body.empty());
  }
  EXPECT_EQ(svc.files_rendered(), renders);

  // Version bump: old validator no longer matches; exactly one re-render.
  gen.set_version(gen.version() + 1);
  net::HttpResponse fresh = fetch(etag);
  EXPECT_EQ(fresh.status, 200);
  EXPECT_NE(fresh.headers.at("etag"), etag);
  EXPECT_EQ(svc.files_rendered(), renders + 1);
}

TEST(HttpDistribution, PinglistSourceCachesAndRevalidates) {
  // HttpPinglistSource remembers (etag, parsed pinglist) per server: a 304
  // reuses the cached parse, so agents re-polling an unchanged controller
  // skip both the XML transfer and the parse.
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  ControllerHttpService svc(reactor, net::SockAddr::loopback(0), t, gen);
  SlbVip vip;
  vip.add_backend("controller-0");
  HttpPinglistSource source(reactor, vip, {net::SockAddr::loopback(svc.port())});
  const topo::Server& s = t.servers()[2];

  FetchResult cold = source.fetch(s.ip);
  ASSERT_EQ(cold.status, FetchStatus::kOk);
  EXPECT_EQ(source.revalidated(), 0u);

  FetchResult warm = source.fetch(s.ip);
  ASSERT_EQ(warm.status, FetchStatus::kOk);
  EXPECT_EQ(source.revalidated(), 1u);
  EXPECT_EQ(warm.pinglist.get(), cold.pinglist.get());  // cached parse reused

  gen.set_version(gen.version() + 1);
  FetchResult fresh = source.fetch(s.ip);
  ASSERT_EQ(fresh.status, FetchStatus::kOk);
  EXPECT_EQ(source.revalidated(), 1u);  // changed content: full 200 again
  EXPECT_EQ(fresh.pinglist->version, gen.version());
}

TEST(HttpDistribution, SlbFailsOverBetweenControllerReplicas) {
  // Two controller replicas behind one VIP: killing one removes it from
  // rotation after a few failures and fetches keep succeeding (§3.3.2).
  topo::Topology t = two_small_dcs();
  PinglistGenerator gen(t, fast_config());
  net::Reactor reactor;
  auto svc_a = std::make_unique<ControllerHttpService>(reactor, net::SockAddr::loopback(0),
                                                       t, gen);
  ControllerHttpService svc_b(reactor, net::SockAddr::loopback(0), t, gen);
  std::uint16_t port_a = svc_a->port();

  SlbVip vip(/*failure_threshold=*/2);
  vip.add_backend("controller-a");
  vip.add_backend("controller-b");
  HttpPinglistSource source(
      reactor, vip,
      {net::SockAddr::loopback(port_a), net::SockAddr::loopback(svc_b.port())},
      std::chrono::milliseconds(300));

  const topo::Server& s = t.servers()[0];
  // Warm: both replicas serve identical files.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(source.fetch(s.ip).status, FetchStatus::kOk);

  // Replica A dies.
  svc_a.reset();
  int ok = 0;
  for (int i = 0; i < 12; ++i) {
    if (source.fetch(s.ip).status == FetchStatus::kOk) ++ok;
  }
  // At most a couple of fetches hit the dead replica before the SLB pulls
  // it out of rotation; everything after that lands on B.
  EXPECT_GE(ok, 10);
  EXPECT_EQ(vip.healthy_count(), 1u);
  EXPECT_EQ(source.fetch(s.ip).status, FetchStatus::kOk);
}

TEST(HttpDistribution, UnreachableControllerReported) {
  net::Reactor reactor;
  SlbVip vip;
  vip.add_backend("controller-0");
  std::uint16_t dead_port;
  {
    net::Reactor tmp;
    net::HttpServer victim(tmp, net::SockAddr::loopback(0));
    dead_port = victim.port();
  }
  HttpPinglistSource source(reactor, vip, {net::SockAddr::loopback(dead_port)},
                            std::chrono::milliseconds(300));
  EXPECT_EQ(source.fetch(IpAddr(10, 0, 0, 1)).status, FetchStatus::kUnreachable);
}

}  // namespace
}  // namespace pingmesh::controller
