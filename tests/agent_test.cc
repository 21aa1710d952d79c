// Tests for the Pingmesh Agent: probe scheduling, the §3.4.2 safety
// features (hard limits, fail-closed, bounded memory), counters, records,
// and the rotating local log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "agent/agent.h"
#include "agent/counters.h"
#include "agent/record.h"
#include "agent/rotating_log.h"
#include "common/rng.h"

namespace pingmesh::agent {
namespace {

class FakeUploader final : public Uploader {
 public:
  bool upload(const RecordColumns& batch) override {
    ++attempts;
    if (fail_count > 0) {
      --fail_count;
      return false;
    }
    uploaded.append(batch);
    return true;
  }

  int attempts = 0;
  int fail_count = 0;
  RecordColumns uploaded;
};

controller::Pinglist make_pinglist(int targets, SimTime interval = seconds(30)) {
  controller::Pinglist pl;
  pl.server_name = "test-server";
  pl.server_ip = IpAddr(10, 0, 0, 1);
  pl.version = 1;
  pl.min_probe_interval = seconds(10);
  for (int i = 0; i < targets; ++i) {
    controller::PingTarget t;
    t.ip = IpAddr(10, 0, 1, static_cast<std::uint8_t>(i + 1));
    t.port = 33100;
    t.interval = interval;
    pl.targets.push_back(t);
  }
  return pl;
}

controller::FetchResult ok_fetch(controller::Pinglist pl) {
  return controller::FetchResult{controller::FetchStatus::kOk,
                                 std::make_shared<const controller::Pinglist>(std::move(pl))};
}

AgentConfig test_config() {
  AgentConfig cfg;
  cfg.pinglist_refresh = minutes(10);
  cfg.upload_interval = minutes(1);
  cfg.upload_batch_records = 1000;
  return cfg;
}

ProbeResult ok_result(SimTime rtt = micros(250)) {
  ProbeResult r;
  r.success = true;
  r.rtt = rtt;
  return r;
}

TEST(Agent, FetchesPinglistOnFirstTick) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  auto actions = agent.tick(0);
  EXPECT_TRUE(actions.fetch_pinglist);
  EXPECT_TRUE(actions.probes.empty());
  EXPECT_FALSE(agent.probing_active());
}

TEST(Agent, AdoptsPinglistAndProbes) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(5)), 0);
  EXPECT_TRUE(agent.probing_active());
  EXPECT_EQ(agent.target_count(), 5u);

  // Within one full interval from adoption, every target fires exactly once
  // (start times are staggered across the interval).
  std::size_t fired = 0;
  for (SimTime t = 0; t <= seconds(30); t += seconds(1)) {
    fired += agent.tick(t).probes.size();
  }
  EXPECT_EQ(fired, 5u);
}

TEST(Agent, RespectsPerTargetInterval) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1, seconds(30))), 0);
  std::size_t fired = 0;
  for (SimTime t = 0; t < seconds(301); t += seconds(1)) {
    fired += agent.tick(t).probes.size();
  }
  // ~300s / 30s interval = 10 probes (+-1 for stagger)
  EXPECT_GE(fired, 9u);
  EXPECT_LE(fired, 11u);
}

TEST(Agent, HardMinimumIntervalClamped) {
  // "The minimum probe interval between any two servers is limited to 10
  // seconds ... hard coded in the source code."
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1, seconds(1))), 0);  // asks for 1s!
  std::size_t fired = 0;
  for (SimTime t = 0; t < seconds(100); t += seconds(1)) {
    fired += agent.tick(t).probes.size();
  }
  EXPECT_LE(fired, 11u);  // 100s / 10s floor
}

TEST(Agent, PayloadCapClamped) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  controller::Pinglist pl = make_pinglist(1);
  pl.targets[0].kind = controller::ProbeKind::kTcpPayload;
  pl.targets[0].payload_bytes = 10 * 1024 * 1024;  // 10MB!
  agent.tick(0);
  agent.on_pinglist(ok_fetch(std::move(pl)), 0);
  std::vector<ProbeRequest> probes;
  for (SimTime t = 0; t <= seconds(30) && probes.empty(); t += seconds(1)) {
    auto a = agent.tick(t);
    probes = a.probes;
  }
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes[0].target.payload_bytes, kHardMaxPayloadBytes);
}

TEST(Agent, FreshSourcePortPerProbe) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(10)), 0);
  std::set<std::uint16_t> ports;
  std::size_t fired = 0;
  for (SimTime t = 0; t <= seconds(30); t += seconds(1)) {
    for (const auto& p : agent.tick(t).probes) {
      ports.insert(p.src_port);
      ++fired;
      EXPECT_GE(p.src_port, 32768);
    }
  }
  EXPECT_EQ(ports.size(), fired);
}

TEST(Agent, FailClosedAfterThreeUnreachableFetches) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(3)), 0);
  EXPECT_TRUE(agent.probing_active());

  controller::FetchResult unreachable{controller::FetchStatus::kUnreachable, nullptr};
  SimTime t = 0;
  for (int i = 0; i < 3; ++i) {
    t += minutes(10);
    agent.tick(t);
    agent.on_pinglist(unreachable, t);
  }
  EXPECT_FALSE(agent.probing_active());
  EXPECT_EQ(agent.target_count(), 0u);
  // No probes while failed closed.
  for (SimTime tt = t; tt < t + minutes(5); tt += seconds(5)) {
    EXPECT_TRUE(agent.tick(tt).probes.empty());
  }
}

TEST(Agent, TwoFailuresThenSuccessKeepsProbing) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(3)), 0);
  controller::FetchResult unreachable{controller::FetchStatus::kUnreachable, nullptr};
  agent.on_pinglist(unreachable, minutes(10));
  agent.on_pinglist(unreachable, minutes(20));
  EXPECT_TRUE(agent.probing_active());
  agent.on_pinglist(ok_fetch(make_pinglist(3)), minutes(30));
  EXPECT_TRUE(agent.probing_active());
  EXPECT_EQ(agent.consecutive_fetch_failures(), 0);
}

TEST(Agent, NoPinglistStopsImmediately) {
  // "if the controller is up but there is no pinglist file available, the
  // Pingmesh Agent will remove all its existing ping peers and stop."
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(3)), 0);
  EXPECT_TRUE(agent.probing_active());
  agent.on_pinglist(controller::FetchResult{controller::FetchStatus::kNoPinglist, nullptr},
                    minutes(10));
  EXPECT_FALSE(agent.probing_active());
}

TEST(Agent, RecoversAfterFailClosed) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(controller::FetchResult{controller::FetchStatus::kNoPinglist, nullptr},
                    0);
  EXPECT_FALSE(agent.probing_active());
  // Next periodic fetch succeeds -> probing resumes.
  auto actions = agent.tick(minutes(10));
  EXPECT_TRUE(actions.fetch_pinglist);
  agent.on_pinglist(ok_fetch(make_pinglist(2)), minutes(10));
  EXPECT_TRUE(agent.probing_active());
}

TEST(Agent, UploadsOnBatchThreshold) {
  FakeUploader up;
  AgentConfig cfg = test_config();
  cfg.upload_batch_records = 10;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), cfg, up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  req.src_port = 40000;
  for (int i = 0; i < 10; ++i) agent.on_probe_result(req, ok_result(), seconds(i));
  EXPECT_EQ(up.uploaded.size(), 10u);
  EXPECT_EQ(agent.buffered_records(), 0u);
  EXPECT_EQ(agent.uploads_ok(), 1u);
}

TEST(Agent, UploadsOnTimer) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  agent.on_probe_result(req, ok_result(), seconds(5));
  EXPECT_EQ(up.uploaded.size(), 0u);
  agent.tick(minutes(2));  // upload_interval = 1min
  EXPECT_EQ(up.uploaded.size(), 1u);
}

TEST(Agent, RetriesThenDiscards) {
  // "If a server cannot upload its latency data, it will retry several
  // times. After that it will stop trying and discard the in-memory data."
  FakeUploader up;
  AgentConfig cfg = test_config();
  cfg.upload_batch_records = 5;
  cfg.upload_max_retries = 3;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), cfg, up);
  up.fail_count = 1000;  // uploader hard down
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    t += minutes(2);
    agent.on_probe_result(req, ok_result(), t);
    agent.tick(t);
  }
  EXPECT_GT(agent.records_discarded(), 0u);
  EXPECT_LE(agent.buffered_records(), cfg.upload_batch_records + 1);
  EXPECT_GT(agent.uploads_failed(), 0u);
}

TEST(Agent, MemoryCapShedsOldest) {
  FakeUploader up;
  AgentConfig cfg = test_config();
  cfg.max_buffered_records = 50;
  cfg.upload_batch_records = 1000000;  // never batch-upload
  cfg.upload_interval = hours(10);     // never timer-upload
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), cfg, up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  for (int i = 0; i < 200; ++i) agent.on_probe_result(req, ok_result(), seconds(i));
  EXPECT_LE(agent.buffered_records(), 50u);
  EXPECT_GE(agent.records_discarded(), 150u);
}

TEST(Agent, FlushUploadsRemainder) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  agent.on_probe_result(req, ok_result(), seconds(1));
  agent.flush(seconds(2));
  EXPECT_EQ(up.uploaded.size(), 1u);
}

TEST(Agent, CountersTrackDropSignatures) {
  FakeUploader up;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), test_config(), up);
  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  for (int i = 0; i < 96; ++i) agent.on_probe_result(req, ok_result(micros(300)), seconds(i));
  agent.on_probe_result(req, ok_result(seconds(3) + micros(300)), seconds(100));
  agent.on_probe_result(req, ok_result(seconds(9) + micros(300)), seconds(101));
  ProbeResult failed;
  agent.on_probe_result(req, failed, seconds(102));

  CounterSnapshot snap = agent.collect_counters(seconds(110));
  EXPECT_EQ(snap.probes, 99u);
  EXPECT_EQ(snap.successes, 98u);
  EXPECT_EQ(snap.failures, 1u);
  EXPECT_EQ(snap.probes_3s, 1u);
  EXPECT_EQ(snap.probes_9s, 1u);
  EXPECT_NEAR(snap.drop_rate(), 2.0 / 98.0, 1e-9);
  EXPECT_GT(snap.latency.p50(), 0);

  // collect() resets the window.
  CounterSnapshot next = agent.collect_counters(seconds(120));
  EXPECT_EQ(next.probes, 0u);
}

TEST(SynDropSignature, Bands) {
  EXPECT_EQ(syn_drop_signature(micros(250)), 0);
  EXPECT_EQ(syn_drop_signature(seconds(3) + micros(400)), 1);
  EXPECT_EQ(syn_drop_signature(seconds(9) + micros(400)), 2);
  EXPECT_EQ(syn_drop_signature(seconds(1)), 0);
  EXPECT_EQ(syn_drop_signature(seconds(7)), 0);
  EXPECT_EQ(syn_drop_signature(seconds(20)), 0);
}

TEST(ProbeCounts, ClassifiesAtSignatureBandEdges) {
  // Bands are [2.5 s, 6 s) for one SYN drop and [8 s, 15 s) for two; every
  // other success is a clean latency sample.
  struct Case {
    SimTime rtt;
    std::uint64_t probes_3s;
    std::uint64_t probes_9s;
  };
  const Case cases[] = {
      {seconds(2) + millis(500) - 1, 0, 0}, {seconds(2) + millis(500), 1, 0},
      {seconds(6) - 1, 1, 0},               {seconds(6), 0, 0},
      {seconds(8) - 1, 0, 0},               {seconds(8), 0, 1},
      {seconds(15) - 1, 0, 1},              {seconds(15), 0, 0},
  };
  for (const Case& c : cases) {
    ProbeCounts pc;
    const bool clean = pc.add(true, c.rtt);
    EXPECT_EQ(pc.probes_3s, c.probes_3s) << c.rtt;
    EXPECT_EQ(pc.probes_9s, c.probes_9s) << c.rtt;
    EXPECT_EQ(clean, c.probes_3s + c.probes_9s == 0) << c.rtt;
    EXPECT_EQ(pc.probes, 1u);
    EXPECT_EQ(pc.successes, 1u);
  }
  ProbeCounts failed;
  EXPECT_FALSE(failed.add(false, seconds(3)));  // a failure is never a signature
  EXPECT_EQ(failed.failures, 1u);
  EXPECT_EQ(failed.drop_signatures(), 0u);
  EXPECT_DOUBLE_EQ(failed.failure_rate(), 1.0);
}

TEST(ProbeStats, MergeEqualsAddingEveryOutcomeToOne) {
  Rng rng(17);
  ProbeStats parts[3];
  ProbeStats whole;
  for (int i = 0; i < 3000; ++i) {
    const bool success = !rng.chance(0.02);
    SimTime rtt = micros(100) + static_cast<SimTime>(rng.uniform(0, 2e6));
    if (rng.chance(0.01)) rtt += seconds(3);
    if (rng.chance(0.005)) rtt += seconds(9);
    parts[i % 3].add(success, rtt);
    whole.add(success, rtt);
  }
  ProbeStats merged = parts[2];
  merged.merge(parts[0]);
  merged.merge(parts[1]);
  EXPECT_EQ(static_cast<const ProbeCounts&>(merged), static_cast<const ProbeCounts&>(whole));
  EXPECT_EQ(merged.latency.bucket_counts(), whole.latency.bucket_counts());
  EXPECT_EQ(merged.latency.count(), whole.latency.count());
  EXPECT_EQ(merged.latency.min(), whole.latency.min());
  EXPECT_EQ(merged.latency.max(), whole.latency.max());
  EXPECT_EQ(merged.latency.p50(), whole.latency.p50());
  EXPECT_EQ(merged.latency.p99(), whole.latency.p99());
  EXPECT_GT(whole.probes_3s + whole.probes_9s, 0u);
  EXPECT_GT(whole.failures, 0u);
}

TEST(ProbeStats, SeparatesSignaturesFromLatency) {
  ProbeStats stats;
  for (int i = 0; i < 99; ++i) stats.add(true, micros(250));
  stats.add(true, seconds(3) + micros(250));  // retransmit artifact
  stats.add(false, seconds(3) + micros(250));
  EXPECT_EQ(stats.probes, 101u);
  EXPECT_EQ(stats.successes, 100u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.drop_signatures(), 1u);
  // The 3s RTT must not pollute the latency percentiles.
  EXPECT_EQ(stats.latency.count(), 99u);
  EXPECT_LT(stats.latency.p99(), millis(1));
  EXPECT_NEAR(stats.drop_rate(), 0.01, 1e-9);
  stats.clear();
  EXPECT_EQ(static_cast<const ProbeCounts&>(stats), ProbeCounts{});
  EXPECT_EQ(stats.latency.count(), 0u);
}

TEST(Record, CsvRoundTrip) {
  LatencyRecord r;
  r.timestamp = millis(1234);
  r.src_ip = IpAddr(10, 0, 0, 1);
  r.dst_ip = IpAddr(10, 1, 0, 2);
  r.src_port = 40123;
  r.dst_port = 33100;
  r.kind = controller::ProbeKind::kTcpPayload;
  r.qos = controller::QosClass::kLow;
  r.success = true;
  r.rtt = micros(268);
  r.payload_success = true;
  r.payload_rtt = micros(326);
  r.payload_bytes = 1000;

  auto back = LatencyRecord::from_csv_row(r.to_csv_row());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timestamp, r.timestamp);
  EXPECT_EQ(back->src_ip, r.src_ip);
  EXPECT_EQ(back->dst_ip, r.dst_ip);
  EXPECT_EQ(back->src_port, r.src_port);
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_EQ(back->qos, r.qos);
  EXPECT_EQ(back->success, r.success);
  EXPECT_EQ(back->rtt, r.rtt);
  EXPECT_EQ(back->payload_rtt, r.payload_rtt);
  EXPECT_EQ(back->payload_bytes, r.payload_bytes);
}

TEST(Record, BatchRoundTripAndMalformedRows) {
  std::vector<LatencyRecord> batch(3);
  batch[0].rtt = 1;
  batch[1].rtt = 2;
  batch[2].rtt = 3;
  std::string csv_data = encode_batch(batch);
  csv_data += "not,a,valid,row\n";
  auto decoded = decode_batch(csv_data);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[2].rtt, 3);
}

TEST(Record, RejectsOutOfRangeEnums) {
  LatencyRecord r;
  auto row = r.to_csv_row();
  row[5] = "9";  // kind out of range
  EXPECT_FALSE(LatencyRecord::from_csv_row(row).has_value());
}

TEST(Agent, LocalLogAppendsEachRecordExactlyOnceAcrossRetries) {
  // Regression: perform_upload appended the whole batch to the local log on
  // *every* attempt, so a batch that survived N failed uploads landed in
  // the log N+1 times. The high-water mark must keep it to exactly once.
  std::string path = ::testing::TempDir() + "/pingmesh_agent_locallog_test.csv";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");

  FakeUploader up;
  AgentConfig cfg = test_config();
  cfg.upload_batch_records = 5;
  cfg.upload_max_retries = 5;
  cfg.local_log_path = path;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), cfg, up);
  up.fail_count = 2;

  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  req.src_port = 40000;
  // The 5th record fills the batch -> attempt 1 (fails); the two timer
  // ticks drive attempt 2 (fails) and attempt 3 (succeeds).
  for (int i = 0; i < 5; ++i) agent.on_probe_result(req, ok_result(), seconds(i));
  agent.tick(minutes(2));
  agent.tick(minutes(4));
  ASSERT_EQ(up.uploaded.size(), 5u);
  EXPECT_EQ(agent.uploads_failed(), 2u);
  EXPECT_EQ(agent.uploads_ok(), 1u);

  std::ifstream in(path, std::ios::binary);
  std::stringstream contents;
  contents << in.rdbuf();
  std::vector<LatencyRecord> logged = decode_batch(contents.str());
  EXPECT_EQ(logged.size(), 5u);  // 15 before the fix (5 records x 3 attempts)
  EXPECT_EQ(agent.records_logged(), 5u);
  EXPECT_EQ(agent.local_log_dup_avoided(), 10u);
  ASSERT_EQ(logged.size(), up.uploaded.size());
  for (std::size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i].timestamp, up.uploaded.timestamp(i)) << i;
  }

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST(Agent, LocalLogCoversRecordsBufferedAfterAFailedAttempt) {
  // Records that arrive between retries extend the unlogged suffix: they
  // must be logged exactly once too, not skipped and not duplicated.
  std::string path = ::testing::TempDir() + "/pingmesh_agent_locallog_suffix.csv";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");

  FakeUploader up;
  AgentConfig cfg = test_config();
  cfg.upload_batch_records = 3;
  cfg.upload_max_retries = 5;
  cfg.local_log_path = path;
  PingmeshAgent agent("s", IpAddr(10, 0, 0, 1), cfg, up);
  up.fail_count = 2;

  agent.tick(0);
  agent.on_pinglist(ok_fetch(make_pinglist(1)), 0);
  ProbeRequest req;
  req.target = make_pinglist(1).targets[0];
  for (int i = 0; i < 3; ++i) agent.on_probe_result(req, ok_result(), seconds(i));
  // Attempt 1 failed (3 records logged). Each later arrival re-fills the
  // batch past the threshold and retries: attempt 2 fails (only the one
  // new record may hit the log), attempt 3 succeeds with all 5.
  agent.on_probe_result(req, ok_result(), seconds(10));
  agent.on_probe_result(req, ok_result(), seconds(11));
  ASSERT_EQ(up.uploaded.size(), 5u);

  std::ifstream in(path, std::ios::binary);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(decode_batch(contents.str()).size(), 5u);
  EXPECT_EQ(agent.records_logged(), 5u);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST(RotatingLog, CapsSizeWithRotation) {
  std::string path = ::testing::TempDir() + "/pingmesh_rotlog_test.csv";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  RotatingLog log(path, 1000);
  std::string blob(400, 'x');
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(log.append(blob));
  // Current file never exceeds cap by more than one blob.
  EXPECT_LE(std::filesystem::file_size(path), 1200u);
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST(RotatingLog, DisabledWhenNoPath) {
  RotatingLog log("", 1000);
  EXPECT_FALSE(log.enabled());
  EXPECT_TRUE(log.append("data"));  // no-op, no error
}

}  // namespace
}  // namespace pingmesh::agent
