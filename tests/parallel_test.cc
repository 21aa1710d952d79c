// Tests for the sharded parallel fleet engine: ThreadPool semantics, the
// serial-vs-parallel bit-identity contract of the full simulation loop, and
// concurrent use of the stateless probe path (the test the thread sanitizer
// build exercises).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "agent/record.h"
#include "common/thread_pool.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "netsim/simnet.h"
#include "topology/topology.h"

namespace pingmesh {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ShardsAreDeterministicAndContiguous) {
  ThreadPool pool(3);
  // Record each shard's [begin, end) as seen by the body; repeated calls
  // must produce the same decomposition.
  for (int round = 0; round < 3; ++round) {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> shards;
    pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(m);
      shards.emplace_back(begin, end);
    });
    std::sort(shards.begin(), shards.end());
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0], (std::pair<std::size_t, std::size_t>{0, 3}));
    EXPECT_EQ(shards[1], (std::pair<std::size_t, std::size_t>{3, 6}));
    EXPECT_EQ(shards[2], (std::pair<std::size_t, std::size_t>{6, 10}));
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int call = 0; call < 200; ++call) {
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) total.fetch_add(i);
    });
  }
  EXPECT_EQ(total.load(), 200ull * (63ull * 64ull / 2));
}

TEST(ThreadPool, SmallRangesAndEmptyRange) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 3);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { count.fetch_add(100); });
  EXPECT_EQ(count.load(), 3);  // empty shards may or may not be invoked; no work
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id body_thread;
  pool.parallel_for(5, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

TEST(ThreadPool, ClampsNonPositiveWorkerCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.worker_count(), 1);
}

// ---------------------------------------------------------------------------
// Stateless probe path under concurrency
// ---------------------------------------------------------------------------

// Identical (tuple, time) probes must produce identical outcomes no matter
// which thread fires them or in what order — the determinism contract the
// parallel fleet engine is built on. Run under the tsan build this also
// proves the probe path is race-free.
TEST(ParallelProbes, ConcurrentProbesMatchSerialOutcomes) {
  topo::Topology topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  netsim::SimNetwork net(topo, /*seed=*/99);
  ServerId src = topo.servers()[0].id;
  ServerId dst = topo.servers()[40].id;

  constexpr int kProbes = 200;
  std::vector<netsim::ProbeOutcome> serial(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    serial[i] = net.tcp_probe(src, dst, static_cast<std::uint16_t>(32768 + i), 33100,
                              netsim::ProbeSpec{}, millis(i));
  }

  const std::uint64_t serial_packets = net.packets_sent();
  ASSERT_GT(serial_packets, 0u);

  std::vector<netsim::ProbeOutcome> concurrent(kProbes);
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Interleaved assignment: thread t fires probes t, t+4, t+8, ...
      for (int i = t; i < kProbes; i += kThreads) {
        concurrent[i] = net.tcp_probe(src, dst, static_cast<std::uint16_t>(32768 + i),
                                      33100, netsim::ProbeSpec{}, millis(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < kProbes; ++i) {
    EXPECT_EQ(serial[i].success, concurrent[i].success) << "probe " << i;
    EXPECT_EQ(serial[i].rtt, concurrent[i].rtt) << "probe " << i;
  }
  // Every packet the threads sent is counted once, whichever thread's
  // counter slot it landed in.
  EXPECT_EQ(net.packets_sent() - serial_packets, serial_packets);
}

// ---------------------------------------------------------------------------
// Full-loop bit-identity: 1 worker vs N workers
// ---------------------------------------------------------------------------

/// One stored extent's identity: its id, record count and checksum.
struct ExtentId {
  std::uint64_t id = 0;
  std::uint64_t records = 0;
  std::uint32_t checksum = 0;
  bool operator==(const ExtentId&) const = default;
};

struct SimSnapshot {
  std::uint64_t probes = 0;
  std::uint64_t packets = 0;
  std::string records;
  std::vector<ExtentId> extents;
  std::vector<dsa::SlaRow> sla;
};

SimSnapshot run_simulation(int workers) {
  core::SimulationConfig cfg = core::small_test_config(1234);
  cfg.worker_threads = workers;
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(20));
  SimSnapshot snap;
  snap.probes = sim.total_probes();
  snap.packets = sim.net().packets_sent();
  snap.records = sim.records_between(0, sim.now() + 1).encode_csv();
  for (const dsa::Extent& e : sim.cosmos().stream(dsa::kLatencyStream).extents()) {
    snap.extents.push_back(ExtentId{e.id, e.record_count, e.checksum});
  }
  snap.sla = sim.db().sla_rows;
  return snap;
}

TEST(ParallelSimulation, WorkerCountDoesNotChangeResults) {
  SimSnapshot serial = run_simulation(1);
  SimSnapshot parallel = run_simulation(4);

  EXPECT_GT(serial.probes, 0u);
  EXPECT_EQ(serial.probes, parallel.probes);
  EXPECT_GT(serial.packets, serial.probes);
  EXPECT_EQ(serial.packets, parallel.packets);
  EXPECT_EQ(serial.records, parallel.records);  // byte-identical stored stream
  // The stored extents themselves, encoded bytes included via the checksum.
  ASSERT_FALSE(serial.extents.empty());
  EXPECT_EQ(serial.extents, parallel.extents);

  ASSERT_EQ(serial.sla.size(), parallel.sla.size());
  for (std::size_t i = 0; i < serial.sla.size(); ++i) {
    const dsa::SlaRow& a = serial.sla[i];
    const dsa::SlaRow& b = parallel.sla[i];
    EXPECT_EQ(a.window_start, b.window_start);
    EXPECT_EQ(a.window_end, b.window_end);
    EXPECT_EQ(a.scope, b.scope);
    EXPECT_EQ(a.scope_id, b.scope_id);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.drop_signatures, b.drop_signatures);
    EXPECT_EQ(a.p50_ns, b.p50_ns);
    EXPECT_EQ(a.p99_ns, b.p99_ns);
  }
}

TEST(ParallelSimulation, WorkerThreadsAccessorReflectsPool) {
  core::SimulationConfig cfg = core::small_test_config(5);
  cfg.worker_threads = 3;
  core::PingmeshSimulation sim(cfg);
  EXPECT_EQ(sim.worker_threads(), 3);

  core::SimulationConfig serial_cfg = core::small_test_config(5);
  core::PingmeshSimulation serial_sim(serial_cfg);
  EXPECT_EQ(serial_sim.worker_threads(), 1);
}

}  // namespace
}  // namespace pingmesh
