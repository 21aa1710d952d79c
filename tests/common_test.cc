// Unit tests for the common substrate: RNG, statistics sketches (and the
// probe latency histogram built on them), XML, CSV, virtual clock and
// scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "agent/counters.h"
#include "common/ascii_chart.h"
#include "common/clock.h"
#include "common/csv.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/sketch.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/xml.h"

namespace pingmesh {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123, 7);
  Rng b(124, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u32() == c2.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU32Unbiased) {
  Rng r(2);
  const std::uint32_t n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[r.uniform_u32(n)];
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_NEAR(counts[k], trials / static_cast<int>(n), trials / 50);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(3);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng r(4);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoAboveScale) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ChanceProbability) {
  Rng r(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// ---------------------------------------------------------------------------
// CounterRng
// ---------------------------------------------------------------------------

TEST(CounterRng, DeterministicForKey) {
  CounterRng a(0xfeedULL);
  CounterRng b(0xfeedULL);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CounterRng, DifferentKeysDiffer) {
  CounterRng a(1);
  CounterRng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, IndependentInstancesShareNoState) {
  // The whole generator state is the key: draw i from a fresh instance
  // equals draw i from any other instance with the same key, regardless of
  // how many draws either has made. This is what makes probe outcomes
  // order-independent.
  CounterRng reference(0xabcULL);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(reference.next_u64());

  CounterRng replay(0xabcULL);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(replay.next_u64(), expected[static_cast<std::size_t>(i)]);
}

TEST(CounterRng, SharesDistributionHelpersWithRng) {
  CounterRng r(0x1234ULL);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_GE(r.exponential(2.0), 0.0);
    EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
  }
  int hits = 0;
  const int n = 100000;
  CounterRng c(0x5678ULL);
  for (int i = 0; i < n; ++i) {
    if (c.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(CounterRng, UniformU32RangeUnbiased) {
  CounterRng r(7);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_u32(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(MixKey, OrderAndArityMatter) {
  EXPECT_NE(mix_key(1, 2), mix_key(2, 1));
  EXPECT_NE(mix_key(1, 2, 3), mix_key(3, 2, 1));
  EXPECT_NE(mix_key(1, 2, 3), mix_key(1, 2, 3, 0));
  EXPECT_EQ(mix_key(1, 2, 3, 4), mix_key(1, 2, 3, 4));
}

// ---------------------------------------------------------------------------
// LatencySketch
// ---------------------------------------------------------------------------

/// The sketch's own rank convention applied to the raw samples: the
/// ceil(q * n)-th ranked value (1-based).
std::int64_t exact_rank_quantile(std::vector<std::int64_t> v, double q) {
  std::sort(v.begin(), v.end());
  auto target = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (target == 0) target = 1;
  return v[target - 1];
}

void expect_quantiles_within_bound(const LatencySketch& sk,
                                   const std::vector<std::int64_t>& samples,
                                   const char* label) {
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    std::int64_t exact = exact_rank_quantile(samples, q);
    std::int64_t est = sk.quantile(q);
    // The documented bound plus float-boundary slack: a value landing exactly
    // on a gamma^k boundary may round into the adjacent bucket, whose
    // representative still satisfies the sqrt(gamma) ratio against it.
    double tol = sk.relative_error_bound() * static_cast<double>(exact) * 1.001 + 2.0;
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact), tol)
        << label << " q=" << q;
  }
}

TEST(LatencySketch, EmptyAndSingleValue) {
  LatencySketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0);
  EXPECT_EQ(sk.min(), 0);
  EXPECT_EQ(sk.max(), 0);
  sk.record(micros(237));
  // A single sample: every quantile clamps to the observed (exact) value.
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_EQ(sk.p50(), micros(237));
  EXPECT_EQ(sk.p999(), micros(237));
  EXPECT_EQ(sk.min(), micros(237));
  EXPECT_EQ(sk.max(), micros(237));
  EXPECT_DOUBLE_EQ(sk.mean(), static_cast<double>(micros(237)));
}

TEST(LatencySketch, WeightedRecordMatchesRepeated) {
  LatencySketch a;
  LatencySketch b;
  a.record(micros(500), 10);
  for (int i = 0; i < 10; ++i) b.record(micros(500));
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.p50(), b.p50());
  EXPECT_EQ(a.p99(), b.p99());
}

TEST(LatencySketch, ErrorBoundUniform) {
  Rng rng(1);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<std::int64_t>(rng.uniform(5.0e4, 1.0e6));  // 50us..1ms
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "uniform");
}

TEST(LatencySketch, ErrorBoundLogNormal) {
  Rng rng(2);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  double log_median = std::log(2.0e5);  // 200us median
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<std::int64_t>(std::exp(log_median + 0.6 * rng.normal()));
    v = std::clamp<std::int64_t>(v, micros(2), seconds(10));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "lognormal");
}

TEST(LatencySketch, ErrorBoundBimodalAdversarial) {
  // Two tight modes three decades apart: quantiles sit right at the cliff,
  // the worst case for bucketed sketches.
  Rng rng(3);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    std::int64_t v = rng.chance(0.2)
                         ? static_cast<std::int64_t>(rng.uniform(3.9e6, 4.1e6))
                         : static_cast<std::int64_t>(rng.uniform(1.9e5, 2.1e5));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "bimodal");
}

TEST(LatencySketch, ErrorBoundHeavyTailAdversarial) {
  // Pareto(alpha=1.2) from 100us, clamped to 10s: the P999 lives deep in a
  // sparse tail spanning many octaves.
  Rng rng(4);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.uniform();
    if (u < 1e-9) u = 1e-9;
    auto v = static_cast<std::int64_t>(1.0e5 * std::pow(u, -1.0 / 1.2));
    v = std::min<std::int64_t>(v, seconds(10));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "heavy-tail");
}

TEST(LatencySketch, MergeMatchesUnion) {
  Rng rng(5);
  LatencySketch a;
  LatencySketch b;
  LatencySketch whole;
  for (int i = 0; i < 5000; ++i) {
    auto v = static_cast<std::int64_t>(rng.uniform(1.0e4, 5.0e6));
    (i % 2 ? a : b).record(v);
    whole.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, MergeIsAssociativeAndCommutative) {
  Rng rng(6);
  auto fill = [&rng](LatencySketch& sk, int n) {
    for (int i = 0; i < n; ++i) {
      sk.record(static_cast<std::int64_t>(rng.uniform(2.0e4, 2.0e6)));
    }
  };
  LatencySketch a;
  LatencySketch b;
  LatencySketch c;
  fill(a, 1000);
  fill(b, 1700);
  fill(c, 300);

  LatencySketch ab_c = a;  // (A + B) + C
  ab_c.merge(b);
  ab_c.merge(c);
  LatencySketch bc = b;  // A + (B + C)
  bc.merge(c);
  LatencySketch a_bc = a;
  a_bc.merge(bc);
  LatencySketch cba = c;  // (C + B) + A — commuted order
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.count(), cba.count());
  for (double q = 0.005; q < 1.0; q += 0.005) {
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << "q=" << q;
    EXPECT_EQ(ab_c.quantile(q), cba.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(ab_c.min(), cba.min());
  EXPECT_EQ(ab_c.max(), cba.max());
}

TEST(LatencySketch, MergeRejectsGeometryMismatch) {
  LatencySketch a;  // default 1%
  LatencySketch b(LatencySketch::Config{0.02, 1'000, 16 * kNanosPerSecond});
  EXPECT_FALSE(a.mergeable_with(b));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencySketch, OutOfRangeValuesClampButStayExactWhenAlone) {
  LatencySketch sk;
  sk.record(10);  // below min_value_ns: first bucket, clamped to observed
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_EQ(sk.min(), 10);
  EXPECT_EQ(sk.p50(), 10);
  LatencySketch high;
  high.record(120 * kNanosPerSecond);  // above max: saturating top bucket
  EXPECT_EQ(high.p50(), 120 * kNanosPerSecond);
}

TEST(LatencySketch, ClearKeepsGeometryAndAllocatesNothing) {
  LatencySketch sk;
  std::size_t buckets = sk.bucket_count();
  std::size_t mem = sk.memory_bytes();
  sk.record(micros(100), 50);
  sk.clear();
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0);
  EXPECT_EQ(sk.bucket_count(), buckets);
  EXPECT_EQ(sk.memory_bytes(), mem);
  sk.record(micros(300));
  EXPECT_EQ(sk.p50(), micros(300));
}

TEST(LatencySketch, MemoryIsSmallAndFixed) {
  LatencySketch sk;  // 1% over 1us..60s
  EXPECT_LT(sk.memory_bytes(), 16u * 1024u);
  std::size_t before = sk.memory_bytes();
  for (int i = 0; i < 100000; ++i) sk.record(micros(1) + i);
  EXPECT_EQ(sk.memory_bytes(), before);
}

// ---------------------------------------------------------------------------
// LatencyHistogram: the latency histogram every probe aggregate carries
// (agent::ProbeStats::latency), a LatencySketch at ProbeStats::kSketch.
// ---------------------------------------------------------------------------

LatencySketch probe_histogram() { return LatencySketch(agent::ProbeStats::kSketch); }

TEST(LatencyHistogram, EmptyIsZero) {
  LatencySketch h = probe_histogram();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(LatencyHistogram, SingleValue) {
  LatencySketch h = probe_histogram();
  h.record(250'000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(static_cast<double>(h.p50()), 250'000, 250'000 * 0.05);
  EXPECT_EQ(h.min(), 250'000);
  EXPECT_EQ(h.max(), 250'000);
}

TEST(LatencyHistogram, ClampsBelowMinimum) {
  LatencySketch h = probe_histogram();
  ASSERT_GT(h.config().min_value_ns, 1);
  h.record(1);  // below min_value
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1);
}

TEST(LatencyHistogram, QuantileAccuracyUniform) {
  LatencySketch h = probe_histogram();
  Rng r(7);
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    auto v = static_cast<std::int64_t>(r.uniform(10'000, 10'000'000));
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double want = exact_quantile(exact, q);
    double got = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(got, want, want * 0.05) << "q=" << q;
  }
}

TEST(LatencyHistogram, QuantileAccuracyHeavyTail) {
  // Fig. 4 reads P99.99: Pareto(alpha=1.1) from 50us, 100k samples, checked
  // out to q = 0.9999 (the adversarial sketch test stops at P99.9).
  LatencySketch h = probe_histogram();
  Rng r(8);
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    auto v = static_cast<std::int64_t>(r.pareto(50'000, 1.1));
    v = std::min<std::int64_t>(v, seconds(100));
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (double q : {0.5, 0.99, 0.9999}) {
    double want = exact_quantile(exact, q);
    double got = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(got, want, want * 0.08) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeMatchesCombined) {
  LatencySketch a = probe_histogram();
  LatencySketch b = probe_histogram();
  LatencySketch all = probe_histogram();
  Rng r(9);
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<std::int64_t>(r.lognormal(12, 1.0));
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.p50(), all.p50());
  EXPECT_EQ(a.p999(), all.p999());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(LatencyHistogram, MergeGeometryMismatchThrows) {
  LatencySketch::Config other = agent::ProbeStats::kSketch;
  other.min_value_ns *= 2;
  LatencySketch a = probe_histogram();
  LatencySketch b(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencyHistogram, ClearResets) {
  LatencySketch h = probe_histogram();
  h.record(12345);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0);
}

TEST(LatencyHistogram, InvalidGeometryThrows) {
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.0, 1'000, seconds(1)}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.5, 1'000, seconds(1)}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.01, 0, seconds(1)}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.01, 1'000, 1'000}),
               std::invalid_argument);
}

// Property sweep: quantiles are within relative error across distributions.
class HistogramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPropertyTest, QuantilesWithinRelativeError) {
  int seed = GetParam();
  Rng r(static_cast<std::uint64_t>(seed));
  LatencySketch h;
  std::vector<double> exact;
  int which = seed % 3;
  for (int i = 0; i < 30000; ++i) {
    double v = 0;
    switch (which) {
      case 0: v = r.uniform(2'000, 5'000'000); break;
      case 1: v = r.exponential(300'000) + 1'000; break;
      default: v = r.lognormal(11.5, 1.4); break;
    }
    auto iv = std::max<std::int64_t>(1, static_cast<std::int64_t>(v));
    h.record(iv);
    exact.push_back(static_cast<double>(iv));
  }
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    double want = exact_quantile(exact, q);
    EXPECT_NEAR(static_cast<double>(h.quantile(q)), want, std::max(want * 0.06, 2000.0))
        << "seed=" << seed << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// RunningStat
// ---------------------------------------------------------------------------

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.record(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-9);
}

TEST(RunningStat, MergeEqualsCombined) {
  RunningStat a, b, all;
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double v = r.normal(5, 3);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(FormatHelpers, Latency) {
  EXPECT_EQ(format_latency_ns(500), "500ns");
  EXPECT_EQ(format_latency_ns(216'000), "216us");
  EXPECT_EQ(format_latency_ns(1'340'000), "1.34ms");
  EXPECT_EQ(format_latency_ns(3'000'000'000), "3.00s");
}

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

TEST(Xml, EscapeRoundTrip) {
  std::string nasty = "a<b>&\"c'd";
  EXPECT_EQ(xml::unescape(xml::escape(nasty)), nasty);
}

TEST(Xml, WriterBasicShape) {
  xml::Writer w;
  w.open("Root").attr("x", std::int64_t{5});
  w.open("Child").attr("name", "a&b").close();
  w.leaf("Note", "hello");
  w.close();
  std::string doc = w.str();
  EXPECT_NE(doc.find("<Root x=\"5\">"), std::string::npos);
  EXPECT_NE(doc.find("name=\"a&amp;b\""), std::string::npos);
  EXPECT_NE(doc.find("<Note>hello</Note>"), std::string::npos);
}

TEST(Xml, WriterUnclosedThrows) {
  xml::Writer w;
  w.open("Root");
  EXPECT_THROW((void)w.str(), std::logic_error);
}

TEST(Xml, ParseRoundTrip) {
  xml::Writer w;
  w.open("Pinglist").attr("server", "srv-1").attr("count", std::int64_t{3});
  w.open("Target").attr("ip", "10.0.0.1").attr("weight", 2.5).close();
  w.open("Target").attr("ip", "10.0.0.2").close();
  w.close();
  auto root = xml::parse(w.str());
  EXPECT_EQ(root->name, "Pinglist");
  EXPECT_EQ(root->attr_or("server", ""), "srv-1");
  EXPECT_EQ(root->attr_int("count", -1), 3);
  auto targets = root->children_named("Target");
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0]->attr_or("ip", ""), "10.0.0.1");
  EXPECT_DOUBLE_EQ(targets[0]->attr_double("weight", 0), 2.5);
  EXPECT_EQ(targets[1]->attr_or("ip", ""), "10.0.0.2");
}

TEST(Xml, ParseTextContent) {
  auto root = xml::parse("<a><b>hello &amp; goodbye</b></a>");
  ASSERT_NE(root->child("b"), nullptr);
  EXPECT_EQ(root->child("b")->text, "hello & goodbye");
}

TEST(Xml, ParseSkipsCommentsAndProlog) {
  auto root = xml::parse(
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_NE(root->child("b"), nullptr);
}

TEST(Xml, ParseMalformedThrows) {
  EXPECT_THROW(xml::parse("<a><b></a>"), std::runtime_error);       // mismatched
  EXPECT_THROW(xml::parse("<a"), std::runtime_error);               // truncated
  EXPECT_THROW(xml::parse("<a></a><b></b>"), std::runtime_error);   // two roots
  EXPECT_THROW(xml::parse("<a x=5></a>"), std::runtime_error);      // unquoted attr
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, SimpleRow) {
  EXPECT_EQ(csv::encode_row({"a", "b", "c"}), "a,b,c");
}

TEST(Csv, QuotingRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote", "multi\nline", ""};
  std::string encoded = csv::encode_row(fields) + "\n";
  auto rows = csv::parse(encoded);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], fields);
}

TEST(Csv, MultipleRowsWithCrLf) {
  auto rows = csv::parse("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, LastRowWithoutNewline) {
  auto rows = csv::parse("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(Types, IpAddrFormatting) {
  EXPECT_EQ(IpAddr(10, 1, 2, 3).str(), "10.1.2.3");
  EXPECT_EQ(IpAddr(0).str(), "0.0.0.0");
  EXPECT_EQ(IpAddr(0xffffffffu).str(), "255.255.255.255");
}

TEST(Types, StrongIdsCompare) {
  ServerId a{1}, b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_FALSE(ServerId{}.valid());
  EXPECT_TRUE(a.valid());
}

TEST(Types, TimeHelpers) {
  EXPECT_EQ(millis(3), 3'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_micros(micros(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_seconds(minutes(1)), 60.0);
}

// ---------------------------------------------------------------------------
// ascii_chart
// ---------------------------------------------------------------------------

TEST(AsciiChart, LinearBarsScaleWithValues) {
  std::string chart = ascii_chart({{"a", 10.0}, {"b", 5.0}, {"c", 0.0}},
                                  AsciiChartOptions{.width = 10, .log_scale = false, .unit = ""});
  // 'a' has the full bar, 'b' half, 'c' none.
  EXPECT_NE(chart.find("a |##########"), std::string::npos);
  EXPECT_NE(chart.find("b |#####"), std::string::npos);
  EXPECT_NE(chart.find("c |          "), std::string::npos);
}

TEST(AsciiChart, LogScaleSeparatesDecades) {
  std::string chart = ascii_chart({{"base", 1e-5}, {"incident", 1e-3}},
                                  AsciiChartOptions{.width = 20, .log_scale = true, .unit = ""});
  auto count_hashes = [&](const std::string& label) {
    auto pos = chart.find(label);
    int n = 0;
    for (std::size_t i = pos; i < chart.size() && chart[i] != '\n'; ++i) {
      if (chart[i] == '#') ++n;
    }
    return n;
  };
  EXPECT_GT(count_hashes("incident"), count_hashes("base"));
  EXPECT_GT(count_hashes("base"), 0);  // log scale keeps small values visible
}

TEST(AsciiChart, EmptySeries) { EXPECT_EQ(ascii_chart({}), ""); }

// ---------------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------------

TEST(Log, SinkCapturesAndLevelFilters) {
  std::vector<std::string> captured;
  Log::set_sink([&](LogLevel level, std::string_view component, std::string_view msg) {
    captured.push_back(std::string(log_level_name(level)) + "/" + std::string(component) +
                       "/" + std::string(msg));
  });
  Log::set_min_level(LogLevel::kWarn);
  Log::info("agent", "ignored");
  Log::warn("agent", "kept");
  Log::error("dsa", "also kept");
  Log::set_sink(nullptr);
  Log::set_min_level(LogLevel::kInfo);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "WARN/agent/kept");
  EXPECT_EQ(captured[1], "ERROR/dsa/also kept");
}

// ---------------------------------------------------------------------------
// EventScheduler
// ---------------------------------------------------------------------------

TEST(EventScheduler, FiresInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(seconds(3), [&](SimTime) { order.push_back(3); });
  sched.schedule_at(seconds(1), [&](SimTime) { order.push_back(1); });
  sched.schedule_at(seconds(2), [&](SimTime) { order.push_back(2); });
  sched.run_until(seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), seconds(10));
}

TEST(EventScheduler, StableOrderAtSameInstant) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(seconds(1), [&order, i](SimTime) { order.push_back(i); });
  }
  sched.run_until(seconds(2));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, RecurringUntilCancelled) {
  EventScheduler sched;
  int fires = 0;
  sched.schedule_every(seconds(1), [&](SimTime) { return ++fires < 4; });
  sched.run_until(seconds(100));
  EXPECT_EQ(fires, 4);
}

TEST(EventScheduler, RecurringSeesAdvancingClock) {
  EventScheduler sched;
  std::vector<SimTime> times;
  sched.schedule_every(seconds(2), [&](SimTime now) {
    times.push_back(now);
    return times.size() < 3;
  });
  sched.run_until(seconds(10));
  EXPECT_EQ(times, (std::vector<SimTime>{seconds(2), seconds(4), seconds(6)}));
}

TEST(EventScheduler, PastSchedulingThrows) {
  EventScheduler sched;
  sched.run_until(seconds(5));
  EXPECT_THROW(sched.schedule_at(seconds(1), [](SimTime) {}), std::invalid_argument);
}

TEST(EventScheduler, EventsMayScheduleEvents) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(seconds(1), [&](SimTime now) {
    ++count;
    sched.schedule_at(now + seconds(1), [&](SimTime) { ++count; });
  });
  sched.run_until(seconds(5));
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace pingmesh
