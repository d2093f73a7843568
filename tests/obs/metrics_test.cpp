#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_merge.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zendoo::obs {
namespace {

// ---- Counter / Gauge: raw-uint64 drop-in semantics -------------------------

TEST(Counter, BehavesLikeRawUint64) {
  Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  EXPECT_EQ(c, 1u);
  EXPECT_EQ(c++, 1u);  // postfix yields the old value
  EXPECT_EQ(c, 2u);
  c += 5;
  EXPECT_EQ(c.value(), 7u);
  c = 3;
  EXPECT_EQ(c, 3u);
  // Arithmetic through the implicit conversion, as call sites use it.
  const std::uint64_t delta = c - 1;
  EXPECT_EQ(delta, 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(c), 3.0);
}

TEST(Gauge, SetAndRead) {
  Gauge g;
  EXPECT_EQ(g, 0u);
  g.set(42);
  EXPECT_EQ(g.value(), 42u);
  g.set(7);  // gauges go down too
  EXPECT_EQ(g, 7u);
}

// ---- Histogram: log2 bucketing ---------------------------------------------

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(255), 8u);
  EXPECT_EQ(Histogram::bucket_of(256), 9u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, CountSumMaxAndBuckets) {
  Histogram h;
  for (std::uint64_t v : {0u, 1u, 3u, 3u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 3, 3
  EXPECT_EQ(h.bucket(7), 1u);  // 100 in [64,128)
}

TEST(AtomicHistogram, SingleThreadedMatchesPlain) {
  Histogram plain;
  AtomicHistogram atomic;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    plain.record(v * v);
    atomic.record(v * v);
  }
  EXPECT_EQ(atomic.count(), plain.count());
  EXPECT_EQ(atomic.sum(), plain.sum());
  EXPECT_EQ(atomic.max(), plain.max());
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(atomic.bucket(b), plain.bucket(b)) << "bucket " << b;
  }
}

// ---- Registry ---------------------------------------------------------------

TEST(Registry, OwnedMetricsStableAcrossRegistrations) {
  Registry reg;
  Counter* c = reg.counter("a.count");
  ++*c;
  // Re-registering the same name+kind returns the same object.
  EXPECT_EQ(reg.counter("a.count"), c);
  EXPECT_EQ(reg.value("a.count"), 1u);
  // A kind mismatch on an existing name is a bug, not a new metric.
  EXPECT_THROW(reg.gauge("a.count"), std::logic_error);
  EXPECT_THROW(reg.histogram("a.count"), std::logic_error);
}

TEST(Registry, CollectIsSortedAndFlattensHistograms) {
  Registry reg;
  reg.counter("z.last");
  Histogram* h = reg.histogram("m.depth");
  h->record(4);
  h->record(9);
  reg.gauge("a.first")->set(11);
  const std::vector<Sample> samples = reg.collect();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const Sample& x, const Sample& y) { return x.name < y.name; }));
  EXPECT_EQ(samples[0].name, "a.first");
  EXPECT_EQ(samples[0].value, 11u);
  EXPECT_EQ(samples[1].name, "m.depth.count");
  EXPECT_EQ(samples[1].value, 2u);
  EXPECT_EQ(samples[2].name, "m.depth.max");
  EXPECT_EQ(samples[2].value, 9u);
  EXPECT_EQ(samples[3].name, "m.depth.sum");
  EXPECT_EQ(samples[3].value, 13u);
  EXPECT_EQ(samples[4].name, "z.last");
}

TEST(Registry, WallClockExcludedFromDeterministicCollection) {
  Registry reg;
  reg.counter("a.stable");
  Histogram* wall = reg.histogram("a.latency_ns", Determinism::kWallClock);
  wall->record(123);
  std::vector<Sample> det = reg.collect();
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0].name, "a.stable");
  std::vector<Sample> all = reg.collect(/*include_wall_clock=*/true);
  EXPECT_EQ(all.size(), 4u);  // stable + latency {count,max,sum}
  EXPECT_EQ(reg.value("a.latency_ns.max"), 123u);
}

TEST(Registry, ExposedAndComputedMetrics) {
  Registry reg;
  Counter owned_elsewhere;
  reg.expose_counter("x.ext", &owned_elsewhere);
  std::uint64_t depth = 17;
  reg.expose_value("x.depth", [&depth] { return depth; });
  owned_elsewhere += 9;
  EXPECT_EQ(reg.value("x.ext"), 9u);
  EXPECT_EQ(reg.value("x.depth"), 17u);
  depth = 3;
  EXPECT_EQ(reg.value("x.depth"), 3u);  // computed at collection time
  EXPECT_EQ(reg.value("x.absent"), std::nullopt);
}

TEST(Registry, LabeledFamilyNames) {
  EXPECT_EQ(Registry::labeled("net.msgs_sent", "type", "block"),
            "net.msgs_sent{type=block}");
}

// ---- ScopedTimer -----------------------------------------------------------

TEST(ScopedTimer, NullHistogramIsInertAndRecordsWhenSet) {
  { ScopedTimer inert(nullptr); }  // must not crash
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

// ---- JSON parser -------------------------------------------------------------

TEST(Json, ParsesObjectsArraysAndScalars) {
  const json::Value v = json::parse(
      R"({"name": "x\n", "n": 42, "neg": -1.5, "ok": true, )"
      R"("null": null, "arr": [1, 2, 3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "x\n");
  EXPECT_EQ(v.at("n").as_u64(), 42u);
  EXPECT_DOUBLE_EQ(v.at("neg").as_number(), -1.5);
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_TRUE(v.at("null").is_null());
  ASSERT_TRUE(v.at("arr").is_array());
  EXPECT_EQ(v.at("arr").size(), 3u);
  EXPECT_EQ(v.at("arr").at(2).as_u64(), 3u);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW((void)v.at("absent"), std::runtime_error);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("nul"), std::runtime_error);
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\rf";
  const json::Value v =
      json::parse("{\"k\": \"" + json::escape(nasty) + "\"}");
  EXPECT_EQ(v.at("k").as_string(), nasty);
}

}  // namespace
}  // namespace zendoo::obs

// ---- bench_merge: duplicate-name aggregation --------------------------------

namespace zendoo::bench {
namespace {

Record make(const std::string& name, long long iters, double real, double cpu,
            std::vector<std::pair<std::string, double>> counters = {}) {
  Record r;
  r.name = name;
  r.iterations = iters;
  r.real_time = real;
  r.cpu_time = cpu;
  r.time_unit = "ns";
  r.counters = std::move(counters);
  return r;
}

TEST(BenchMerge, DistinctNamesPassThroughInOrder) {
  const auto out = merge_records({make("b", 1, 10, 10), make("a", 1, 20, 20)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "b");  // first-appearance order, not sorted
  EXPECT_EQ(out[1].name, "a");
}

TEST(BenchMerge, DuplicatesMergeWithIterationWeightedMeans) {
  // Run 1: 100 iters at 10ns; run 2: 300 iters at 20ns.
  const auto out = merge_records({
      make("bm", 100, 10.0, 8.0, {{"events", 50.0}}),
      make("bm", 300, 20.0, 16.0, {{"events", 70.0}, {"extra", 4.0}}),
  });
  ASSERT_EQ(out.size(), 1u);
  const Record& r = out[0];
  EXPECT_EQ(r.iterations, 400);
  EXPECT_DOUBLE_EQ(r.real_time, (10.0 * 100 + 20.0 * 300) / 400);
  EXPECT_DOUBLE_EQ(r.cpu_time, (8.0 * 100 + 16.0 * 300) / 400);
  ASSERT_EQ(r.counters.size(), 2u);
  EXPECT_EQ(r.counters[0].first, "events");
  EXPECT_DOUBLE_EQ(r.counters[0].second, (50.0 * 100 + 70.0 * 300) / 400);
  // "extra" missing from run 1 contributes 0 for run 1's weight.
  EXPECT_EQ(r.counters[1].first, "extra");
  EXPECT_DOUBLE_EQ(r.counters[1].second, (0.0 * 100 + 4.0 * 300) / 400);
}

TEST(BenchMerge, MismatchedTimeUnitsThrow) {
  Record us = make("bm", 1, 1, 1);
  us.time_unit = "us";
  EXPECT_THROW(merge_records({make("bm", 1, 1, 1), us}), std::runtime_error);
}

}  // namespace
}  // namespace zendoo::bench
