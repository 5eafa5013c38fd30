// Metrics-registry tests (DESIGN.md §9): concurrent recording must be
// exact, not approximately right — counters and integer-valued gauge/
// histogram sums have no legitimate reason to drop updates. The concurrent
// cases double as the tsan workload for the atomic hot paths
// (tools/run_checks.sh --tsan).

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tests/testing_util.h"

namespace atune {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kPerThread = 10000;

TEST(MetricsTest, CounterConcurrentIncrementsAreExact) {
  Counter counter;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (size_t t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&counter]() {
        for (size_t i = 0; i < kPerThread; ++i) counter.Increment();
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeConcurrentAddsAreExact) {
  // Integer-valued doubles up to 2^53 add exactly, so the CAS loop must
  // account for every one of the N*M increments.
  Gauge gauge;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (size_t t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&gauge]() {
        for (size_t i = 0; i < kPerThread; ++i) gauge.Add(1.0);
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(gauge.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsTest, GaugeSetOverwrites) {
  Gauge gauge;
  gauge.Add(5.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
}

TEST(MetricsTest, HistogramConcurrentRecordingIsExact) {
  // Each thread records the integers 1..8; count, sum, min and max are all
  // exactly determined regardless of interleaving.
  Histogram hist;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (size_t t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&hist]() {
        for (size_t i = 0; i < kPerThread; ++i) {
          hist.Record(static_cast<double>(i % 8 + 1));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Per thread: kPerThread/8 full cycles of 1+2+...+8 = 36.
  EXPECT_EQ(snap.sum, static_cast<double>(kThreads * (kPerThread / 8) * 36));
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 8.0);
  uint64_t in_buckets = 0;
  for (uint64_t c : snap.buckets) in_buckets += c;
  EXPECT_EQ(in_buckets, snap.count);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram hist;
  // Bucket i covers [2^(i-20), 2^(i-20+1)): 0.75 lands in [0.5, 1) = 19,
  // 1.0 in [1, 2) = 20, 3.0 in [2, 4) = 21.
  hist.Record(0.75);
  hist.Record(1.0);
  hist.Record(3.0);
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.buckets[19], 1u);
  EXPECT_EQ(snap.buckets[20], 1u);
  EXPECT_EQ(snap.buckets[21], 1u);
  EXPECT_EQ(Histogram::Snapshot::BucketBound(19), 1.0);
  EXPECT_EQ(Histogram::Snapshot::BucketBound(20), 2.0);
}

TEST(MetricsTest, HistogramNonPositiveValuesLandInBucketZero) {
  Histogram hist;
  hist.Record(0.0);
  hist.Record(-4.0);
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, -4.0);
  EXPECT_EQ(snap.max, 0.0);
}

TEST(MetricsTest, HistogramQuantilesClampToObservedExtremes) {
  Histogram hist;
  hist.Record(10.0);
  Histogram::Snapshot snap = hist.Snap();
  // With one sample, every quantile is that sample — the exact min/max
  // beat the bucket-edge interpolation.
  EXPECT_EQ(snap.Quantile(0.0), 10.0);
  EXPECT_EQ(snap.Quantile(0.5), 10.0);
  EXPECT_EQ(snap.Quantile(1.0), 10.0);
  EXPECT_EQ(snap.mean(), 10.0);
}

TEST(MetricsTest, EmptyHistogramSnapshotIsZeroes) {
  Histogram hist;
  Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("trial.total");
  Histogram* h1 = registry.GetHistogram("trial.latency_seconds");
  Gauge* g1 = registry.GetGauge("budget.used_units");
  // Same name, same pointer — call sites cache them and record lock-free.
  EXPECT_EQ(registry.GetCounter("trial.total"), c1);
  EXPECT_EQ(registry.GetHistogram("trial.latency_seconds"), h1);
  EXPECT_EQ(registry.GetGauge("budget.used_units"), g1);
}

TEST(MetricsTest, RegistryConcurrentGetAndRecord) {
  // Threads race registration of the same names against recording through
  // previously fetched pointers; the total must still be exact.
  MetricsRegistry registry;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (size_t t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&registry]() {
        Counter* counter = registry.GetCounter("shared.counter");
        Histogram* hist = registry.GetHistogram("shared.hist");
        for (size_t i = 0; i < kPerThread; ++i) {
          counter->Increment();
          hist->Record(1.0);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "shared.counter");
  EXPECT_EQ(snap.entries[0].count, kThreads * kPerThread);
  EXPECT_EQ(snap.entries[1].name, "shared.hist");
  EXPECT_EQ(snap.entries[1].count, kThreads * kPerThread);
  EXPECT_EQ(snap.entries[1].sum, static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsTest, SnapshotIsSortedByNameWithStableJson) {
  MetricsRegistry registry;
  registry.GetGauge("zz.gauge")->Set(1.5);
  registry.GetCounter("aa.counter")->Increment(3);
  registry.GetHistogram("mm.hist")->Record(2.0);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "aa.counter");
  EXPECT_EQ(snap.entries[1].name, "mm.hist");
  EXPECT_EQ(snap.entries[2].name, "zz.gauge");
  const std::string json = snap.ToJson();
  EXPECT_EQ(json,
            "{\n"
            "  \"aa.counter\": {\"kind\": \"counter\", \"count\": 3},\n"
            "  \"mm.hist\": {\"kind\": \"histogram\", \"count\": 1, "
            "\"sum\": 2, \"min\": 2, \"max\": 2, \"mean\": 2, "
            "\"p50\": 2, \"p90\": 2, \"p99\": 2},\n"
            "  \"zz.gauge\": {\"kind\": \"gauge\", \"value\": 1.5}\n"
            "}\n");
  const std::string table = snap.SummaryTable();
  EXPECT_NE(table.find("aa.counter"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
}

TEST(MetricsTest, PublishJsonWritesSnapshotAtomically) {
  MetricsRegistry registry;
  registry.GetCounter("published.counter")->Increment(7);
  const std::string path = testing_util::TestTempPath("metrics.json");
  std::remove(path.c_str());
  ASSERT_TRUE(registry.PublishJson(path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents, registry.Snapshot().ToJson());
  std::remove(path.c_str());
}

TEST(MetricsTest, ScopedMetricsInstallNullKeepsCurrent) {
  MetricsRegistry registry;
  ScopedMetricsInstall outer(&registry);
  EXPECT_EQ(CurrentMetrics(), &registry);
  {
    ScopedMetricsInstall inner(nullptr);
    EXPECT_EQ(CurrentMetrics(), &registry);
  }
  EXPECT_EQ(CurrentMetrics(), &registry);
}

}  // namespace
}  // namespace atune
