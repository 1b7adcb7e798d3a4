#include "obs/metrics.h"

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace stratus {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncsPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
}

TEST(LatencyHistogramTest, ConcurrentRecordIsExact) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecordsPerThread; ++i)
        h.Record(static_cast<uint64_t>(t * kRecordsPerThread + i) % 1000);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kRecordsPerThread);
  EXPECT_EQ(h.MaxUs(), 999u);
  // Values are uniform over [0, 1000); the bucketed median must land in the
  // right power-of-two bucket ([256, 512)).
  EXPECT_GE(h.Percentile(50), 256.0);
  EXPECT_LE(h.Percentile(50), 512.0);
  EXPECT_LE(h.Percentile(99), 1000.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MaxUs(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(LatencyHistogramTest, HugeValuesLandInLastBucket) {
  LatencyHistogram h;
  h.Record(std::numeric_limits<uint64_t>::max());
  h.Record(1ull << 63);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.MaxUs(), std::numeric_limits<uint64_t>::max());
  h.Record(0);
  EXPECT_EQ(h.Count(), 3u);
}

TEST(MetricsRegistryTest, SameNameAndLabelsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops", {{"role", "primary"}});
  Counter* b = registry.GetCounter("ops", {{"role", "primary"}});
  EXPECT_EQ(a, b);
  // Label order must not matter (canonicalized by key).
  Counter* c = registry.GetCounter("ops", {{"x", "1"}, {"role", "primary"}});
  Counter* d = registry.GetCounter("ops", {{"role", "primary"}, {"x", "1"}});
  EXPECT_EQ(c, d);
  EXPECT_NE(a, c);
  // Different label values are different series.
  EXPECT_NE(a, registry.GetCounter("ops", {{"role", "standby"}}));
  EXPECT_EQ(registry.SeriesCount(), 3u);
}

TEST(MetricsRegistryTest, ConcurrentLookupAndRecord) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("shared_counter");
      LatencyHistogram* h = registry.GetHistogram("shared_hist");
      for (int i = 0; i < kOps; ++i) {
        c->Inc();
        h->Record(static_cast<uint64_t>(i) % 128);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared_counter")->Value(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(registry.GetHistogram("shared_hist")->Count(),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(registry.SeriesCount(), 2u);
}

TEST(MetricsRegistryTest, TextExportFormatAndStability) {
  MetricsRegistry registry;
  registry.GetCounter("stratus_ops", {{"role", "primary"}})->Inc(7);
  registry.GetGauge("stratus_depth")->Set(3);
  registry.GetHistogram("stratus_lat_us")->Record(10);

  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("stratus_ops{role=\"primary\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("stratus_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("stratus_lat_us_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("stratus_lat_us_sum_us 10\n"), std::string::npos);
  EXPECT_NE(text.find("stratus_lat_us_max_us 10\n"), std::string::npos);

  // With no recording in between, back-to-back exports are byte-identical
  // (sorted, deterministic rendering).
  EXPECT_EQ(text, registry.ExportText());
}

TEST(MetricsRegistryTest, TextExportLongHistogramNameNotTruncated) {
  MetricsRegistry registry;
  // A realistically long series: name + labels push each rendered line well
  // past any small fixed-size formatting buffer.
  const std::string name = "stratus_queryscn_staleness_us";
  const Labels labels = {{"db", "standby"},
                         {"instance", "standby_instance_long_name_1"},
                         {"cluster", "imadg_regression_cluster_west"}};
  registry.GetHistogram(name, labels)->Record(12345);

  const std::string text = registry.ExportText();
  const std::string rendered_labels =
      "{cluster=\"imadg_regression_cluster_west\",db=\"standby\","
      "instance=\"standby_instance_long_name_1\"}";
  for (const char* suffix :
       {"_count", "_sum_us", "_p50_us", "_p95_us", "_p99_us", "_max_us"}) {
    const size_t pos = text.find(name + suffix + rendered_labels + " ");
    ASSERT_NE(pos, std::string::npos) << "missing line for " << suffix;
    // Every line is complete: a value follows and the line is newline-ended.
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line for " << suffix;
  }
  EXPECT_NE(text.find(name + "_count" + rendered_labels + " 1\n"),
            std::string::npos);
  EXPECT_NE(text.find(name + "_sum_us" + rendered_labels + " 12345\n"),
            std::string::npos);
  EXPECT_NE(text.find(name + "_max_us" + rendered_labels + " 12345\n"),
            std::string::npos);
}

TEST(MetricsRegistryDeathTest, KindMismatchAborts) {
  MetricsRegistry registry;
  registry.GetCounter("stratus_dual_use", {{"role", "primary"}});
  EXPECT_DEATH(registry.GetGauge("stratus_dual_use", {{"role", "primary"}}),
               "different kind");
}

TEST(MetricsRegistryTest, JsonExportContainsSeries) {
  MetricsRegistry registry;
  registry.GetCounter("stratus_ops", {{"role", "standby"}})->Inc(5);
  registry.GetHistogram("stratus_lat_us")->Record(100);
  const std::string json = registry.ExportJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(
      json.find(
          "{\"name\":\"stratus_ops\",\"labels\":{\"role\":\"standby\"},"
          "\"type\":\"counter\",\"value\":5}"),
      std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExportEscapesControlCharacters) {
  MetricsRegistry registry;
  // A tab and a raw 0x01 byte in a label value must leave ExportJson as
  // JSON escapes; emitted raw they make the document invalid.
  registry.GetCounter("stratus_ops", {{"note", "a\tb\x01" "c"}})->Inc();
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"note\":\"a\\tb\\u0001c\""), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, CallbacksAddAndRemove) {
  MetricsRegistry registry;
  const uint64_t id = registry.AddCallback([](MetricsSink* sink) {
    sink->Counter("cb_counter", {{"src", "stats"}}, 11);
    sink->Gauge("cb_gauge", {}, 2.5);
  });
  EXPECT_EQ(registry.SeriesCount(), 2u);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("cb_counter{src=\"stats\"} 11\n"), std::string::npos);
  EXPECT_NE(text.find("cb_gauge 2.500\n"), std::string::npos);

  registry.RemoveCallback(id);
  EXPECT_EQ(registry.SeriesCount(), 0u);
  EXPECT_EQ(registry.ExportText().find("cb_counter"), std::string::npos);
}

TEST(MetricsRegistryTest, ScopedCallbackDetachesOnDestruction) {
  MetricsRegistry registry;
  {
    ScopedMetricsCallback cb(&registry, [](MetricsSink* sink) {
      sink->Counter("scoped_counter", {}, 1);
    });
    EXPECT_EQ(registry.SeriesCount(), 1u);
  }
  EXPECT_EQ(registry.SeriesCount(), 0u);

  // Attach replaces any previous registration.
  ScopedMetricsCallback cb;
  cb.Attach(&registry, [](MetricsSink* sink) { sink->Gauge("a", {}, 1); });
  cb.Attach(&registry, [](MetricsSink* sink) { sink->Gauge("b", {}, 2); });
  const std::string text = registry.ExportText();
  EXPECT_EQ(text.find("a "), std::string::npos);
  EXPECT_NE(text.find("b 2\n"), std::string::npos);
  cb.Reset();
  EXPECT_EQ(registry.SeriesCount(), 0u);
}

TEST(MetricsRegistryTest, ExportRacesRecordingSafely) {
  MetricsRegistry registry;
  // Create the series up front so every export below must render them (the
  // writers race only the recording, not series creation).
  for (int t = 0; t < 4; ++t)
    registry.GetCounter("race_ops", {{"t", std::to_string(t)}});
  registry.GetHistogram("race_lat");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      Counter* c =
          registry.GetCounter("race_ops", {{"t", std::to_string(t)}});
      LatencyHistogram* h = registry.GetHistogram("race_lat");
      while (!stop.load(std::memory_order_acquire)) {
        c->Inc();
        h->Record(5);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(registry.ExportText().empty());
    EXPECT_FALSE(registry.ExportJson().empty());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  EXPECT_EQ(registry.SeriesCount(), 5u);
}

}  // namespace
}  // namespace obs
}  // namespace stratus
