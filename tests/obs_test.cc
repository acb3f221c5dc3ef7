// Tests for the observability substrate: MetricsRegistry counters /
// gauges / histograms (including bucket-edge behavior and concurrent
// increments across threads), the disabled no-op guarantee, and the
// ObsSpan / TraceSink JSONL span stream.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace olapdc {
namespace obs {
namespace {

/// The registry and sink are process-global; every test starts from a
/// clean enabled registry and leaves both disabled and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().Enable();
  }
  void TearDown() override {
    MetricsRegistry::Global().Disable();
    MetricsRegistry::Global().Reset();
    TraceSink::Global().Close();
  }
};

TEST_F(ObsTest, CountersAccumulate) {
  Count("olapdc.test.a");
  Count("olapdc.test.a", 4);
  Count("olapdc.test.b", 0);  // zero delta still creates the entry
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.test.a"), 5u);
  EXPECT_EQ(snapshot.counter("olapdc.test.b"), 0u);
  EXPECT_EQ(snapshot.counters.count("olapdc.test.b"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.test.absent"), 0u);
  EXPECT_EQ(snapshot.counters.count("olapdc.test.absent"), 0u);
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  MetricsRegistry::Global().Disable();
  Count("olapdc.test.off");
  Gauge("olapdc.test.off_gauge", 7);
  LatencyUs("olapdc.test.off_hist", 3.0);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST_F(ObsTest, GaugesAreLastWriteWins) {
  Gauge("olapdc.test.g", 3);
  Gauge("olapdc.test.g", -2);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snapshot.gauges.count("olapdc.test.g"), 1u);
  EXPECT_EQ(snapshot.gauges.at("olapdc.test.g"), -2);
}

TEST_F(ObsTest, ResetClearsEverything) {
  Count("olapdc.test.a");
  Gauge("olapdc.test.g", 1);
  LatencyUs("olapdc.test.h", 10.0);
  MetricsRegistry::Global().Reset();
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  EXPECT_TRUE(MetricsRegistry::Global().enabled());  // Reset keeps the switch
}

TEST_F(ObsTest, HistogramBucketing) {
  // A sample equal to a bucket's upper bound lands in that bucket
  // (bounds are inclusive); anything past the last bound lands in the
  // overflow bucket.
  LatencyUs("olapdc.test.h", 1.0);       // bucket 0 (le 1)
  LatencyUs("olapdc.test.h", 1.5);       // bucket 1 (le 2)
  LatencyUs("olapdc.test.h", 2.0);       // bucket 1
  LatencyUs("olapdc.test.h", 999.0);     // bucket 9 (le 1000)
  LatencyUs("olapdc.test.h", 2e6);       // overflow
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snapshot.histograms.count("olapdc.test.h"), 1u);
  const HistogramSnapshot& h = snapshot.histograms.at("olapdc.test.h");
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum_us, 1.0 + 1.5 + 2.0 + 999.0 + 2e6);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[9], 1u);
  EXPECT_EQ(h.buckets[kNumLatencyBuckets - 1], 1u);
  uint64_t total = 0;
  for (uint64_t b : h.buckets) total += b;
  EXPECT_EQ(total, h.count);
}

TEST_F(ObsTest, ConcurrentIncrementsMergeExactly) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) {
        Count("olapdc.test.concurrent");
        if (i % 100 == 0) LatencyUs("olapdc.test.concurrent_h", 5.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.test.concurrent"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snapshot.histograms.at("olapdc.test.concurrent_h").count,
            static_cast<uint64_t>(kThreads) * (kIncrements / 100));
}

TEST_F(ObsTest, SnapshotJsonHasAllSections) {
  Count("olapdc.test.a", 3);
  Gauge("olapdc.test.g", 9);
  LatencyUs("olapdc.test.h", 42.0);
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"olapdc.test.a\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"olapdc.test.g\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le_us\": \"inf\""), std::string::npos);
}

TEST(JsonTest, EscapesAndNumbers) {
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonNumber(12), "12");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  // Non-finite values are not representable in JSON; masking them as a
  // finite value would hide a poisoned histogram, so they render null.
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST_F(ObsTest, NonFiniteJsonNumbersAreCounted) {
  (void)JsonNumber(std::nan(""));
  (void)JsonNumber(std::numeric_limits<double>::infinity());
  (void)JsonNumber(1.0);  // finite: not counted
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.obs.json_nonfinite"), 2u);
}

TEST_F(ObsTest, SpanInactiveWhenSinkClosed) {
  ObsSpan span("test.noop");
  EXPECT_FALSE(span.active());
  span.AddStat("ignored", 1);  // must not crash or allocate stats
}

TEST_F(ObsTest, SpansEmitJsonlWithNestingDepth) {
  const std::string path = ::testing::TempDir() + "/obs_test_trace.jsonl";
  ASSERT_TRUE(TraceSink::Global().Open(path));
  {
    ObsSpan outer("test.outer");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(outer.depth(), 0);
    outer.AddStat("answer", static_cast<uint64_t>(42));
    outer.AddStat("label", "hello \"quoted\"");
    outer.AddStat("flag", true);
    {
      ObsSpan inner("test.inner");
      EXPECT_EQ(inner.depth(), 1);
    }
  }
  TraceSink::Global().Close();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Inner closes (and is emitted) first.
  EXPECT_NE(lines[0].find("\"name\": \"test.inner\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"depth\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\": \"test.outer\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"depth\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(lines[1].find("\"label\": \"hello \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"flag\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"dur_us\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, SinkOpenFailsOnBadPath) {
  EXPECT_FALSE(TraceSink::Global().Open("/nonexistent-dir/x/y/trace.jsonl"));
  EXPECT_FALSE(TraceSink::Global().enabled());
}

TEST_F(ObsTest, SpanIdsAndParentageFollowNesting) {
  const std::string path = ::testing::TempDir() + "/obs_test_ids.jsonl";
  ASSERT_TRUE(TraceSink::Global().Open(path));
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  uint64_t inner_parent = 0;
  {
    ObsSpan outer("test.outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(outer.parent(), 0u);  // root of its strand
    EXPECT_EQ(CurrentTraceContext().span_id, outer_id);
    EXPECT_EQ(CurrentTraceContext().depth, 1);
    {
      ObsSpan inner("test.inner");
      inner_id = inner.id();
      inner_parent = inner.parent();
    }
    // Closing the inner span restores the outer context.
    EXPECT_EQ(CurrentTraceContext().span_id, outer_id);
  }
  EXPECT_EQ(CurrentTraceContext().span_id, 0u);
  EXPECT_EQ(inner_parent, outer_id);
  EXPECT_NE(inner_id, outer_id);
  TraceSink::Global().Close();

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": " + std::to_string(inner_id)),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"parent\": " + std::to_string(outer_id)),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"parent\": 0"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ScopedTraceContextInstallsAndRestores) {
  const std::string path = ::testing::TempDir() + "/obs_test_ctx.jsonl";
  ASSERT_TRUE(TraceSink::Global().Open(path));
  TraceContext captured;
  {
    ObsSpan outer("test.outer");
    captured = CurrentTraceContext();
  }
  // The outer span is closed; reinstalling its captured context makes a
  // new span parent to it anyway (what the pool does after a steal).
  {
    ScopedTraceContext restore(captured);
    ObsSpan child("test.child");
    EXPECT_EQ(child.parent(), captured.span_id);
    EXPECT_EQ(child.depth(), captured.depth);
  }
  EXPECT_EQ(CurrentTraceContext().span_id, 0u);
  TraceSink::Global().Close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace olapdc
