// Tests for the live telemetry plane: Prometheus text exposition
// (name mapping, value rendering, the cumulative-bucket golden),
// the TelemetryServer endpoints (routed via Handle() and over a real
// loopback socket), and the SearchTreeRecorder explain stream —
// including the cross-check that the drained event counts agree
// exactly with DimsatStats on the paper's location example.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dimsat.h"
#include "core/location_example.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/search_tree.h"
#include "obs/span.h"
#include "obs/telemetry_server.h"
#include "tests/test_util.h"

namespace olapdc {
namespace obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().Enable();
  }
  void TearDown() override {
    MetricsRegistry::Global().Disable();
    MetricsRegistry::Global().Reset();
    TraceSink::Global().Close();
    SearchTreeRecorder::Global().Disable();
  }
};

// ---------------------------------------------------------------------------
// Prometheus exposition primitives.

TEST(PrometheusNameTest, MapsDotsAndInvalidCharacters) {
  EXPECT_EQ(PrometheusName("olapdc.dimsat.expand_calls"),
            "olapdc_dimsat_expand_calls");
  EXPECT_EQ(PrometheusName("a-b c.d"), "a_b_c_d");
  EXPECT_EQ(PrometheusName("ns:sub"), "ns:sub");  // colon is legal
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");  // no leading digit
}

TEST(PrometheusLabelEscapeTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(PrometheusLabelEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(PrometheusLabelEscape("plain"), "plain");
}

TEST(PrometheusValueTest, RendersFiniteAndNonFinite) {
  EXPECT_EQ(PrometheusValue(0), "0");
  EXPECT_EQ(PrometheusValue(10), "10");
  EXPECT_EQ(PrometheusValue(1000000), "1000000");
  EXPECT_EQ(PrometheusValue(-3), "-3");
  EXPECT_EQ(PrometheusValue(0.5), "0.5");
  EXPECT_EQ(PrometheusValue(123.5), "123.5");
  // Non-finite values are representable in the text format (unlike the
  // JSON path, which nulls them out).
  EXPECT_EQ(PrometheusValue(std::nan("")), "NaN");
  EXPECT_EQ(PrometheusValue(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(PrometheusValue(-std::numeric_limits<double>::infinity()), "-Inf");
}

// Exact-text golden over a hand-built snapshot: counter and gauge
// families with # TYPE lines, and a histogram rendered with
// *cumulative* buckets ending at le="+Inf" == _count, plus _sum.
TEST(PrometheusRenderTest, GoldenExposition) {
  MetricsSnapshot snapshot;
  snapshot.counters["olapdc.dimsat.runs"] = 3;
  snapshot.gauges["olapdc.exec.pool_size"] = 4;
  HistogramSnapshot histogram;
  histogram.count = 3;
  histogram.sum_us = 123.5;
  histogram.buckets[0] = 1;                       // sample <= 1us
  histogram.buckets[2] = 1;                       // sample <= 5us
  histogram.buckets[kNumLatencyBuckets - 1] = 1;  // overflow sample
  snapshot.histograms["olapdc.test.latency_us"] = histogram;

  const std::string expected =
      "# TYPE olapdc_dimsat_runs counter\n"
      "olapdc_dimsat_runs 3\n"
      "# TYPE olapdc_exec_pool_size gauge\n"
      "olapdc_exec_pool_size 4\n"
      "# TYPE olapdc_test_latency_us histogram\n"
      "olapdc_test_latency_us_bucket{le=\"1\"} 1\n"
      "olapdc_test_latency_us_bucket{le=\"2\"} 1\n"
      "olapdc_test_latency_us_bucket{le=\"5\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"10\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"20\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"50\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"100\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"200\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"500\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"1000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"2000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"5000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"10000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"100000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"1000000\"} 2\n"
      "olapdc_test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "olapdc_test_latency_us_sum 123.5\n"
      "olapdc_test_latency_us_count 3\n";
  EXPECT_EQ(RenderPrometheusText(snapshot), expected);
}

// The live registry path: a recorded latency sample must surface with
// a consistent bucket/count/sum family.
TEST_F(TelemetryTest, LiveRegistryRendersHistogramConsistently) {
  Count("olapdc.test.hits", 2);
  LatencyUs("olapdc.test.wait_us", 3.0);
  const std::string text =
      RenderPrometheusText(MetricsRegistry::Global().Snapshot());
  EXPECT_NE(text.find("olapdc_test_hits 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE olapdc_test_wait_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("olapdc_test_wait_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("olapdc_test_wait_us_count 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryServer routing (Handle() is the transport-free core).

TEST_F(TelemetryTest, HandleRoutesMetricsVarzAndIndex) {
  Count("olapdc.test.routed");
  TelemetryServer server;
  TelemetryServer::Response metrics = server.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("olapdc_test_routed 1\n"), std::string::npos);

  TelemetryServer::Response varz = server.Handle("/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.content_type, "application/json");
  EXPECT_NE(varz.body.find("\"olapdc.test.routed\""), std::string::npos);

  EXPECT_EQ(server.Handle("/").status, 200);
  EXPECT_EQ(server.Handle("/nope").status, 404);
}

TEST_F(TelemetryTest, HealthzReflectsInjectedProbe) {
  TelemetryServer healthy;  // no probe: unconditionally ok
  EXPECT_EQ(healthy.Handle("/healthz").status, 200);
  EXPECT_EQ(healthy.Handle("/healthz").body, "ok\n");

  // A degrading probe (what the CLI builds over AdmissionGate /
  // MemoryBudget) must flip the endpoint to 503 with its detail.
  std::atomic<bool> shedding{false};
  TelemetryServer server;
  TelemetryServer::Options options;
  options.port = 0;
  options.health = [&shedding] {
    HealthReport report;
    report.ok = !shedding.load();
    report.detail = "admission: in_flight=9 high_water=8\n";
    return report;
  };
  ASSERT_TRUE(server.Start(options)) << server.last_error();
  EXPECT_EQ(server.Handle("/healthz").status, 200);
  shedding.store(true);
  TelemetryServer::Response degraded = server.Handle("/healthz");
  EXPECT_EQ(degraded.status, 503);
  EXPECT_NE(degraded.body.find("degraded"), std::string::npos);
  EXPECT_NE(degraded.body.find("high_water=8"), std::string::npos);
  server.Stop();
}

TEST_F(TelemetryTest, TracezListsRecentSpans) {
  TraceSink::Global().EnableRing(8);
  { ObsSpan span("test.tracez_span"); }
  TelemetryServer server;
  TelemetryServer::Response tracez = server.Handle("/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_EQ(tracez.content_type, "application/json");
  EXPECT_NE(tracez.body.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(tracez.body.find("test.tracez_span"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryServer over a real loopback socket.

/// Minimal HTTP client: sends `request` to 127.0.0.1:`port` and
/// returns everything the server wrote back.
std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(TelemetryTest, ScrapeOverLoopbackSocket) {
  Count("olapdc.test.scraped", 7);
  TelemetryServer server;
  TelemetryServer::Options options;
  options.port = 0;  // ephemeral
  ASSERT_TRUE(server.Start(options)) << server.last_error();
  ASSERT_GT(server.port(), 0);

  const std::string response = RawRequest(
      server.port(), "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("olapdc_test_scraped 7\n"), std::string::npos);

  // Query strings are stripped before routing.
  const std::string with_query = RawRequest(
      server.port(), "GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);

  // GET only.
  const std::string post = RawRequest(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());

  // The server observes itself: the three requests above were counted.
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snapshot.counter("olapdc.http.requests"), 3u);
  auto it = snapshot.histograms.find("olapdc.http.scrape_latency_us");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_GE(it->second.count, 3u);
}

TEST_F(TelemetryTest, StartFailsOnPortInUse) {
  TelemetryServer first;
  TelemetryServer::Options options;
  options.port = 0;
  ASSERT_TRUE(first.Start(options));
  TelemetryServer second;
  TelemetryServer::Options clash;
  clash.port = first.port();
  EXPECT_FALSE(second.Start(clash));
  EXPECT_NE(second.last_error().find("bind"), std::string::npos);
  first.Stop();
}

TEST_F(TelemetryTest, HostilePeersAreBoundedAndCounted) {
  TelemetryServer server;
  TelemetryServer::Options options;
  options.port = 0;
  ASSERT_TRUE(server.Start(options)) << server.last_error();

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  // Oversized headers: the scrape plane caps total request bytes, so a
  // peer spraying header bytes gets 431, not unbounded buffering.
  const std::string oversized = RawRequest(
      server.port(),
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(32 * 1024, 'h') +
          "\r\n\r\n");
  EXPECT_NE(oversized.find("431"), std::string::npos) << oversized;

  // Garbage that never resembles HTTP is a clean 400.
  const std::string garbage = RawRequest(server.port(), "\x01\x02\x03\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;

  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.counter("olapdc.http.bad_requests"),
            before.counter("olapdc.http.bad_requests") + 2);

  // The server is still healthy for a legitimate scrape afterwards.
  const std::string scrape = RawRequest(
      server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(scrape.find("HTTP/1.1 200 OK"), std::string::npos) << scrape;
  server.Stop();
}

// ---------------------------------------------------------------------------
// SearchTreeRecorder: the explain event stream.

TEST_F(TelemetryTest, RecorderDrainsInDecisionOrder) {
  SearchTreeRecorder& recorder = SearchTreeRecorder::Global();
  recorder.Enable();
  for (int i = 0; i < 5; ++i) {
    ExplainEvent event;
    event.kind = ExplainEvent::Kind::kExpandBegin;
    event.depth = i;
    event.category = i;
    recorder.Record(event);
  }
  std::vector<ExplainEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[4].depth, 4);
  // Drain clears and publishes the counters.
  EXPECT_TRUE(recorder.Drain().empty());
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.explain.events"), 5u);
  EXPECT_EQ(snapshot.counter("olapdc.explain.dropped"), 0u);
  recorder.Disable();
}

TEST_F(TelemetryTest, RecorderBoundsMemoryAndCountsDrops) {
  SearchTreeRecorder& recorder = SearchTreeRecorder::Global();
  recorder.Enable(/*per_thread_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ExplainEvent event;
    event.kind = ExplainEvent::Kind::kDeadEnd;
    event.depth = i;
    recorder.Record(event);
  }
  EXPECT_EQ(recorder.dropped(), 6u);
  std::vector<ExplainEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 4u);
  // The ring keeps the newest decisions (the interesting tail).
  EXPECT_EQ(events.front().depth, 6);
  EXPECT_EQ(events.back().depth, 9);
  recorder.Disable();
}

TEST_F(TelemetryTest, RecorderDisabledRecordIsNoOp) {
  SearchTreeRecorder& recorder = SearchTreeRecorder::Global();
  ASSERT_FALSE(recorder.enabled());
  ExplainEvent event;
  event.kind = ExplainEvent::Kind::kCheckOk;
  recorder.Record(event);
  recorder.Enable();
  EXPECT_TRUE(recorder.Drain().empty());
  recorder.Disable();
}

TEST(ExplainRenderTest, ReportNamesEveryPruneRuleWithDepth) {
  std::vector<ExplainEvent> events;
  ExplainEvent expand;
  expand.kind = ExplainEvent::Kind::kExpandBegin;
  expand.depth = 0;
  expand.category = 0;
  expand.aux = 1;
  events.push_back(expand);
  for (ExplainEvent::Kind kind : {ExplainEvent::Kind::kPruneInto,
                                  ExplainEvent::Kind::kPruneShortcut,
                                  ExplainEvent::Kind::kPruneCycle}) {
    ExplainEvent prune;
    prune.kind = kind;
    prune.depth = 1;
    prune.category = 0;
    prune.edge_from = 0;
    prune.edge_to = 2;
    events.push_back(prune);
  }
  ExplainEvent edge;
  edge.kind = ExplainEvent::Kind::kEdge;
  edge.depth = 1;
  edge.edge_from = 0;
  edge.edge_to = 1;
  edge.aux = 2;
  events.push_back(edge);
  ExplainEvent nogood;
  nogood.kind = ExplainEvent::Kind::kPruneNogood;
  nogood.depth = 1;
  events.push_back(nogood);
  const std::vector<std::string> names = {"Store", "City", "Country"};
  const std::string report = RenderExplainReport(
      events, [&names](int id) { return names[static_cast<size_t>(id)]; });
  EXPECT_NE(report.find("  EDGE Store->City depth=1 |R|=2\n"),
            std::string::npos);
  EXPECT_NE(report.find("  PRUNE[nogood] depth=1\n"), std::string::npos);
  EXPECT_NE(report.find("EXPAND Store depth=0 expand_calls=1"),
            std::string::npos);
  EXPECT_NE(report.find("PRUNE[into] edge Store->Country depth=1"),
            std::string::npos);
  EXPECT_NE(report.find("PRUNE[Ss] edge Store->Country depth=1"),
            std::string::npos);
  EXPECT_NE(report.find("PRUNE[Sc] edge Store->Country depth=1"),
            std::string::npos);
  // Null resolver: ids render as "#<id>".
  const std::string anonymous = RenderExplainReport(events, nullptr);
  EXPECT_NE(anonymous.find("EXPAND #0"), std::string::npos);
}

// A node's g is the root plus the EDGE events on its path; |R| tags
// each child's edges, so a child that recorded nothing else does not
// merge into its sibling.
TEST(ExplainRenderTest, ReplayRebuildsEachNodesSubhierarchy) {
  std::vector<ExplainEvent> events;
  const auto add = [&events](ExplainEvent::Kind kind, int depth, int from,
                             int to, uint64_t aux) {
    ExplainEvent event;
    event.kind = kind;
    event.depth = depth;
    event.edge_from = from;
    event.edge_to = to;
    event.aux = aux;
    events.push_back(event);
  };
  using Kind = ExplainEvent::Kind;
  using Edges = std::vector<std::pair<int, int>>;
  add(Kind::kExpandBegin, 0, -1, -1, 1);  // root 0
  add(Kind::kEdge, 1, 0, 1, 1);           // child {0->1}: stopped at once
  add(Kind::kEdge, 1, 0, 1, 2);           // child {0->1, 0->2}
  add(Kind::kEdge, 1, 0, 2, 2);
  add(Kind::kExpandBegin, 1, -1, -1, 2);
  add(Kind::kEdge, 2, 1, 3, 1);
  add(Kind::kCheckOk, 2, -1, -1, 1);
  add(Kind::kExpandEnd, 1, -1, -1, 0);
  add(Kind::kEdge, 1, 0, 2, 1);           // child {0->2}
  add(Kind::kDeadEnd, 1, -1, -1, 0);
  add(Kind::kExpandEnd, 0, -1, -1, 0);

  SubhierarchyReplay g(0);
  std::vector<Edges> edges;
  std::vector<std::vector<int>> top;
  for (const ExplainEvent& event : events) {
    g.Apply(event);
    edges.push_back(g.Edges());
    top.push_back(g.Top());
  }
  EXPECT_EQ(edges[0], Edges{});
  EXPECT_EQ(top[0], std::vector<int>{0});
  EXPECT_EQ(edges[1], (Edges{{0, 1}}));
  EXPECT_EQ(edges[4], (Edges{{0, 1}, {0, 2}}));
  EXPECT_EQ(top[4], (std::vector<int>{1, 2}));
  EXPECT_EQ(edges[6], (Edges{{0, 1}, {0, 2}, {1, 3}}));
  EXPECT_EQ(top[6], (std::vector<int>{2, 3}));
  EXPECT_EQ(edges[7], (Edges{{0, 1}, {0, 2}}));
  EXPECT_EQ(edges[9], (Edges{{0, 2}}));
  EXPECT_EQ(top[9], std::vector<int>{2});
  EXPECT_EQ(edges[10], Edges{});
}

TEST(ExplainRenderTest, ChromeTraceBalancesBeginEndAndMarksInstants) {
  std::vector<ExplainEvent> events;
  ExplainEvent begin;
  begin.kind = ExplainEvent::Kind::kExpandBegin;
  begin.category = 1;
  events.push_back(begin);
  ExplainEvent prune;
  prune.kind = ExplainEvent::Kind::kPruneShortcut;
  prune.edge_from = 1;
  prune.edge_to = 2;
  events.push_back(prune);
  ExplainEvent end;
  end.kind = ExplainEvent::Kind::kExpandEnd;
  end.category = 1;
  events.push_back(end);
  const std::string json = RenderChromeTrace(events, nullptr);
  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);  // thread instant
}

// ---------------------------------------------------------------------------
// End to end: the explain stream of a real DIMSAT run on the paper's
// location schema must agree *exactly* with the search's own counters.

TEST_F(TelemetryTest, ExplainStreamMatchesDimsatStatsOnLocationExample) {
  std::optional<DimensionSchema> ds;
  ASSERT_OK_AND_ASSIGN(ds, LocationSchema());
  const CategoryId store = ds->hierarchy().FindCategory("Store");

  SearchTreeRecorder& recorder = SearchTreeRecorder::Global();
  recorder.Enable();
  DimsatResult result = EnumerateFrozenDimensions(*ds, store);
  std::vector<ExplainEvent> events = recorder.Drain();
  recorder.Disable();
  ASSERT_OK(result.status);
  ASSERT_EQ(result.frozen.size(), 4u);  // Figure 4
  ASSERT_FALSE(events.empty());

  std::map<ExplainEvent::Kind, uint64_t> count;
  uint64_t frozen_reported = 0;
  for (const ExplainEvent& event : events) {
    ++count[event.kind];
    if (event.kind == ExplainEvent::Kind::kCheckOk) {
      frozen_reported += event.aux;
    }
  }
  EXPECT_EQ(count[ExplainEvent::Kind::kPruneShortcut],
            result.stats.shortcut_prunes);
  EXPECT_EQ(count[ExplainEvent::Kind::kPruneCycle], result.stats.cycle_prunes);
  EXPECT_EQ(count[ExplainEvent::Kind::kDeadEnd], result.stats.dead_ends);
  EXPECT_EQ(count[ExplainEvent::Kind::kCheckOk] +
                count[ExplainEvent::Kind::kCheckFail],
            result.stats.check_calls);
  // Every non-leaf node brackets: begin/end balance, and together with
  // the CHECK leaves they account for every counted expansion.
  EXPECT_EQ(count[ExplainEvent::Kind::kExpandBegin],
            count[ExplainEvent::Kind::kExpandEnd]);
  EXPECT_EQ(count[ExplainEvent::Kind::kExpandBegin] + result.stats.check_calls,
            result.stats.expand_calls);
  EXPECT_EQ(frozen_reported, result.frozen.size());
  EXPECT_EQ(count[ExplainEvent::Kind::kBudgetStop], 0u);

  // The rendered report names the rules against real category names.
  const std::string report = RenderExplainReport(events, [&ds](int id) {
    return ds->hierarchy().CategoryName(static_cast<CategoryId>(id));
  });
  if (result.stats.shortcut_prunes > 0) {
    EXPECT_NE(report.find("PRUNE[Ss] edge "), std::string::npos);
  }
  EXPECT_NE(report.find("EXPAND "), std::string::npos);
  EXPECT_NE(report.find("CHECK(ok) frozen="), std::string::npos);
  EXPECT_NE(report.find("depth="), std::string::npos);

  // Figure 7 from the stream: in a sequential enumeration from every
  // category, the g rebuilt at each CHECK(ok) is, in order, the
  // subhierarchy of each frozen dimension that CHECK produced.
  for (CategoryId c = 0; c < ds->hierarchy().num_categories(); ++c) {
    if (c == ds->hierarchy().all()) continue;
    recorder.Enable();
    const DimsatResult run = EnumerateFrozenDimensions(*ds, c);
    const std::vector<ExplainEvent> stream = recorder.Drain();
    recorder.Disable();
    ASSERT_OK(run.status);
    const std::string name = ds->hierarchy().CategoryName(c);
    SubhierarchyReplay g(c);
    size_t next = 0;
    for (const ExplainEvent& event : stream) {
      g.Apply(event);
      if (event.kind != ExplainEvent::Kind::kCheckOk) continue;
      for (uint64_t k = 0; k < event.aux; ++k, ++next) {
        ASSERT_LT(next, run.frozen.size()) << name;
        EXPECT_EQ(g.Edges(), run.frozen[next].edges)
            << name << " frozen dimension " << next;
      }
    }
    EXPECT_EQ(next, run.frozen.size()) << name;
  }
}

// An explain run under a budget records the stop decision.
TEST_F(TelemetryTest, BudgetStopAppearsInExplainStream) {
  std::optional<DimensionSchema> ds;
  ASSERT_OK_AND_ASSIGN(ds, LocationSchema());
  const CategoryId store = ds->hierarchy().FindCategory("Store");

  SearchTreeRecorder& recorder = SearchTreeRecorder::Global();
  recorder.Enable();
  DimsatOptions options;
  options.max_expand_calls = 1;
  DimsatResult result = EnumerateFrozenDimensions(*ds, store, options);
  std::vector<ExplainEvent> events = recorder.Drain();
  recorder.Disable();
  EXPECT_FALSE(result.status.ok());

  bool saw_stop = false;
  for (const ExplainEvent& event : events) {
    if (event.kind == ExplainEvent::Kind::kBudgetStop) saw_stop = true;
  }
  EXPECT_TRUE(saw_stop);
}

}  // namespace
}  // namespace obs
}  // namespace olapdc
