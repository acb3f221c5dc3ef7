// Golden metrics test: runs DIMSAT on the paper's location schema with
// the registry enabled and asserts the exported olapdc.dimsat.*
// counters agree exactly with the DimsatStats the run returned — the
// flush-based instrumentation must neither drop nor double-count, and
// the per-rule pruning counters must always be present in the export
// (zero or not) so the metric inventory is stable across workloads.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/budget.h"
#include "common/memory_budget.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/search_tree.h"
#include "obs/telemetry_server.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

class MetricsGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ds_, LocationSchema());
    store_ = ds_->hierarchy().FindCategory("Store");
    obs::MetricsRegistry::Global().Reset();
    obs::MetricsRegistry::Global().Enable();
  }
  void TearDown() override {
    obs::MetricsRegistry::Global().Disable();
    obs::MetricsRegistry::Global().Reset();
  }

  std::optional<DimensionSchema> ds_;
  CategoryId store_;
};

TEST_F(MetricsGoldenTest, DimsatCountersMatchReturnedStats) {
  DimsatResult r = EnumerateFrozenDimensions(*ds_, store_);
  ASSERT_OK(r.status);
  ASSERT_EQ(r.frozen.size(), 4u);  // Figure 4: four frozen dimensions

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.runs"), 1u);
  EXPECT_GT(snapshot.counter("olapdc.dimsat.nodes_expanded"), 0u);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.nodes_expanded"),
            r.stats.expand_calls);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.check_calls"),
            r.stats.check_calls);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.structural_rejections"),
            r.stats.structural_rejections);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.assignments_tried"),
            r.stats.assignments_tried);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.prune.into"),
            r.stats.into_prunes);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.prune.shortcut"),
            r.stats.shortcut_prunes);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.prune.cycle"),
            r.stats.cycle_prunes);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.dead_ends"), r.stats.dead_ends);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.frozen_found"), 4u);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.budget_stops"), 0u);

  // The inventory is complete even when a rule never fired: all three
  // per-rule pruning counters exist as keys in the export.
  for (const char* name :
       {"olapdc.dimsat.prune.into", "olapdc.dimsat.prune.shortcut",
        "olapdc.dimsat.prune.cycle", "olapdc.dimsat.dead_ends",
        "olapdc.dimsat.budget_stops"}) {
    EXPECT_EQ(snapshot.counters.count(name), 1u) << name;
  }

  // One run, one latency sample.
  ASSERT_EQ(snapshot.histograms.count("olapdc.dimsat.latency_us"), 1u);
  EXPECT_EQ(snapshot.histograms.at("olapdc.dimsat.latency_us").count, 1u);
}

TEST_F(MetricsGoldenTest, PruningRulesFireOnTheLocationEnumeration) {
  // The location hierarchy has the City->Country shortcut edge next to
  // the City->Province/State->Country paths, so the full enumeration
  // must exercise the structural rules; DIMSAT surfaces that work
  // either as successor-level prunes (Ss/Sc) or as CHECK-level
  // structural rejections.
  DimsatResult r = EnumerateFrozenDimensions(*ds_, store_);
  ASSERT_OK(r.status);
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snapshot.counter("olapdc.dimsat.prune.shortcut") +
                snapshot.counter("olapdc.dimsat.prune.cycle") +
                snapshot.counter("olapdc.dimsat.structural_rejections"),
            0u);
}

TEST_F(MetricsGoldenTest, ParallelDimsatAndExecCountersFlow) {
  exec::WorkStealingPool pool(3);
  DimsatOptions options;
  options.enumerate_all = true;
  options.pool = &pool;
  options.num_threads = 3;
  DimsatResult r = RunDimsat(*ds_, store_, options);
  ASSERT_OK(r.status);
  ASSERT_EQ(r.frozen.size(), 4u);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  // The per-run worker stats exported to the registry agree with the
  // stats the run returned.
  EXPECT_GT(r.stats.parallel_tasks, 0u);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.parallel.tasks"),
            r.stats.parallel_tasks);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.parallel.steals"),
            r.stats.parallel_steals);
  // DIMSAT work counters still flow from the worker searches.
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.nodes_expanded"),
            r.stats.expand_calls);

  // The olapdc.exec.* inventory is stable: all pool counters exist as
  // keys (zero or not) whenever an observed parallel run used the pool.
  for (const char* name :
       {"olapdc.exec.tasks_executed", "olapdc.exec.steals"}) {
    EXPECT_EQ(snapshot.counters.count(name), 1u) << name;
  }
  EXPECT_GT(snapshot.counter("olapdc.exec.tasks_executed"), 0u);
  ASSERT_EQ(snapshot.gauges.count("olapdc.exec.pool_size"), 1u);
  EXPECT_EQ(snapshot.gauges.at("olapdc.exec.pool_size"), 3);
}

TEST_F(MetricsGoldenTest, MemoryAccountingCountersBalance) {
  MemoryBudget memory(1 << 20);
  Budget budget;
  budget.SetMemory(&memory);
  DimsatOptions options;
  options.enumerate_all = true;
  options.budget = &budget;
  DimsatResult r = RunDimsat(*ds_, store_, options);
  ASSERT_OK(r.status);
  memory.PublishGauges();

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  // Every reserved byte of the finished request was released — the
  // quiescence invariant the chaos campaign asserts fleet-wide.
  EXPECT_GT(snapshot.counter("olapdc.mem.reserved_bytes"), 0u);
  EXPECT_EQ(snapshot.counter("olapdc.mem.reserved_bytes"),
            snapshot.counter("olapdc.mem.released_bytes"));
  EXPECT_EQ(snapshot.counter("olapdc.mem.exhausted"), 0u);
  ASSERT_EQ(snapshot.gauges.count("olapdc.mem.reserved_bytes_now"), 1u);
  EXPECT_EQ(snapshot.gauges.at("olapdc.mem.reserved_bytes_now"), 0);
  ASSERT_EQ(snapshot.gauges.count("olapdc.mem.peak_bytes"), 1u);
  EXPECT_EQ(snapshot.gauges.at("olapdc.mem.peak_bytes"),
            static_cast<int64_t>(memory.peak()));
}

TEST_F(MetricsGoldenTest, MemoryExhaustionCountsOnceAndClassifies) {
  MemoryBudget memory(512);
  Budget budget;
  budget.SetMemory(&memory);
  DimsatOptions options;
  options.enumerate_all = true;
  options.budget = &budget;
  options.budget_check_stride = 1;
  DimsatResult r = RunDimsat(*ds_, store_, options);
  ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted);

  // Any checker probing the shared Budget now classifies the trip as
  // memory pressure (with its per-site expiry counter), not a deadline.
  BudgetChecker checker(&budget, 1, "golden.site");
  EXPECT_EQ(checker.Check().code(), StatusCode::kResourceExhausted);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.mem.exhausted"), 1u);
  EXPECT_GE(snapshot.counter("olapdc.budget.memory_exhausted"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.budget.expired.golden.site"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.budget.deadline_exceeded"), 0u);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.budget_stops"), 1u);
}

TEST_F(MetricsGoldenTest, CheckpointAndResumeCountersFlow) {
  DimsatCheckpoint cp;
  DimsatOptions options;
  options.enumerate_all = true;
  options.max_expand_calls = 3;
  options.checkpoint = &cp;
  DimsatResult interrupted = RunDimsat(*ds_, store_, options);
  ASSERT_EQ(interrupted.status.code(), StatusCode::kResourceExhausted);
  ASSERT_FALSE(cp.empty());
  options.max_expand_calls = UINT64_MAX;
  DimsatResult resumed =
      ResumeDimsat(*ds_, store_, options, std::move(cp));
  ASSERT_OK(resumed.status);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.checkpoints"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.resumes"), 1u);
}

TEST_F(MetricsGoldenTest, AdmissionCountersMatchGateState) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/1, /*retry_after_ms=*/10});
  // One request admitted and finished, then one holding the only slot
  // while the next is shed.
  ASSERT_OK(gate.TryAdmit());
  gate.Release();
  ASSERT_OK(gate.TryAdmit());
  ASSERT_EQ(gate.TryAdmit().code(), StatusCode::kUnavailable);
  gate.Release();

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.exec.admitted"), gate.admitted());
  EXPECT_EQ(snapshot.counter("olapdc.exec.shed"), 1u);
  ASSERT_EQ(snapshot.gauges.count("olapdc.exec.in_flight"), 1u);
  EXPECT_EQ(snapshot.gauges.at("olapdc.exec.in_flight"), 0);
}

TEST_F(MetricsGoldenTest, TelemetryPlaneInventoryIsStable) {
  // The PR-5 metric families: the exposition server registers its
  // inventory on Start(), the pool registers ctx_restores with its
  // other names, and the explain recorder publishes on Drain().
  obs::TelemetryServer server;
  obs::TelemetryServer::Options server_options;
  server_options.port = 0;
  ASSERT_TRUE(server.Start(server_options)) << server.last_error();
  server.Stop();

  exec::WorkStealingPool pool(1);
  pool.PublishMetricNames();

  obs::SearchTreeRecorder::Global().Enable();
  (void)obs::SearchTreeRecorder::Global().Drain();
  obs::SearchTreeRecorder::Global().Disable();

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (const char* name :
       {"olapdc.http.requests", "olapdc.exec.ctx_restores",
        "olapdc.explain.events", "olapdc.explain.dropped"}) {
    EXPECT_EQ(snapshot.counters.count(name), 1u) << name;
  }
}

TEST_F(MetricsGoldenTest, PrometheusExpositionCoversEveryFamily) {
  // Every counter, gauge, and histogram in a real run's snapshot must
  // appear in the rendered exposition with its # TYPE line, and every
  // histogram family must close with le="+Inf" == _count.
  DimsatResult r = EnumerateFrozenDimensions(*ds_, store_);
  ASSERT_OK(r.status);
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string text = obs::RenderPrometheusText(snapshot);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = obs::PrometheusName(name);
    EXPECT_NE(text.find("# TYPE " + prom + " counter\n"), std::string::npos)
        << name;
    EXPECT_NE(text.find(prom + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << name;
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    const std::string prom = obs::PrometheusName(name);
    EXPECT_NE(text.find("# TYPE " + prom + " histogram\n"), std::string::npos)
        << name;
    EXPECT_NE(text.find(prom + "_bucket{le=\"+Inf\"} " +
                        std::to_string(histogram.count) + "\n"),
              std::string::npos)
        << name;
    EXPECT_NE(text.find(prom + "_count " + std::to_string(histogram.count) +
                        "\n"),
              std::string::npos)
        << name;
  }
  // The dot-to-underscore mapping is 1:1: the internal names never
  // collide after sanitization, so no family is silently merged.
  EXPECT_NE(text.find("olapdc_dimsat_prune_shortcut"), std::string::npos);
}

TEST_F(MetricsGoldenTest, ImplicationCountersFlow) {
  const HierarchySchema& schema = ds_->hierarchy();
  ASSERT_OK_AND_ASSIGN(
      ImplicationResult implied,
      Implies(*ds_, testing_util::ParseC(schema, "Store.Country")));
  EXPECT_TRUE(implied.implied);
  ASSERT_OK_AND_ASSIGN(
      ImplicationResult refuted,
      Implies(*ds_, testing_util::ParseC(schema, "Store.State")));
  EXPECT_FALSE(refuted.implied);
  EXPECT_TRUE(refuted.counterexample.has_value());
  Budget expired = Budget::WithDeadline(std::chrono::milliseconds(-1));
  DimsatOptions options;
  options.budget = &expired;
  ASSERT_OK_AND_ASSIGN(
      ImplicationResult unknown,
      Implies(*ds_, testing_util::ParseC(schema, "Store.Country"), options));
  EXPECT_EQ(unknown.status.code(), StatusCode::kDeadlineExceeded);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("olapdc.implication.queries"), 3u);
  EXPECT_EQ(snapshot.counter("olapdc.implication.implied"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.implication.not_implied"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.implication.counterexamples"), 1u);
  EXPECT_EQ(snapshot.counter("olapdc.implication.unknown"), 1u);
  // Each query ran DIMSAT underneath; its run counter flows too.
  EXPECT_EQ(snapshot.counter("olapdc.dimsat.runs"), 3u);
}

}  // namespace
}  // namespace olapdc
