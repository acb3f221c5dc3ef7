// Tests for the execution layer: task-execution guarantees of
// WorkStealingPool/TaskGroup (every spawned task runs exactly once,
// whoever spawns it; nested groups make progress even on a one-worker
// pool; no wakeup is lost) and trace-context propagation across
// workers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/work_stealing_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace olapdc {
namespace exec {
namespace {

TEST(WorkStealingPoolTest, RunsEveryTaskExactlyOnce) {
  WorkStealingPool pool(4);
  constexpr int kTasks = 2000;
  std::vector<std::atomic<int>> runs(kTasks);
  {
    TaskGroup group(&pool);
    for (int i = 0; i < kTasks; ++i) {
      group.Spawn([&runs, i] { runs[i].fetch_add(1); });
    }
    group.Wait();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_GE(pool.Stats().tasks_executed, static_cast<uint64_t>(kTasks));
}

TEST(WorkStealingPoolTest, WaitFromExternalThreadBlocksUntilDone) {
  WorkStealingPool pool(2);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Spawn([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 64);
}

// A task that spawns a child group and waits on it must not deadlock,
// even when the pool has a single worker: Wait() on a worker thread
// helps run queued tasks instead of blocking.
TEST(WorkStealingPoolTest, NestedGroupOnOneWorkerPoolDoesNotDeadlock) {
  WorkStealingPool pool(1);
  std::atomic<int> inner_runs{0};
  {
    TaskGroup outer(&pool);
    for (int i = 0; i < 8; ++i) {
      outer.Spawn([&pool, &inner_runs] {
        TaskGroup inner(&pool);
        for (int j = 0; j < 4; ++j) {
          inner.Spawn([&inner_runs] { inner_runs.fetch_add(1); });
        }
        inner.Wait();
      });
    }
    outer.Wait();
  }
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(WorkStealingPoolTest, CurrentWorkerIdOnlyInsideTasks) {
  EXPECT_EQ(WorkStealingPool::CurrentWorkerId(), -1);
  WorkStealingPool pool(2);
  std::atomic<int> in_range{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.Spawn([&] {
      int id = WorkStealingPool::CurrentWorkerId();
      if (id >= 0 && id < pool.num_threads()) in_range.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(in_range.load(), 32);
}

// Slow tasks spawned by one worker: with more idle workers than
// producers, the others pick up the spawner's tasks, and each such
// task counts as a steal.
TEST(WorkStealingPoolTest, StealsHappenUnderImbalance) {
  WorkStealingPool pool(4);
  std::atomic<int> done{0};
  {
    TaskGroup group(&pool);
    group.Spawn([&] {
      // All 128 children come from this one worker.
      for (int i = 0; i < 128; ++i) {
        group.Spawn([&done] {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          done.fetch_add(1);
        });
      }
    });
    group.Wait();
  }
  EXPECT_EQ(done.load(), 128);
  EXPECT_GT(pool.Stats().steals, 0u);
}

// Pool tasks spawn children into one group while two external threads
// spawn into the same group: every task runs exactly once.
TEST(WorkStealingPoolTest, RunsEveryTaskExactlyOnceUnderMixedProducers) {
  WorkStealingPool pool(4);
  static constexpr int kParents = 1000;  // per external thread
  static constexpr int kChildren = 4;    // per parent, spawned inside the pool
  constexpr int kPerThread = kParents * (1 + kChildren);
  std::vector<std::atomic<int>> runs(2 * kPerThread);
  TaskGroup group(&pool);
  auto produce = [&](int thread) {
    for (int p = 0; p < kParents; ++p) {
      const int parent = thread * kPerThread + p * (1 + kChildren);
      group.Spawn([&runs, &group, parent] {
        runs[parent].fetch_add(1);
        for (int c = 1; c <= kChildren; ++c) {
          group.Spawn([&runs, child = parent + c] {
            runs[child].fetch_add(1);
          });
        }
      });
    }
  };
  std::thread first(produce, 0);
  std::thread second(produce, 1);
  first.join();
  second.join();
  group.Wait();
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

// Every round hands one task to parked workers and waits for it. The
// pool has no timed wakeup, so one missed notify hangs this test.
TEST(WorkStealingPoolTest, NoLostWakeup) {
  WorkStealingPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let both park
  constexpr int kRounds = 10000;
  int ran = 0;
  for (int round = 0; round < kRounds; ++round) {
    TaskGroup group(&pool);
    group.Spawn([&ran] { ++ran; });
    group.Wait();
  }
  EXPECT_EQ(ran, kRounds);
}

TEST(WorkStealingPoolTest, ProcessPoolIsSharedAndSized) {
  WorkStealingPool& a = ProcessPool();
  WorkStealingPool& b = ProcessPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
}

// OLAPDC_THREADS obeys the one thread ceiling: 256 is a pool size,
// 257 is ignored like any other invalid value. (gtest runs this
// binary's tests one at a time, and nothing else reads the variable
// while this one sets it.)
TEST(WorkStealingPoolTest, EnvThreadCountParsesPositiveIntegers) {
  const char* saved = std::getenv("OLAPDC_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const std::pair<const char*, int> cases[] = {
      {"1", 1}, {"256", 256}, {"257", 0}, {"0", 0}, {"4x", 0}, {"", 0}};
  for (const auto& [text, expected] : cases) {
    ::setenv("OLAPDC_THREADS", text, /*overwrite=*/1);
    EXPECT_EQ(EnvThreadCount(), expected) << "'" << text << "'";
  }
  if (saved != nullptr) {
    ::setenv("OLAPDC_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("OLAPDC_THREADS");
  }
  EXPECT_EQ(kMaxThreads, 256);
}

// ---------------------------------------------------------------------------
// Migration-safe trace propagation (obs/span.h contract): the
// TraceContext captured at Spawn() must be reinstalled on whichever
// thread executes the task, so a span opened inside the task parents
// to the spawner's open span — identically whether the task ran on its
// spawner, was spawned by an external thread, or was picked up by
// another worker.

class TracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(obs::TraceSink::Global().Open(path_));
  }
  void TearDown() override {
    obs::TraceSink::Global().Close();
    std::remove(path_.c_str());
  }

 private:
  const std::string path_ =
      ::testing::TempDir() + "/exec_test_trace_propagation.jsonl";
};

// An external thread's task runs on a worker, which is by definition
// not the submitter.
TEST_F(TracePropagationTest, ParentageSurvivesExternalSubmit) {
  WorkStealingPool pool(2);
  uint64_t outer_id = 0;
  uint64_t child_parent = 0;
  bool child_stolen = false;
  {
    obs::ObsSpan outer("test.external_outer");
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    TaskGroup group(&pool);
    group.Spawn([&] {
      child_stolen = WorkStealingPool::CurrentTaskStolen();
      obs::ObsSpan child("test.external_child");
      child_parent = child.parent();
    });
    group.Wait();
  }
  EXPECT_TRUE(child_stolen);  // an external spawn counts as a migration
  EXPECT_EQ(child_parent, outer_id);
}

// Deterministic forced steal: on a two-worker pool the spawning worker
// queues the child and then spin-waits *without helping*, so the only
// way the child can run is on the other worker. A naive per-thread
// nesting stack would give the child no parent here; explicit
// TraceContext propagation keeps outer -> child.
TEST_F(TracePropagationTest, ParentageSurvivesForcedSteal) {
  WorkStealingPool pool(2);
  std::atomic<bool> child_done{false};
  std::atomic<uint64_t> outer_id{0};
  std::atomic<uint64_t> child_parent{0};
  std::atomic<bool> child_stolen{false};
  {
    TaskGroup group(&pool);
    group.Spawn([&] {
      obs::ObsSpan outer("test.steal_outer");
      outer_id.store(outer.id());
      group.Spawn([&] {
        child_stolen.store(WorkStealingPool::CurrentTaskStolen());
        obs::ObsSpan child("test.steal_child");
        child_parent.store(child.parent());
        child_done.store(true);
      });
      // Busy-wait without running queued tasks: forces the other worker
      // to take the child. Bounded only by the test timeout.
      while (!child_done.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    group.Wait();
  }
  EXPECT_TRUE(child_stolen.load());
  EXPECT_NE(outer_id.load(), 0u);
  EXPECT_EQ(child_parent.load(), outer_id.load());
}

// The unstolen control for the test above: on a one-worker pool the
// child runs on the spawning worker via help-while-waiting — and the
// parentage must come out the same.
TEST_F(TracePropagationTest, ParentageIdenticalWhenNotStolen) {
  WorkStealingPool pool(1);
  std::atomic<uint64_t> outer_id{0};
  std::atomic<uint64_t> child_parent{0};
  std::atomic<bool> child_stolen{true};
  {
    TaskGroup group(&pool);
    group.Spawn([&] {
      obs::ObsSpan outer("test.local_outer");
      outer_id.store(outer.id());
      TaskGroup inner(&pool);
      inner.Spawn([&] {
        child_stolen.store(WorkStealingPool::CurrentTaskStolen());
        obs::ObsSpan child("test.local_child");
        child_parent.store(child.parent());
      });
      inner.Wait();
    });
    group.Wait();
  }
  EXPECT_FALSE(child_stolen.load());
  EXPECT_NE(outer_id.load(), 0u);
  EXPECT_EQ(child_parent.load(), outer_id.load());
}

// After a task closes, its spans must not leak into whatever the worker
// runs next: the pool restores the worker's previous (empty) context.
TEST_F(TracePropagationTest, ContextDoesNotLeakAcrossTasks) {
  WorkStealingPool pool(1);
  std::atomic<uint64_t> second_parent{1};  // sentinel: must become 0
  {
    TaskGroup group(&pool);
    group.Spawn([&] { obs::ObsSpan span("test.first"); });
    group.Wait();
  }
  {
    TaskGroup group(&pool);
    group.Spawn([&] { second_parent.store(obs::CurrentTraceContext().span_id); });
    group.Wait();
  }
  EXPECT_EQ(second_parent.load(), 0u);
}

// Context reinstalls with a live parent span are counted under
// olapdc.exec.ctx_restores; tasks spawned with no open span are not.
TEST_F(TracePropagationTest, ContextRestoresAreCounted) {
  obs::MetricsRegistry::Global().Reset();
  obs::MetricsRegistry::Global().Enable();
  WorkStealingPool pool(2);
  {
    TaskGroup group(&pool);
    group.Spawn([] {});  // no open span at spawn: not a restore
    group.Wait();
  }
  {
    obs::ObsSpan outer("test.counted_outer");
    TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) group.Spawn([] {});
    group.Wait();
  }
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  obs::MetricsRegistry::Global().Disable();
  obs::MetricsRegistry::Global().Reset();
  EXPECT_EQ(snapshot.counter("olapdc.exec.ctx_restores"), 4u);
}

}  // namespace
}  // namespace exec
}  // namespace olapdc
