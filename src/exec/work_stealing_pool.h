// Thread pool: the execution layer under the parallel DIMSAT driver and
// the summarizability sweep (DESIGN.md §8). Every queued task sits on
// one mutex-guarded stack; idle workers park on one condition variable
// and pop the newest task, and so does a worker that helps while it
// waits on a TaskGroup. Newest-first keeps as few DIMSAT seeds queued
// as depth-first order does. The engine's tasks run for hundreds of
// microseconds each, so one lock per push and per pop costs nothing
// measurable end to end.
//
// Pool activity is exported under olapdc.exec.* in the metrics
// registry (docs/observability.md) and mirrored in cheap per-pool
// atomic counters for tests and benches.

#ifndef OLAPDC_EXEC_WORK_STEALING_POOL_H_
#define OLAPDC_EXEC_WORK_STEALING_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.h"

namespace olapdc::exec {

class WorkStealingPool;

/// Groups a batch of tasks so a caller can wait for all of them.
/// Spawn() may be called from any thread, including from inside a task
/// of the group (nested spawns extend the group). Wait() called on a
/// worker of the group's pool *helps*: it runs queued tasks until the
/// group drains, so nested parallelism — a task that itself spawns a
/// group and waits — cannot deadlock even on a one-worker pool. Any
/// other thread blocks.
class TaskGroup {
 public:
  explicit TaskGroup(WorkStealingPool* pool);
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Blocks until the group is drained (a TaskGroup must not die with
  /// tasks in flight).
  ~TaskGroup();

  void Spawn(std::function<void()> fn);
  void Wait();

 private:
  friend class WorkStealingPool;

  WorkStealingPool* const pool_;
  /// Spawned tasks not yet finished. Guarded by the pool's mutex.
  int64_t pending_ = 0;
  /// Signalled, under the pool's mutex, when pending_ drops to zero.
  std::condition_variable done_;
};

class WorkStealingPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit WorkStealingPool(int num_threads);
  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;
  /// Joins the workers; outstanding tasks that no worker picked up are
  /// freed without running (callers must Wait() their groups first).
  ~WorkStealingPool();

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// The calling thread's worker index in *some* pool, or -1 when the
  /// caller is not a pool worker.
  static int CurrentWorkerId();
  /// True while the calling thread is executing a task that a thread
  /// other than its submitter spawned: every task an external thread
  /// spawned, and a worker's task that another worker picked up.
  static bool CurrentTaskStolen();

  /// Lifetime totals, mirrored from the olapdc.exec.* metrics. `steals`
  /// counts tasks a worker spawned and another worker ran.
  struct StatsSnapshot {
    uint64_t tasks_executed = 0;
    uint64_t steals = 0;
  };
  StatsSnapshot Stats() const;

  /// Registers the olapdc.exec.* metric names (zero deltas) and the
  /// pool-size gauge with the global registry, so exported inventories
  /// are complete even before any task migrates. No-op when metrics are
  /// disabled.
  void PublishMetricNames() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
    int submitter;  // worker id of the spawning thread, -1 if external
    /// Span-parentage context captured at Spawn() and reinstalled
    /// around fn() on whichever worker executes it, so trace spans
    /// opened inside the task parent to the spawner's open span even
    /// after a migration (obs/span.h has the contract).
    obs::TraceContext context;
  };

  /// Pushes `task` and wakes one parked worker.
  void Submit(Task* task);
  /// With mu_ held and the stack non-empty: pops the newest task, runs
  /// it with mu_ released, and retires it under mu_ again.
  void RunNewest(std::unique_lock<std::mutex>& lock);
  void WorkerLoop(int id);
  void StopAndJoin();

  std::mutex mu_;
  /// Parked workers, and workers helping in TaskGroup::Wait, wait here
  /// for a push, for a group to drain, or for shutdown.
  std::condition_variable cv_;
  std::vector<Task*> stack_;  // guarded by mu_
  bool stop_ = false;         // guarded by mu_
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> steals_{0};
  /// Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

/// Lazily constructed process-wide pool shared by every parallel
/// caller (CLI, service, summarizability): a parallel DIMSAT run
/// without an explicit DimsatOptions::pool runs its tasks here, and no
/// other pool is started for it. Sized by SetProcessPoolThreads() if
/// called before first use (`olapdc --threads`, `olapdcd --threads`),
/// else the OLAPDC_THREADS environment variable, else
/// hardware_concurrency.
/// Never destroyed (workers park when idle), so exit order is a
/// non-issue.
WorkStealingPool& ProcessPool();

/// Overrides the process pool size, clamped to [1, kMaxThreads]; must
/// be called before the first ProcessPool() use (later calls are
/// ignored).
void SetProcessPoolThreads(int num_threads);

/// The one ceiling on every thread count the tools accept:
/// OLAPDC_THREADS, SetProcessPoolThreads, `olapdc --threads`, `olapdcd
/// --threads` and `--max-connections` (one serving thread each),
/// `loadgen --threads` and `chaos_campaign --daemon-threads`. A typo
/// must not ask the host for thousands of threads.
inline constexpr int kMaxThreads = 256;

/// OLAPDC_THREADS if set to a positive integer (at most kMaxThreads),
/// else 0.
int EnvThreadCount();

/// The default parallelism: OLAPDC_THREADS if set, else
/// hardware_concurrency (at least 1).
int DefaultThreadCount();

}  // namespace olapdc::exec

#endif  // OLAPDC_EXEC_WORK_STEALING_POOL_H_
