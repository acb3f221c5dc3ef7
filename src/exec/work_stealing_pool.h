// Work-stealing thread pool: the execution layer under the parallel
// DIMSAT driver and the summarizability sweep (DESIGN.md §8). Each
// worker owns a Chase–Lev deque (task_deque.h); external threads
// submit through a mutex-protected injector queue.
// Idle workers scan own-deque -> random victims -> injector, then park
// on a condition variable; a pending-work hint plus a sleepers counter
// close the missed-wakeup race.
//
// Pool activity is exported under olapdc.exec.* in the metrics
// registry (docs/observability.md) and mirrored in cheap per-pool
// atomic counters for tests and benches.

#ifndef OLAPDC_EXEC_WORK_STEALING_POOL_H_
#define OLAPDC_EXEC_WORK_STEALING_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/task_deque.h"
#include "obs/span.h"

namespace olapdc::exec {

class WorkStealingPool;

/// Groups a batch of tasks so a caller can wait for all of them.
/// Spawn() may be called from any thread, including from inside a task
/// of the group (nested spawns extend the group). Wait() called on a
/// pool worker thread *helps*: it executes queued tasks (its own deque,
/// stolen work, the injector) until the group drains, so nested
/// parallelism — a task that itself spawns a group and waits — cannot
/// deadlock even on a one-worker pool. Non-worker threads block on a
/// condition variable.
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
  void OnTaskDone();

  WorkStealingPool* const pool_;
  std::atomic<int64_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
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

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The calling thread's worker index in *some* pool, or -1 when the
  /// caller is not a pool worker. Tasks can use it to detect whether
  /// they were stolen (compare against the submitter's id).
  static int CurrentWorkerId();
  /// True while the calling thread is executing a task that a worker
  /// other than the submitting worker picked up (i.e. the task was
  /// stolen or drained from the injector by a different thread).
  static bool CurrentTaskStolen();

  /// Lifetime totals, mirrored from the olapdc.exec.* metrics.
  struct StatsSnapshot {
    uint64_t tasks_executed = 0;
    uint64_t steals = 0;
    uint64_t steal_failures = 0;
  };
  StatsSnapshot Stats() const;

  /// Registers the olapdc.exec.* metric names (zero deltas) and the
  /// pool-size gauge with the global registry, so exported inventories
  /// are complete even before any steal happens. No-op when metrics are
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
    /// after a steal (obs/span.h has the contract).
    obs::TraceContext context;
  };

  struct Worker {
    TaskDeque<Task> deque;
    std::atomic<uint64_t> tasks_executed{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_failures{0};
    uint64_t rng_state = 0;
    std::thread thread;
  };

  /// Routes a task: a worker of this pool pushes to its own deque, any
  /// other thread goes through the injector. Wakes a parked worker.
  void SubmitTask(Task* task);
  void WorkerLoop(int id);
  /// Runs one queued task if any is findable from this thread (worker
  /// deque/steal, else injector). Returns false when nothing was found.
  bool RunOneTask();
  Task* FindTask(int self);
  Task* StealFrom(int self);
  Task* PopInjector();
  void Execute(Task* task, int self);
  void NotifyOne();

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mu_;
  std::deque<Task*> injector_;

  /// Count of queued-but-unclaimed tasks; a hint that lets producers
  /// skip the wakeup lock and parking workers re-check for work.
  std::atomic<int64_t> work_hint_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
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
