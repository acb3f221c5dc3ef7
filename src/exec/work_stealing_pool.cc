#include "exec/work_stealing_pool.h"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/fault_injector.h"
#include "obs/metrics.h"

namespace olapdc::exec {

namespace {

/// Inventory registration so the chaos campaign finds the site via
/// RegisteredFaultSites(). Probed once per helping round of a worker's
/// nested Wait, never on a worker's own loop.
[[maybe_unused]] const bool kGroupWaitSite =
    RegisterFaultSite("exec.group_wait");

/// Worker identity of the current thread: which pool it belongs to (so
/// Spawn and Wait can tell one of its workers from any other thread)
/// and its index there.
thread_local WorkStealingPool* tls_pool = nullptr;
thread_local int tls_worker_id = -1;
/// Set around each task invocation: did a thread other than this one
/// spawn it?
thread_local bool tls_task_stolen = false;

}  // namespace

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup(WorkStealingPool* pool) : pool_(pool) {
  OLAPDC_CHECK(pool != nullptr);
}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Spawn(std::function<void()> fn) {
  pool_->Submit(new WorkStealingPool::Task{
      std::move(fn), this, tls_pool == pool_ ? tls_worker_id : -1,
      obs::CurrentTraceContext()});
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(pool_->mu_);
  if (tls_pool != pool_) {
    done_.wait(lock, [&] { return pending_ == 0; });
    return;
  }
  // On a worker of this pool: help instead of blocking, otherwise a
  // task waiting on a nested group would deadlock the worker it
  // occupies. A helper parks on the pool's condition variable, which a
  // push and this group's last completion both signal.
  while (pending_ > 0) {
    if (pool_->stack_.empty()) {
      pool_->cv_.wait(lock);
    } else if (FaultInjector::Global().MaybeFail("exec.group_wait").ok()) {
      pool_->RunNewest(lock);
    } else {
      // Chaos site: a failed helping round yields instead; the group
      // still drains, through the next round or the other workers.
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }
}

// ---------------------------------------------------------------------------
// WorkStealingPool

WorkStealingPool::WorkStealingPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(num_threads);
  try {
    for (int i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  } catch (...) {
    StopAndJoin();
    throw;
  }
}

WorkStealingPool::~WorkStealingPool() {
  StopAndJoin();
  // Free tasks nobody ran (misuse — groups should have been waited —
  // but do not leak).
  for (Task* task : stack_) delete task;
}

void WorkStealingPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

int WorkStealingPool::CurrentWorkerId() { return tls_worker_id; }

bool WorkStealingPool::CurrentTaskStolen() { return tls_task_stolen; }

WorkStealingPool::StatsSnapshot WorkStealingPool::Stats() const {
  StatsSnapshot s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  return s;
}

void WorkStealingPool::PublishMetricNames() const {
  if (!obs::MetricsEnabled()) return;
  obs::Count("olapdc.exec.tasks_executed", 0);
  obs::Count("olapdc.exec.steals", 0);
  obs::Count("olapdc.exec.ctx_restores", 0);
  obs::Gauge("olapdc.exec.pool_size", num_threads());
}

void WorkStealingPool::Submit(Task* task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++task->group->pending_;
    stack_.push_back(task);
  }
  // A helper whose group drains before it takes this wakeup does not
  // lose it: that drain's notify_all (RunNewest) woke every parked
  // worker too.
  cv_.notify_one();
}

void WorkStealingPool::RunNewest(std::unique_lock<std::mutex>& lock) {
  Task* task = stack_.back();
  stack_.pop_back();
  lock.unlock();

  // Tasks run only on workers of this pool: tls_worker_id is ours.
  const bool was_stolen = tls_task_stolen;
  tls_task_stolen = task->submitter != tls_worker_id;
  if (task->submitter >= 0 && tls_task_stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
    obs::Count("olapdc.exec.steals");
  }
  {
    // Reinstall the spawner's trace context so spans opened by the
    // task parent correctly whichever thread runs it.
    obs::ScopedTraceContext context(task->context);
    if (task->context.span_id != 0) obs::Count("olapdc.exec.ctx_restores");
    task->fn();
  }
  tls_task_stolen = was_stolen;
  TaskGroup* group = task->group;
  // Destroyed before the group can drain, so a waiter returning from
  // Wait() can safely tear down whatever the task captured.
  delete task;
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  obs::Count("olapdc.exec.tasks_executed");

  lock.lock();
  if (--group->pending_ == 0) {
    // Under mu_: the waiter cannot return, and destroy the group,
    // before this critical section ends.
    group->done_.notify_all();
    cv_.notify_all();  // a worker helping in the group's Wait
  }
}

void WorkStealingPool::WorkerLoop(int id) {
  tls_pool = this;
  tls_worker_id = id;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !stack_.empty(); });
    if (stop_) break;
    RunNewest(lock);
  }
  tls_pool = nullptr;
  tls_worker_id = -1;
}

// ---------------------------------------------------------------------------
// Process-wide pool

namespace {
std::atomic<int> process_pool_threads{0};
}  // namespace

int EnvThreadCount() {
  const char* env = std::getenv("OLAPDC_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(env, &end, 10);
  // Out-of-range values (errno == ERANGE clamps to LONG_MAX/LONG_MIN)
  // must be rejected before the int cast truncates them.
  if (end == nullptr || *end != '\0' || errno == ERANGE || value <= 0 ||
      value > kMaxThreads) {
    return 0;
  }
  return static_cast<int>(value);
}

int DefaultThreadCount() {
  if (int env = EnvThreadCount(); env > 0) return env;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void SetProcessPoolThreads(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  if (num_threads > kMaxThreads) num_threads = kMaxThreads;
  process_pool_threads.store(num_threads, std::memory_order_relaxed);
}

WorkStealingPool& ProcessPool() {
  // Intentionally leaked: workers park when idle and joining at static
  // destruction time would race other exit-time teardown.
  static WorkStealingPool* pool = [] {
    int n = process_pool_threads.load(std::memory_order_relaxed);
    if (n <= 0) n = DefaultThreadCount();
    return new WorkStealingPool(n);
  }();
  return *pool;
}

}  // namespace olapdc::exec
