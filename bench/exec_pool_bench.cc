// Micro-benchmarks for the execution layer itself, independent of
// DIMSAT: per-task scheduling overhead (spawn + execute + join of no-op
// tasks), with every task spawned by an external thread (`injected`)
// or by one pool task (`fanout`). Reported per pool size so the cost of
// waking/parking workers and of the shared task stack's lock is
// visible. Each config runs 7 times, the order alternating between
// repetitions; `ms` is the median.

#include <atomic>
#include <cstdio>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/work_stealing_pool.h"

namespace olapdc {
namespace {

using bench::BenchReporter;
using bench::PrintHeader;
using bench::WallTimer;

constexpr int kTasks = 100000;

// Every task spawned from the external thread.
double InjectedThroughput(exec::WorkStealingPool& pool) {
  std::atomic<int64_t> sink{0};
  WallTimer timer;
  {
    exec::TaskGroup group(&pool);
    for (int i = 0; i < kTasks; ++i) {
      group.Spawn([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
  }
  const double ms = timer.ElapsedMs();
  OLAPDC_CHECK(sink.load() == kTasks);
  return ms;
}

// One pool task spawns every child from inside the pool; the other
// workers run the children it queues.
double FanoutThroughput(exec::WorkStealingPool& pool) {
  std::atomic<int64_t> sink{0};
  WallTimer timer;
  {
    exec::TaskGroup group(&pool);
    group.Spawn([&group, &sink] {
      for (int i = 0; i < kTasks; ++i) {
        group.Spawn(
            [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
    });
    group.Wait();
  }
  const double ms = timer.ElapsedMs();
  OLAPDC_CHECK(sink.load() == kTasks);
  return ms;
}

struct Config {
  int threads;
  const char* mode;
  /// The last repetition's pool counters.
  exec::WorkStealingPool::StatsSnapshot stats;
};

void Run() {
  PrintHeader("Eexec: thread pool scheduling overhead");
  std::vector<Config> configs;
  for (int threads : {1, 2, 4, 8}) {
    for (const char* mode : {"injected", "fanout"}) {
      configs.push_back({threads, mode, {}});
    }
  }
  std::vector<std::function<double()>> runs;
  for (Config& config : configs) {
    runs.push_back([&config] {
      exec::WorkStealingPool pool(config.threads);
      const double ms = std::string_view(config.mode) == "fanout"
                            ? FanoutThroughput(pool)
                            : InjectedThroughput(pool);
      config.stats = pool.Stats();
      return ms;
    });
  }
  const std::vector<bench::Spread> spreads = bench::RepeatAlternating(runs);

  BenchReporter reporter("exec");
  std::printf("%8s %10s %10s %10s %10s %12s %10s\n", "threads", "mode",
              "ms", "ms_min", "ms_max", "ns/task", "steals");
  bench::PrintRule();
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    const bench::Spread& spread = spreads[i];
    const double ns_per_task = spread.median_ms * 1e6 / kTasks;
    std::printf("%8d %10s %10.2f %10.2f %10.2f %12.1f %10llu\n",
                config.threads, config.mode, spread.median_ms, spread.min_ms,
                spread.max_ms, ns_per_task,
                static_cast<unsigned long long>(config.stats.steals));
    reporter.AddRow()
        .Set("threads", config.threads)
        .Set("mode", config.mode)
        .Set("tasks", uint64_t{kTasks})
        .Set("ms", spread.median_ms)
        .Set("ms_min", spread.min_ms)
        .Set("ms_max", spread.max_ms)
        .Set("ns_per_task", ns_per_task)
        .Set("tasks_executed", config.stats.tasks_executed)
        .Set("steals", config.stats.steals);
  }
  std::printf(
      "\nno-op tasks: the numbers are pure scheduling cost (allocate, "
      "enqueue, wake, run, join). This host reports %u hardware "
      "threads.\n",
      std::thread::hardware_concurrency());
  reporter.WriteJson();
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
