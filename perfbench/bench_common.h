// Shared helpers of the olapdc benchmark harness: clocks, percentiles,
// deterministic randomness, the metric report, and outcome accounting.

#ifndef OLAPDC_PERFBENCH_BENCH_COMMON_H_
#define OLAPDC_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

inline double MicrosSince(Clock::time_point start) {
  return MicrosBetween(start, Clock::now());
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Sum of `values`.
double Sum(const std::vector<double>& values);

/// splitmix64: every input the benchmark generates derives from one of
/// these, seeded from --seed, so a seed names its inputs exactly.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// A derived seed: stream `stream` of the run seed `seed`.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001B3ull ^ (stream + 0x632BE59BD9B4E019ull)).Next();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (operations, invocations, spans).
  uint64_t samples = 0;
};

/// Every metric one run measured. PrintTable() writes all of them; the
/// result line carries the ones BENCHMARK.json names for the mode.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }
  const Metric* Find(const std::string& name) const;
  void PrintTable() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Outcome accounting: every checked operation is attempted; a wrong,
/// non-definitive, or missing answer is a failure. Thread-safe.
class Outcome {
 public:
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (messages_.size() < 10) messages_.push_back(message);
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon_path;
  std::string cli_path;
  /// Scratch directory inside the checkout (corpus files, traces).
  std::string work_dir;
};

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_BENCH_COMMON_H_
