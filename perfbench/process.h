// Child processes of the benchmark: spawning olapdcd and olapdc with
// stdout on a pipe, reaping them with their rusage, and reading a live
// process's CPU time and peak RSS from /proc.

#ifndef OLAPDC_PERFBENCH_PROCESS_H_
#define OLAPDC_PERFBENCH_PROCESS_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Child {
  pid_t pid = -1;
  /// Read end of the child's stdout (the caller closes it).
  int stdout_fd = -1;
};

/// Starts argv[0] with `argv`; stdout goes to a pipe, stderr to
/// /dev/null.
bool Spawn(const std::vector<std::string>& argv, Child* child,
           std::string* error);

/// Reads `fd` to end of file into `*out` (appending).
void ReadToEnd(int fd, std::string* out);

/// Reads one '\n'-terminated line from `fd` (without the newline);
/// false at end of file.
bool ReadLine(int fd, std::string* line);

struct ExitInfo {
  /// Exit code, or 128 + signal when the child was killed.
  int code = -1;
  struct rusage usage {};
};

/// Blocks until `pid` exits.
ExitInfo Wait(pid_t pid);

/// Sends SIGTERM and waits up to `timeout_ms` before SIGKILL.
ExitInfo Terminate(pid_t pid, int timeout_ms);

/// User + system CPU of a live process in microseconds (from
/// /proc/<pid>/stat), or -1.
double ProcCpuUs(pid_t pid);

/// VmHWM of a live process in KiB (from /proc/<pid>/status), or -1.
double ProcPeakRssKb(pid_t pid);

/// User + system CPU in microseconds of a reaped child.
double RusageCpuUs(const struct rusage& usage);

/// Host-wide CPU ticks from /proc/stat: all states, and the part the
/// hypervisor stole. A shared host's steal time is the main source of
/// run-to-run noise, so every run reports it next to its metrics.
struct HostCpu {
  double total = 0;
  double steal = 0;
};
HostCpu ReadHostCpu();

/// Stolen share of host CPU time between two readings, in percent.
double StealPct(const HostCpu& before, const HostCpu& after);

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_PROCESS_H_
