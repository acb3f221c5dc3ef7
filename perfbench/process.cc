#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

bool Spawn(const std::vector<std::string>& argv, Child* child,
           std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  child->pid = pid;
  child->stdout_fd = fds[0];
  return true;
}

void ReadToEnd(int fd, std::string* out) {
  char buffer[65536];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      out->append(buffer, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;
    }
  }
}

bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    *line += c;
  }
}

ExitInfo Wait(pid_t pid) {
  ExitInfo info;
  int status = 0;
  while (::wait4(pid, &status, 0, &info.usage) < 0) {
    if (errno != EINTR) return info;
  }
  if (WIFEXITED(status)) {
    info.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    info.code = 128 + WTERMSIG(status);
  }
  return info;
}

ExitInfo Terminate(pid_t pid, int timeout_ms) {
  ::kill(pid, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  ExitInfo info;
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t done = ::wait4(pid, &status, WNOHANG, &info.usage);
    if (done == pid) {
      info.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
      return info;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  info = Wait(pid);
  info.code = 128 + SIGKILL;
  return info;
}

double ProcCpuUs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return -1;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
      const double tick_us = 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
      return static_cast<double>(utime + stime) * tick_us;
    }
  }
  return -1;
}

double ProcPeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return -1;
}

double RusageCpuUs(const struct rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostCpu out;
  if (!(in >> cpu) || cpu != "cpu") return out;
  double value = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in >> value; ++field) {
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

double StealPct(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total > 0 ? 100.0 * (after.steal - before.steal) / total : 0;
}

}  // namespace perfbench
