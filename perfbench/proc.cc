#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::unique_ptr<Child> Child::Spawn(const std::vector<std::string>& argv,
                                    const std::vector<std::string>& env,
                                    const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return nullptr;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return nullptr;
  }

  // Everything the child needs is built before fork: only async-signal-safe
  // calls run between fork and exec.
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  for (const auto& e : env) env_strings.push_back(e);
  std::vector<char*> envp;
  for (auto& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::close(log_fd);
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<Child> child(new Child());
  child->pid_ = pid;
  child->reader_ = std::thread(&Child::ReadLoop, child.get(), pipe_fds[0],
                               log_fd);
  return child;
}

void Child::ReadLoop(int fd, int log_fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (::write(log_fd, buf, static_cast<size_t>(n)) < 0) {
      // The log is for humans; losing it does not affect the run.
    }
    std::lock_guard<std::mutex> lock(mu_);
    output_.append(buf, static_cast<size_t>(n));
    cv_.notify_all();
  }
  ::close(fd);
  ::close(log_fd);
  std::lock_guard<std::mutex> lock(mu_);
  eof_ = true;
  cv_.notify_all();
}

std::string Child::WaitForLine(const std::string& prefix, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lock(mu_);
  size_t scanned = 0;
  for (;;) {
    for (;;) {
      const size_t nl = output_.find('\n', scanned);
      if (nl == std::string::npos) break;
      if (output_.compare(scanned, prefix.size(), prefix) == 0) {
        return output_.substr(scanned, nl - scanned);
      }
      scanned = nl + 1;
    }
    if (eof_) return "";
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) return "";
  }
}

std::string Child::Output() {
  std::lock_guard<std::mutex> lock(mu_);
  return output_;
}

int Child::Wait(double timeout_s) {
  if (reaped_) return exit_code_;
  const auto t0 = Clock::now();
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (reader_.joinable()) reader_.join();
      return exit_code_;
    }
    if (r < 0 && errno != EINTR) {
      reaped_ = true;
      if (reader_.joinable()) reader_.join();
      return -1;
    }
    if (SecondsSince(t0) >= timeout_s) return -1;
    ::usleep(2000);
  }
}

int Child::Stop(double timeout_s) {
  if (reaped_) return exit_code_;
  ::kill(pid_, SIGINT);
  const int code = Wait(timeout_s);
  if (reaped_) return code;
  ::kill(pid_, SIGKILL);
  Wait(60.0);
  return -1;
}

Child::~Child() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (reader_.joinable()) reader_.join();
}

CpuPin::CpuPin() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = c;
    return;
  }
}

CpuPin::~CpuPin() {
  if (cpu_ >= 0) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

int64_t ProcessCpuNs(pid_t pid) {
  clockid_t clock;
  if (::clock_getcpuclockid(pid, &clock) != 0) return -1;
  timespec ts;
  if (::clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

ThreadCounters ReadThreadCounters(pid_t pid) {
  ThreadCounters out;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const std::string base = task_dir + "/" + e->d_name;
    // schedstat: on-CPU nanoseconds, wait nanoseconds, timeslices.
    int64_t cpu_ns = 0;
    std::ifstream(base + "/schedstat") >> cpu_ns;
    if (std::atoi(e->d_name) == pid) {
      out.main_cpu_ns += cpu_ns;
    } else {
      out.other_cpu_ns += cpu_ns;
    }
    std::ifstream status(base + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        out.voluntary_switches += std::atoll(line.c_str() + 24);
      }
    }
  }
  ::closedir(dir);
  return out;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return -1.0;
}

std::string FileSystemType(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace perfbench
