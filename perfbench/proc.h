// Child processes and /proc readers for the benchmark driver.
//
// The driver measures the served program from outside: it starts
// uots_snapshot and uots_server as child processes and reads their CPU
// time, context switches and peak RSS from the kernel.

#ifndef UOTS_PERFBENCH_PROC_H_
#define UOTS_PERFBENCH_PROC_H_

#include <sched.h>
#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// \brief A child process whose stdout and stderr are captured to a log.
///
/// The child gets SIGKILL if the driver dies, and the destructor kills and
/// reaps it if it is still running, so no process outlives a run.
class Child {
 public:
  /// Starts `argv` (argv[0] is a path) with `env` added to the driver's
  /// environment. Output is appended to `log_path`. Null on failure.
  static std::unique_ptr<Child> Spawn(const std::vector<std::string>& argv,
                                      const std::vector<std::string>& env,
                                      const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Blocks until a complete output line starting with `prefix` has been
  /// read; returns it. Empty on timeout or when the child closed its output
  /// first.
  std::string WaitForLine(const std::string& prefix, double timeout_s);

  /// Waits for the child to exit; returns its exit code, or -1 when it was
  /// killed by a signal or did not exit within `timeout_s`.
  int Wait(double timeout_s);

  /// SIGINT, then SIGKILL if it has not exited after `timeout_s`. Returns
  /// the exit code as Wait does.
  int Stop(double timeout_s);

  /// Everything the child printed so far.
  std::string Output();

 private:
  Child() = default;
  void ReadLoop(int fd, int log_fd);

  pid_t pid_ = -1;
  bool reaped_ = false;
  int exit_code_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string output_;  // guarded by mu_
  bool eof_ = false;    // guarded by mu_
  std::thread reader_;
};

/// \brief Confines the calling thread to one CPU until destroyed.
///
/// Processes and threads it starts meanwhile inherit the confinement, so a
/// server launched inside the scope shares the one CPU with the thread that
/// drives it. The CPU is the highest-numbered one the thread may use.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();  ///< restores the thread's previous CPU set

  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// The CPU, or -1 when the thread could not be confined.
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// User+system CPU of the whole process, in nanoseconds, exited threads
/// included. -1 when the process is gone.
int64_t ProcessCpuNs(pid_t pid);

/// \brief Per-thread counters summed over /proc/<pid>/task/*.
struct ThreadCounters {
  int64_t main_cpu_ns = 0;     ///< the main thread (the server's reactor)
  int64_t other_cpu_ns = 0;    ///< every other live thread
  int64_t voluntary_switches = 0;
};
ThreadCounters ReadThreadCounters(pid_t pid);

/// Peak resident set (VmHWM) in MiB; -1 when unreadable.
double PeakRssMb(pid_t pid);

/// Name of the file system type holding `path` ("tmpfs", "ext4", ...).
std::string FileSystemType(const std::string& path);

}  // namespace perfbench

#endif  // UOTS_PERFBENCH_PROC_H_
