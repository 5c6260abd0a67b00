#pragma once

// Shared plumbing of rrbench: the wall clock, the in-memory
// span recorder used by traced runs, the per-run result (metrics, checks,
// operation counts), the per-run scratch directory, and the machine and
// process facts a result records (fingerprint, peak RSS, filesystem).

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rrbench {

/// Wall-clock seconds on the steady clock since an arbitrary epoch. Every
/// time the benchmark reports is a difference of two of these, never CPU
/// time.
double now_s();

// ---- tracing ----

/// One recorded span: a call from the benchmark into a module's public
/// function. `id` groups the spans of one request.
struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store. Recording is off unless a traced run turns it
/// on; a span opened while it is off costs one relaxed load. Spans are
/// written out once, when the run ends.
class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// RAII span around one call; records only if tracing was on when it
  /// opened.
  class Span {
   public:
    explicit Span(const char* name, std::uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    std::int64_t index_ = -1;
  };

  /// Durations (seconds) of every finished span named `name`.
  std::vector<double> durations(std::string_view name) const;

  /// One JSON object per span; false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::uint64_t id);
  void close(std::int64_t index);

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

// ---- results ----

/// What one run reports: metric values by name (main.cpp's tables give
/// their units), and the operations it attempted with the failures among
/// them. A failure names the check that failed.
class Result {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one attempted operation; a false `ok` is a failure named
  /// `what`. Returns `ok`.
  bool check(bool ok, const std::string& what);
  void fail(const std::string& what) { check(false, what); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Parameters every workload receives.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string serverd;  ///< rr_serverd binary
  std::string noded;    ///< rr_noded binary
};

// ---- scratch ----

/// A fresh directory under .bench_build/tmp (relative to the checkout the
/// benchmark runs in), removed with everything in it on destruction.
/// Relative paths keep AF_UNIX socket names short wherever the checkout
/// lives.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// ---- machine and process facts ----

std::string cpu_model();
/// Size of the last-level cache the machine reports, in bytes (0 unknown).
std::uint64_t llc_bytes();
std::string git_commit();
/// Filesystem type of `path` ("ext2/ext3/ext4", "tmpfs", "overlayfs", ...).
std::string filesystem_type(const std::string& path);
/// Prints "# spread <what>: n=.. q1=.. median=.. q3=.." for the per-unit
/// samples behind a reported median (nothing with fewer than two).
void print_spread(const char* what, const std::vector<double>& xs);

/// Share of CPU time the hypervisor gave to other guests ("steal" in
/// /proc/stat) between two readings of cpu_ticks().
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// VmHWM (peak resident set) of `pid` in MB; 0 if unreadable.
double vm_hwm_mb(pid_t pid);
/// Live child processes of this process.
std::vector<pid_t> child_pids();

}  // namespace rrbench
