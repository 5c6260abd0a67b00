#include "common.hpp"

#include <dirent.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "stats.hpp"

namespace rrbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Tracer ----

namespace {

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Span::Span(const char* name, std::uint64_t id) {
  Tracer& t = instance();
  if (t.on()) index_ = t.open(name, id);
}

Tracer::Span::~Span() {
  if (index_ >= 0) instance().close(index_);
}

std::int64_t Tracer::open(const char* name, std::uint64_t id) {
  SpanRecord rec;
  rec.name = name;
  rec.id = id;
  rec.thread = thread_slot();
  rec.start_s = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t index) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = end;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name && s.end_s >= s.start_s) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"i\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"id\": %llu, \"thread\": %u}\n",
                   i, s.name, s.start_s, s.end_s,
                   static_cast<unsigned long long>(s.id), s.thread);
    }
  }
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---- Result ----

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 32) failures_.push_back(what);
  }
  return ok;
}

// ---- ScratchDir ----

ScratchDir::ScratchDir(const std::string& tag) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_build/tmp", ec);
  std::string templ = ".bench_build/tmp/" + tag + "-XXXXXX";
  if (::mkdtemp(templ.data()) != nullptr) path_ = templ;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// ---- machine and process facts ----

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  const auto e = s.find_last_not_of(" \t\r\n");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

}  // namespace

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) break;
    const std::string size = trim(read_first_line(dir + "size"));
    if (size.empty()) continue;
    std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    const int lv = std::atoi(level.c_str());
    if (lv > best_level || (lv == best_level && bytes > best)) {
      best_level = lv;
      best = bytes;
    }
  }
  return best;
}

std::string git_commit() {
  // Read the checkout's .git directly when there is one; benchmark
  // checkouts without git history report "unknown".
  std::string head = trim(read_first_line(".git/HEAD"));
  if (head.rfind("ref: ", 0) == 0) {
    const std::string ref = head.substr(5);
    std::string sha = trim(read_first_line(".git/" + ref));
    if (sha.empty()) {
      std::ifstream packed(".git/packed-refs");
      std::string line;
      while (std::getline(packed, line)) {
        if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
          sha = line.substr(0, 40);
        }
      }
    }
    head = sha;
  }
  return head.empty() ? "unknown" : head;
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  static const std::unordered_map<long, const char*> kNames = {
      {0xEF53, "ext2/ext3/ext4"}, {0x01021994, "tmpfs"},
      {0x794c7630, "overlayfs"},  {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},      {0x6969, "nfs"},
      {0x65735546, "fuse"},       {0x2FC12FC1, "zfs"},
  };
  const auto it = kNames.find(static_cast<long>(st.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

void print_spread(const char* what, const std::vector<double>& xs) {
  const auto q = quartiles(xs);
  if (!q) return;
  std::printf("# spread %s: n=%zu q1=%.6g median=%.6g q3=%.6g\n", what, xs.size(), q->q1,
              q->q2, q->q3);
}

CpuTicks cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::istringstream in(read_first_line("/proc/stat"));
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return out;
  while (const dirent* e = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(e->d_name, &end, 10);
    if (pid <= 0 || *end != '\0') continue;
    // /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may contain
    // spaces, so parse from the last ')'.
    const std::string stat = read_first_line("/proc/" + std::string(e->d_name) + "/stat");
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid == self && state != "Z") out.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(proc);
  return out;
}

}  // namespace rrbench
