#include "prof/prof.h"

#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <cxxabi.h>
#include <deque>
#include <memory>
#include <mutex>

#include "obs/obs.h"
#include "util/file.h"
#include "util/json.h"
#include "util/strfmt.h"

// Older glibc exposes SIGEV_THREAD_ID but not the field alias.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace smart::prof {

namespace {

// ---- signal-safety rules (see DESIGN.md §13) ---------------------------
// The SIGPROF handler may only: read thread-locals, read/write lock-free
// atomics, call backtrace() (primed at start() so its one-time libgcc
// load happened in normal context), and write into the pre-allocated
// per-thread ring slot it reserved. No allocation, no locks, no I/O.

/// Lock-free single-producer (the signal handler, which runs on the ring's
/// owner thread) / single-consumer (any drainer) ring of samples. The
/// producer never blocks: a full ring drops the sample and counts it.
class SampleRing {
 public:
  void init(size_t capacity) { slots_.resize(capacity < 64 ? 64 : capacity); }

  Sample* reserve() {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h - tail_.load(std::memory_order_acquire) >= slots_.size())
      return nullptr;
    return &slots_[h % slots_.size()];
  }
  void commit() { head_.fetch_add(1, std::memory_order_release); }

  template <typename Fn>
  void consume(Fn&& fn) {
    uint64_t t = tail_.load(std::memory_order_relaxed);
    const uint64_t h = head_.load(std::memory_order_acquire);
    for (; t != h; ++t) fn(slots_[t % slots_.size()]);
    tail_.store(t, std::memory_order_release);
  }

 private:
  std::vector<Sample> slots_;
  std::atomic<uint64_t> head_{0};  ///< written by the signal handler
  std::atomic<uint64_t> tail_{0};  ///< written by the drainer
};

struct ThreadState {
  SampleRing ring;
  /// Interned id of the innermost open obs span (read by the handler).
  std::atomic<uint32_t> current_path{0};
  /// Owner-thread-only span-path stack backing current_path.
  std::vector<uint32_t> stack;
  std::atomic<uint64_t> dropped{0};
  pid_t kernel_tid = 0;
  uint32_t stable_tid = 0;
  clockid_t cpu_clock{};
  pthread_t pthread{};
  timer_t timer{};
  bool armed = false;  ///< guarded by g_registry_mu
  bool dead = false;   ///< guarded by g_registry_mu
};

/// Interns (parent span path, span name) -> dense id. id 0 is "no span".
class PathTable {
 public:
  uint32_t intern(uint32_t parent, const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_pair(parent, std::string(name));
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    nodes_.push_back({parent, key.second});
    const uint32_t id = static_cast<uint32_t>(nodes_.size());
    ids_.emplace(key, id);
    return id;
  }

  std::string path(uint32_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    while (id != 0 && id <= nodes_.size()) {
      const auto& node = nodes_[id - 1];
      out = out.empty() ? node.second : node.second + ";" + out;
      id = node.first;
    }
    return out;
  }

  /// Parent-chain of span names, root first (for folded pseudo-frames).
  std::vector<std::string> chain(uint32_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    while (id != 0 && id <= nodes_.size()) {
      const auto& node = nodes_[id - 1];
      out.insert(out.begin(), node.second);
      id = node.first;
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<uint32_t, std::string>, uint32_t> ids_;
  std::vector<std::pair<uint32_t, std::string>> nodes_;
};

PathTable& paths() {
  static PathTable* table = new PathTable();  // leaked: outlives all threads
  return *table;
}

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadState>>& registry() {
  static auto* reg = new std::vector<std::shared_ptr<ThreadState>>();
  return *reg;
}

std::atomic<bool> g_collecting{false};
double g_hz = 0.0;                       ///< guarded by g_registry_mu
size_t g_ring_capacity = 4096;           ///< guarded by g_registry_mu
size_t g_max_samples = 1 << 20;          ///< guarded by g_registry_mu
bool g_sigaction_installed = false;      ///< guarded by g_registry_mu

std::mutex g_samples_mu;
std::deque<Sample> g_samples;  ///< retained samples, oldest first

/// Raw TLS pointer read by the signal handler. Registration publishes it
/// last; thread exit clears it before deleting the timer.
thread_local ThreadState* t_state = nullptr;

void* interrupted_pc(void* uctx) {
#if defined(__x86_64__)
  auto* uc = static_cast<ucontext_t*>(uctx);
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  auto* uc = static_cast<ucontext_t*>(uctx);
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uctx;
  return nullptr;
#endif
}

void sigprof_handler(int, siginfo_t*, void* uctx) {
  ThreadState* ts = t_state;
  if (ts == nullptr || !g_collecting.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  Sample* slot = ts->ring.reserve();
  if (slot == nullptr) {
    ts->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const int depth = ::backtrace(slot->pcs, static_cast<int>(kMaxFrames));
  slot->depth = depth > 0 ? static_cast<uint16_t>(depth) : 0;
  slot->sig_pc = uctx != nullptr ? interrupted_pc(uctx) : nullptr;
  slot->path_id = ts->current_path.load(std::memory_order_relaxed);
  slot->trace_id = obs::current_trace_id();
  slot->tid = ts->stable_tid;
  ts->ring.commit();
  errno = saved_errno;
}

/// Arms `ts`'s per-thread CPU-time timer. Caller holds g_registry_mu.
bool arm_locked(ThreadState* ts) {
  if (ts->armed || ts->dead) return ts->armed;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = ts->kernel_tid;
  if (::timer_create(ts->cpu_clock, &sev, &ts->timer) != 0) return false;
  const long interval_ns = static_cast<long>(1e9 / g_hz);
  struct itimerspec its;
  its.it_interval.tv_sec = interval_ns / 1000000000L;
  its.it_interval.tv_nsec = interval_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (::timer_settime(ts->timer, 0, &its, nullptr) != 0) {
    ::timer_delete(ts->timer);
    return false;
  }
  ts->armed = true;
  return true;
}

/// Caller holds g_registry_mu.
void disarm_locked(ThreadState* ts) {
  if (!ts->armed) return;
  ::timer_delete(ts->timer);
  ts->armed = false;
}

ThreadState* ensure_registered();

// ---- obs span hooks ----------------------------------------------------
// Installed at the first Profiler::start() and never removed; they keep
// the per-thread span-path context alive whether or not a collection is
// currently running (the context is also how worker threads get lazily
// registered and armed).

void hook_enter(const char* name) {
  ThreadState* ts = ensure_registered();
  const uint32_t parent = ts->stack.empty() ? 0 : ts->stack.back();
  const uint32_t id = paths().intern(parent, name);
  ts->stack.push_back(id);
  ts->current_path.store(id, std::memory_order_relaxed);
}

void hook_exit() {
  ThreadState* ts = t_state;
  if (ts == nullptr || ts->stack.empty()) return;
  ts->stack.pop_back();
  ts->current_path.store(ts->stack.empty() ? 0 : ts->stack.back(),
                         std::memory_order_relaxed);
}

const obs::SpanHooks kSpanHooks = {&hook_enter, &hook_exit};

/// Thread-exit cleanup: unpublish the TLS pointer first (the handler sees
/// nullptr from then on), then delete the timer. The ThreadState itself is
/// owned by the registry so undrained samples survive the thread.
struct TlsGuard {
  ThreadState* ts = nullptr;
  ~TlsGuard() {
    if (ts == nullptr) return;
    t_state = nullptr;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    disarm_locked(ts);
    ts->dead = true;
  }
};
thread_local TlsGuard t_guard;

ThreadState* ensure_registered() {
  if (t_state != nullptr) return t_state;
  auto ts = std::make_shared<ThreadState>();
  ts->kernel_tid = static_cast<pid_t>(::syscall(SYS_gettid));
  ts->pthread = ::pthread_self();
  if (::pthread_getcpuclockid(ts->pthread, &ts->cpu_clock) != 0)
    ts->cpu_clock = CLOCK_THREAD_CPUTIME_ID;  // own-thread fallback
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    ts->ring.init(g_ring_capacity);
    ts->stable_tid = static_cast<uint32_t>(registry().size()) + 1;
    registry().push_back(ts);
    t_guard.ts = ts.get();
    t_state = ts.get();  // published only after the ring exists
    if (g_collecting.load(std::memory_order_relaxed)) arm_locked(ts.get());
  }
  return t_state;
}

void drain_into_retained() {
  std::vector<std::shared_ptr<ThreadState>> threads;
  size_t max_samples;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    threads = registry();
    max_samples = g_max_samples;
  }
  std::lock_guard<std::mutex> lock(g_samples_mu);
  for (const auto& ts : threads)
    ts->ring.consume([&](const Sample& s) { g_samples.push_back(s); });
  while (g_samples.size() > max_samples) g_samples.pop_front();
}

std::string demangle(const char* name) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || demangled == nullptr) {
    std::free(demangled);
    return name;
  }
  std::string out = demangled;
  std::free(demangled);
  return out;
}

std::mutex g_symbol_mu;
std::map<void*, std::string>& symbol_cache() {
  static auto* cache = new std::map<void*, std::string>();
  return *cache;
}

std::string symbolize_pc(void* pc) {
  {
    std::lock_guard<std::mutex> lock(g_symbol_mu);
    auto it = symbol_cache().find(pc);
    if (it != symbol_cache().end()) return it->second;
  }
  std::string name;
  Dl_info info;
  // backtrace records return addresses; subtract 1 so a call at the end of
  // a function does not resolve into the next symbol.
  void* lookup = static_cast<char*>(pc) - 1;
  if (::dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    name = demangle(info.dli_sname);
  } else if (::dladdr(lookup, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    name = util::strfmt(
        "%s+0x%zx", base != nullptr ? base + 1 : info.dli_fname,
        static_cast<size_t>(static_cast<char*>(pc) -
                            static_cast<char*>(info.dli_fbase)));
  } else {
    name = util::strfmt("0x%zx", reinterpret_cast<size_t>(pc));
  }
  std::lock_guard<std::mutex> lock(g_symbol_mu);
  symbol_cache().emplace(pc, name);
  return name;
}

/// Strips the profiler's own capture frames from the innermost end of a
/// sample: the handler frame (always index 0 — backtrace's first entry is
/// its caller) plus the kernel signal trampoline right after it. The
/// unwinder reports the interrupted frame with its exact pc (signal frames
/// are not return addresses), so the frame matching sig_pc is the true
/// leaf; fall back to name-based trampoline stripping when it is absent.
size_t strip_internal_frames(const Sample& s) {
  if (s.sig_pc != nullptr) {
    const size_t limit = s.depth < 6 ? s.depth : 6;
    for (size_t i = 0; i < limit; ++i)
      if (s.pcs[i] == s.sig_pc) return i;
  }
  size_t begin = s.depth > 0 ? 1 : 0;
  while (begin < s.depth && begin < 4) {
    const std::string sym = symbolize_pc(s.pcs[begin]);
    if (sym == "__restore_rt" || sym == "__kernel_rt_sigreturn") {
      ++begin;
      continue;
    }
    break;
  }
  return begin;
}

/// Root-first symbolized stack of one sample (internal frames stripped).
std::vector<std::string> stack_of(const Sample& s) {
  std::vector<std::string> frames;
  const size_t begin = strip_internal_frames(s);
  frames.reserve(s.depth - begin);
  for (size_t i = s.depth; i > begin; --i)
    frames.push_back(symbolize_pc(s.pcs[i - 1]));
  return frames;
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

util::Status Profiler::start(const ProfilerOptions& opt) {
  using util::FailureReason;
  if (!(opt.hz > 0.0) || opt.hz > 100000.0)
    return util::Status::Fail(FailureReason::kInvalidInput,
                              util::strfmt("bad sampling rate %g Hz", opt.hz));
  if (g_collecting.load(std::memory_order_relaxed))
    return util::Status::Fail(FailureReason::kInvalidInput,
                              "profiler already collecting");

  // Prime backtrace in normal context: its first call may load libgcc via
  // the dynamic loader (malloc + locks), which must never happen inside
  // the signal handler.
  void* prime[4];
  ::backtrace(prime, 4);

  obs::install_span_hooks(&kSpanHooks);

  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_hz = opt.hz;
    g_ring_capacity = opt.ring_capacity;
    g_max_samples = opt.max_samples == 0 ? 1 : opt.max_samples;
    if (!g_sigaction_installed) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_sigaction = &sigprof_handler;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      ::sigemptyset(&sa.sa_mask);
      if (::sigaction(SIGPROF, &sa, nullptr) != 0)
        return util::Status::Fail(FailureReason::kInternal,
                                  "cannot install SIGPROF handler");
      g_sigaction_installed = true;
    }
  }

  g_collecting.store(true, std::memory_order_relaxed);
  register_current_thread();
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& ts : registry())
      if (!ts->dead) arm_locked(ts.get());
  }
  return util::Status::Ok();
}

void Profiler::stop() {
  if (!g_collecting.exchange(false, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& ts : registry()) disarm_locked(ts.get());
  }
  drain_into_retained();
}

bool Profiler::collecting() const {
  return g_collecting.load(std::memory_order_relaxed);
}

double Profiler::hz() const {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  return g_hz;
}

void Profiler::drain() { drain_into_retained(); }

void Profiler::reset() {
  drain_into_retained();  // empty the rings so old samples cannot reappear
  std::lock_guard<std::mutex> lock(g_samples_mu);
  g_samples.clear();
  std::lock_guard<std::mutex> reg_lock(g_registry_mu);
  for (const auto& ts : registry())
    ts->dropped.store(0, std::memory_order_relaxed);
}

size_t Profiler::sample_count() const {
  std::lock_guard<std::mutex> lock(g_samples_mu);
  return g_samples.size();
}

uint64_t Profiler::dropped() const {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t total = 0;
  for (const auto& ts : registry())
    total += ts->dropped.load(std::memory_order_relaxed);
  return total;
}

std::vector<Sample> Profiler::samples() const {
  std::lock_guard<std::mutex> lock(g_samples_mu);
  return {g_samples.begin(), g_samples.end()};
}

std::string Profiler::span_path(uint32_t path_id) const {
  return paths().path(path_id);
}

std::map<std::string, size_t> Profiler::samples_by_span() const {
  std::map<uint32_t, size_t> by_id;
  {
    std::lock_guard<std::mutex> lock(g_samples_mu);
    for (const Sample& s : g_samples) ++by_id[s.path_id];
  }
  std::map<std::string, size_t> out;
  for (const auto& [id, count] : by_id) out[paths().path(id)] += count;
  return out;
}

std::string Profiler::folded(const FoldedOptions& opt) const {
  const std::vector<Sample> all = samples();
  std::map<std::string, size_t> collapsed;
  for (const Sample& s : all) {
    if (opt.trace_filter != 0 && s.trace_id != opt.trace_filter) continue;
    std::string key;
    if (opt.span_prefix && s.path_id != 0) {
      for (const std::string& span : paths().chain(s.path_id)) {
        if (!key.empty()) key += ";";
        key += "span:" + span;
      }
    }
    for (const std::string& frame : stack_of(s)) {
      if (!key.empty()) key += ";";
      key += frame;
    }
    if (key.empty()) key = "[unknown]";
    ++collapsed[key];
  }
  std::string out;
  for (const auto& [stack, count] : collapsed)
    out += stack + " " + util::strfmt("%zu", count) + "\n";
  return out;
}

bool Profiler::write_folded(const std::string& path,
                            const FoldedOptions& opt) const {
  return util::write_file(path, folded(opt));
}

std::string Profiler::speedscope_json(const std::string& name) const {
  const std::vector<Sample> all = samples();
  std::vector<std::string> frames;
  std::map<std::string, size_t> frame_ids;
  const auto frame_id = [&](const std::string& frame) {
    auto it = frame_ids.find(frame);
    if (it != frame_ids.end()) return it->second;
    frames.push_back(frame);
    return frame_ids.emplace(frame, frames.size() - 1).first->second;
  };
  // One "sampled" profile per thread, samples in capture order.
  std::map<uint32_t, std::vector<std::vector<size_t>>> per_thread;
  for (const Sample& s : all) {
    std::vector<size_t> ids;
    for (const std::string& frame : stack_of(s)) ids.push_back(frame_id(frame));
    if (ids.empty()) ids.push_back(frame_id("[unknown]"));
    per_thread[s.tid].push_back(std::move(ids));
  }

  std::string out =
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      "\"exporter\":\"smart-prof\",\"name\":\"" +
      util::json_escape(name) + "\",\"activeProfileIndex\":0,\"shared\":{"
      "\"frames\":[";
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"" + util::json_escape(frames[i]) + "\"}";
  }
  out += "]},\"profiles\":[";
  bool first_profile = true;
  for (const auto& [tid, stacks] : per_thread) {
    if (!first_profile) out += ",";
    first_profile = false;
    out += util::strfmt(
        "{\"type\":\"sampled\",\"name\":\"%s tid %u\",\"unit\":\"none\","
        "\"startValue\":0,\"endValue\":%zu,\"samples\":[",
        util::json_escape(name).c_str(), tid, stacks.size());
    for (size_t i = 0; i < stacks.size(); ++i) {
      if (i != 0) out += ",";
      out += "[";
      for (size_t j = 0; j < stacks[i].size(); ++j) {
        if (j != 0) out += ",";
        out += std::to_string(stacks[i][j]);
      }
      out += "]";
    }
    out += "],\"weights\":[";
    for (size_t i = 0; i < stacks.size(); ++i) out += i ? ",1" : "1";
    out += "]}";
  }
  if (per_thread.empty())
    out += "{\"type\":\"sampled\",\"name\":\"" + util::json_escape(name) +
           "\",\"unit\":\"none\",\"startValue\":0,\"endValue\":0,"
           "\"samples\":[],\"weights\":[]}";
  out += "]}";
  return out;
}

bool Profiler::write_speedscope(const std::string& path,
                                const std::string& name) const {
  return util::write_file(path, speedscope_json(name));
}

std::vector<Profiler::FrameStat> Profiler::top_frames(size_t k) const {
  const std::vector<Sample> all = samples();
  std::map<std::string, FrameStat> stats;
  for (const Sample& s : all) {
    const std::vector<std::string> frames = stack_of(s);
    if (frames.empty()) continue;
    std::map<std::string, bool> seen;
    for (const std::string& frame : frames) {
      FrameStat& st = stats[frame];
      st.frame = frame;
      if (!seen[frame]) {
        ++st.total;  // inclusive: count each sample once per frame
        seen[frame] = true;
      }
    }
    ++stats[frames.back()].self;  // leaf frame owns the sample
  }
  std::vector<FrameStat> out;
  out.reserve(stats.size());
  for (auto& [frame, st] : stats) out.push_back(std::move(st));
  std::sort(out.begin(), out.end(), [](const FrameStat& a, const FrameStat& b) {
    if (a.self != b.self) return a.self > b.self;
    if (a.total != b.total) return a.total > b.total;
    return a.frame < b.frame;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string Profiler::symbolize(void* pc) const { return symbolize_pc(pc); }

void register_current_thread() { ensure_registered(); }

size_t registered_thread_count() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  return registry().size();
}

}  // namespace smart::prof
