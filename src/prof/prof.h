#pragma once

/// \file prof.h
/// SMART-Prof: a low-overhead in-process sampling profiler plus span-level
/// resource accounting (see resource.h and DESIGN.md §13).
///
/// Sampling design: every registered thread gets a POSIX per-thread
/// CPU-time timer (`timer_create` on the thread's CPU clock, delivered as
/// SIGPROF via SIGEV_THREAD_ID), so a thread is sampled `hz` times per
/// CPU-second it actually burns — idle daemon workers produce no samples
/// and no wakeups. The async-signal-safe handler captures a raw `backtrace`
/// frame vector, the thread's current obs span-path id (maintained by the
/// obs::SpanHooks this profiler installs), and the thread's current trace
/// id (obs::ScopedTraceId) into a lock-free single-producer/single-consumer
/// per-thread sample ring. Symbolization (dladdr + demangling) happens
/// offline at export time, never in the handler.
///
/// Threads register lazily: the first obs::Span on a thread registers it
/// (and arms its timer when a collection is running), so the par pool, the
/// serve worker pool and the main thread are all covered without explicit
/// plumbing. Threads that spin without ever opening a span can call
/// register_current_thread() themselves.
///
/// Exports: collapsed-stack text ("folded", flamegraph.pl / inferno
/// compatible: `frame;frame;frame count` lines, optionally prefixed with
/// `span:`-tagged span-path pseudo-frames and filterable by trace id) and
/// speedscope-compatible JSON (https://www.speedscope.app file format,
/// "sampled" profiles, one per thread).
///
/// Cost discipline: while no profiler has ever started, every obs span
/// site pays one extra relaxed atomic load (no hooks installed). While
/// hooks are installed but collection is stopped, a span costs one
/// interned path-table lookup; sampling overhead at 99 Hz is measured
/// < 5% on a GP solve (ProfOverheadTest locks this in ctest).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace smart::prof {

/// Frames kept per sample; deeper stacks are truncated at capture time.
inline constexpr size_t kMaxFrames = 48;

/// One captured sample. `pcs` is innermost-first, exactly as `backtrace`
/// returned it (including the profiler's own handler frames — they are
/// stripped at symbolization time, not in the handler).
struct Sample {
  uint64_t trace_id = 0;  ///< obs::current_trace_id() at capture (0 = none)
  /// Program counter the signal interrupted (from the handler's ucontext).
  /// Export-time stripping drops the handler + trampoline frames before it.
  void* sig_pc = nullptr;
  uint32_t path_id = 0;   ///< interned obs span path (0 = outside any span)
  uint32_t tid = 0;       ///< small stable per-thread id (1-based)
  uint16_t depth = 0;
  void* pcs[kMaxFrames];
};

struct ProfilerOptions {
  /// Per-thread CPU-time sampling rate (samples per CPU-second). Prefer
  /// primes (97/997) so the sampler cannot phase-lock to periodic work.
  double hz = 997.0;
  /// Per-thread ring capacity in samples. The ring is the only memory the
  /// signal handler touches; when it fills, samples are dropped (counted).
  size_t ring_capacity = 4096;
  /// Retained-sample cap after draining; oldest samples beyond it are
  /// discarded so a long-running daemon cannot grow without bound.
  size_t max_samples = 1 << 20;
};

struct FoldedOptions {
  /// Keep only samples tagged with this trace id (0 = all samples).
  uint64_t trace_filter = 0;
  /// Prefix each stack with its obs span path as `span:<name>` pseudo
  /// frames, so flamegraphs group by pipeline stage before code frames.
  bool span_prefix = true;
};

/// Process-wide sampling profiler. All control methods are safe from any
/// thread; start/stop pairs may repeat within one process (samples
/// accumulate across runs until reset()).
class Profiler {
 public:
  static Profiler& instance();

  /// Installs the obs span hooks (first start only), primes `backtrace`,
  /// installs the SIGPROF handler, registers the calling thread, and arms
  /// per-thread timers for every known thread. Fails (without arming
  /// anything) when a collection is already running or the options are
  /// invalid.
  util::Status start(const ProfilerOptions& opt = {});

  /// Disarms all timers and drains every ring into the retained buffer.
  /// Safe to call when not collecting (no-op).
  void stop();

  bool collecting() const;
  double hz() const;

  /// Pulls completed samples out of the per-thread rings into the retained
  /// buffer without stopping collection (used by the daemon to snapshot
  /// per-request profiles while serving).
  void drain();

  /// Drops retained samples and drop counters (the interned path table and
  /// thread registrations survive; ids stay stable).
  void reset();

  /// Retained samples (post-drain). `sample_count` includes every retained
  /// sample; `dropped` counts ring-overflow losses since reset().
  size_t sample_count() const;
  uint64_t dropped() const;
  std::vector<Sample> samples() const;

  /// Human-readable span path for an interned id ("a;b;c", "" for id 0).
  std::string span_path(uint32_t path_id) const;

  /// Retained-sample counts grouped by span path string ("" = no span).
  std::map<std::string, size_t> samples_by_span() const;

  /// Collapsed-stack text: one `frame;frame;... count` line per distinct
  /// stack, root first, suitable for flamegraph.pl / inferno / speedscope.
  std::string folded(const FoldedOptions& opt = {}) const;
  bool write_folded(const std::string& path,
                    const FoldedOptions& opt = {}) const;

  /// Speedscope file-format JSON ("sampled" profiles, one per thread).
  std::string speedscope_json(const std::string& name = "smart") const;
  bool write_speedscope(const std::string& path,
                        const std::string& name = "smart") const;

  /// Per-frame attribution over the retained samples: `self` counts
  /// samples whose leaf is the frame, `total` counts samples containing it
  /// anywhere. Sorted by self descending, truncated to `k`.
  struct FrameStat {
    std::string frame;
    size_t self = 0;
    size_t total = 0;
  };
  std::vector<FrameStat> top_frames(size_t k) const;

  /// Symbolizes one pc (demangled function name, or "module+0x..." when no
  /// dynamic symbol covers it). Cached; for tools and tests.
  std::string symbolize(void* pc) const;

 private:
  Profiler() = default;
};

/// Registers the calling thread with the profiler (idempotent) and arms
/// its sampling timer when a collection is running. Threads that emit obs
/// spans are registered automatically via the span hooks.
void register_current_thread();

/// Number of threads the profiler has ever registered (for tests).
size_t registered_thread_count();

}  // namespace smart::prof
