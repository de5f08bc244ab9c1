#pragma once

/// \file par.h
/// Deterministic data parallelism across independent sizings.
///
/// One sizing request runs on one thread; the pool fans out only work made
/// of whole sizings (the advisor's candidate sweep), and its size is the
/// default smartd worker count.
///
/// A process-wide pool of persistent workers executes index ranges with
/// *static* chunk boundaries and index-ordered result placement, so output
/// is bit-identical to the sequential loop at any thread count: every index
/// writes to its own slot, chunk boundaries depend only on (n, thread
/// count), and merging is by index, never by completion order. The worker
/// count comes from `SMART_THREADS` (env) at first use, or
/// `set_thread_count` (the CLI's `--threads` flag); the default is the
/// hardware concurrency.
///
/// Scheduling is caller-helps: the thread that calls `parallel_for`
/// executes chunks alongside the pool, so the pool never deadlocks when a
/// chunk body itself calls `parallel_for` (nested calls run inline on the
/// calling thread). Workers are persistent across calls, which keeps their
/// obs tids stable; each executed chunk records an obs span tagged with the
/// chunk index and range.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace smart::par {

/// Upper bound on configurable workers; values beyond it are rejected as
/// absurd (a typo'd SMART_THREADS, not a real machine).
constexpr int kMaxThreads = 4096;

/// Strictly parses a thread-count spec ("8"): the whole string must be a
/// decimal integer in [1, kMaxThreads]. Returns false (leaving `out`
/// untouched) on empty, non-numeric, trailing-garbage, or out-of-range
/// input — the validation behind SMART_THREADS and `--threads`.
bool parse_thread_spec(const char* spec, int* out);

/// Configured worker count (>= 1). First call reads SMART_THREADS; a spec
/// that fails parse_thread_spec logs a warning and falls back to the
/// hardware concurrency instead of silently misbehaving.
int thread_count();

/// Rebuilds the pool with `n` workers. Out-of-range values are clamped to
/// [1, kMaxThreads] with a warning. Must not be called while any
/// parallel_for is in flight; intended for CLI startup and tests.
void set_thread_count(int n);

/// Runs `body(begin, end)` over static chunks of [0, n). Blocks until every
/// chunk has finished. The first exception (by lowest chunk index) thrown
/// by any chunk is rethrown on the calling thread after the batch drains.
/// `tag` names the per-chunk obs spans.
void parallel_for(size_t n, const std::function<void(size_t, size_t)>& body,
                  const char* tag = "par.for");

/// Maps `fn(i)` over [0, n) into an index-ordered vector. T must be default
/// constructible; slot i is written only by the chunk owning index i, so
/// the result is identical to the sequential loop at any thread count.
template <typename T, typename Fn>
std::vector<T> parallel_map(size_t n, Fn&& fn, const char* tag = "par.map") {
  std::vector<T> out(n);
  parallel_for(
      n,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) out[i] = fn(i);
      },
      tag);
  return out;
}

}  // namespace smart::par
