#include "par/par.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/obs.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/strfmt.h"

namespace smart::par {

namespace {

/// Depth of chunk bodies executing on this thread. Nonzero means we are
/// inside a pool chunk already, so a nested parallel_for must run inline —
/// dispatching it back to the pool could deadlock (all executors busy in
/// the outer batch) and gains nothing.
thread_local int g_chunk_depth = 0;

/// One parallel_for invocation. Lives on the caller's stack; the pool only
/// holds a pointer until the batch drains.
struct Batch {
  const std::function<void(size_t, size_t)>* body = nullptr;
  const char* tag = nullptr;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t chunk_count = 0;
  // All mutable state is guarded by the pool mutex. Claiming a chunk and
  // finding the batch happen in the SAME critical section: an executor that
  // holds an unexecuted claim implies done < chunk_count, which pins the
  // caller (and therefore this stack-allocated struct) in Pool::run until
  // the executor has counted the chunk — never a dangling Batch*.
  size_t next = 0;  ///< next unclaimed chunk index
  size_t done = 0;  ///< finished chunks
  std::exception_ptr error;  ///< lowest-chunk exception
  size_t error_chunk = static_cast<size_t>(-1);
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int threads() const { return threads_; }

  void resize(int n) {
    n = std::max(1, n);
    stop_workers();
    threads_ = n;
    // The caller of parallel_for helps execute, so n executors means n-1
    // dedicated workers.
    workers_.reserve(static_cast<size_t>(n - 1));
    for (int i = 0; i < n - 1; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void run(Batch& batch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(&batch);
    }
    work_cv_.notify_all();
    while (run_chunk(&batch)) {
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch.done == batch.chunk_count; });
    queue_.erase(std::find(queue_.begin(), queue_.end(), &batch));
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  Pool() { resize(env_threads()); }
  ~Pool() { stop_workers(); }

  static int hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

  static int env_threads() {
    const char* env = std::getenv("SMART_THREADS");
    if (env == nullptr) return hardware_threads();
    int n = 0;
    if (!parse_thread_spec(env, &n)) {
      // A malformed spec must not silently degrade to single-threaded (the
      // old atoi behavior for "abc") or launch thousands of workers.
      util::log_warn(util::strfmt(
          "par: ignoring invalid SMART_THREADS='%s' (want an integer in "
          "[1, %d]); using hardware concurrency %d",
          env, kMaxThreads, hardware_threads()));
      return hardware_threads();
    }
    return n;
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SMART_CHECK(queue_.empty(),
                  "par: thread count changed while work was in flight");
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    stopping_ = false;
  }

  /// Runs the already-claimed chunk `idx` of `batch`. The claim (made under
  /// the pool mutex) keeps the batch alive until `done` is counted here.
  void execute_chunk(Batch* batch, size_t idx) {
    const size_t begin = idx * batch->chunk_size;
    const size_t end = std::min(batch->n, begin + batch->chunk_size);
    ++g_chunk_depth;
    try {
      obs::Span span(batch->tag, "par");
      span.arg("chunk", static_cast<double>(idx));
      span.arg("begin", static_cast<double>(begin));
      span.arg("end", static_cast<double>(end));
      (*batch->body)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (idx < batch->error_chunk) {
        batch->error_chunk = idx;
        batch->error = std::current_exception();
      }
    }
    --g_chunk_depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++batch->done == batch->chunk_count) done_cv_.notify_all();
    }
    // `batch` must not be touched past this point: counting the final chunk
    // releases the caller, which destroys the stack-allocated Batch.
  }

  /// Claims and executes one chunk of `batch`. Returns false once the batch
  /// has no unclaimed chunks left. Only safe for a batch the caller keeps
  /// alive itself (Pool::run's own batch).
  bool run_chunk(Batch* batch) {
    size_t idx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch->next >= batch->chunk_count) return false;
      idx = batch->next++;
    }
    execute_chunk(batch, idx);
    return true;
  }

  void worker_loop() {
    for (;;) {
      Batch* batch = nullptr;
      size_t idx = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          if (stopping_) return true;
          for (Batch* b : queue_)
            if (b->next < b->chunk_count) return true;
          return false;
        });
        if (stopping_) return;
        for (Batch* b : queue_) {
          if (b->next < b->chunk_count) {
            batch = b;
            idx = batch->next++;  // claim while still holding the lock
            break;
          }
        }
      }
      if (batch != nullptr) execute_chunk(batch, idx);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Batch*> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  int threads_ = 1;
};

}  // namespace

bool parse_thread_spec(const char* spec, int* out) {
  if (spec == nullptr || *spec == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(spec, &end, 10);
  if (errno != 0 || end == spec || *end != '\0') return false;
  if (v < 1 || v > static_cast<long>(kMaxThreads)) return false;
  *out = static_cast<int>(v);
  return true;
}

int thread_count() { return Pool::instance().threads(); }

void set_thread_count(int n) {
  if (n < 1 || n > kMaxThreads) {
    const int clamped = std::clamp(n, 1, kMaxThreads);
    util::log_warn(util::strfmt(
        "par: set_thread_count(%d) out of [1, %d]; clamping to %d", n,
        kMaxThreads, clamped));
    n = clamped;
  }
  Pool::instance().resize(n);
}

void parallel_for(size_t n, const std::function<void(size_t, size_t)>& body,
                  const char* tag) {
  if (n == 0) return;
  Pool& pool = Pool::instance();
  const size_t executors = static_cast<size_t>(pool.threads());
  if (g_chunk_depth > 0 || executors <= 1 || n <= 1) {
    body(0, n);
    return;
  }
  // Static chunking: boundaries depend only on (n, thread count), never on
  // scheduling. A few chunks per executor smooths uneven chunk costs while
  // keeping per-chunk span overhead negligible.
  size_t chunk_count = std::min(n, executors * 4);
  const size_t chunk_size = (n + chunk_count - 1) / chunk_count;
  chunk_count = (n + chunk_size - 1) / chunk_size;

  Batch batch;
  batch.body = &body;
  batch.tag = tag;
  batch.n = n;
  batch.chunk_size = chunk_size;
  batch.chunk_count = chunk_count;
  pool.run(batch);
}

}  // namespace smart::par
