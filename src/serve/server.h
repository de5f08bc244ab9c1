#pragma once

/// \file server.h
/// The SMART sizing daemon's network core. One poll()-based I/O thread
/// accepts connections (TCP on localhost or a Unix-domain socket), frames
/// requests, and feeds a bounded queue drained by a fixed worker pool that
/// runs the handlers. Robustness properties (see DESIGN.md §11):
///
///   * Admission control — a full queue sheds with kOverloaded instead of
///     queueing unboundedly; clients retry with backoff.
///   * Deadline propagation — each request carries the client's remaining
///     budget; the worker subtracts queueing delay and hands the rest to
///     the solver, so a queued-out request times out cheaply.
///   * Crash isolation — handlers never throw past the worker; any failure
///     becomes a typed error frame on the request's id.
///   * Slow-client protection — response writes poll with a timeout; a
///     stuck client gets disconnected, not a stuck worker.
///   * Idle reaping — connections silent past idle_timeout_ms are closed.
///   * Graceful drain — SIGTERM (or a kShutdown frame) stops accepting,
///     rejects new requests with kShuttingDown, finishes in-flight work,
///     then flushes the obs exporters.
///
/// Fault-injection sites (util::FaultInjector): "serve.accept",
/// "serve.read", "serve.write" (kServeIoFail), "serve.frame"
/// (kServeFrameCorrupt), "serve.worker" (kServeWorkerStall), and
/// "serve.cache.lookup" (kServeCachePoison, in the cache).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/handlers.h"
#include "serve/protocol.h"
#include "serve/pulse.h"
#include "util/deadline.h"
#include "util/status.h"

namespace smart::serve {

struct ServerOptions {
  /// When non-empty, listen on this Unix-domain socket path instead of TCP.
  std::string unix_path;
  /// TCP mode: bind address and port; port 0 picks an ephemeral port
  /// (readable from Server::port() after start()).
  std::string host = "127.0.0.1";
  int port = 0;
  /// Worker threads; 0 = par::thread_count().
  int workers = 0;
  /// Admission control: requests queued beyond this are shed (kOverloaded).
  size_t max_queue = 64;
  size_t max_connections = 128;
  double idle_timeout_ms = 30000.0;
  /// Per-response write budget; a client that cannot drain a response
  /// within it is disconnected.
  double write_timeout_ms = 5000.0;
  size_t cache_capacity = 256;
  bool enable_cache = true;
  /// Obs exports flushed after drain (empty = none).
  std::string metrics_out;
  std::string trace_out;
  /// Periodic metrics flush interval for metrics_out; <= 0 writes only at
  /// drain. With a positive interval a killed daemon still leaves data no
  /// older than this. Every metrics and trace write, periodic or at drain,
  /// is atomic (util::write_file).
  double metrics_flush_ms = 0.0;
  /// SMART-Pulse access log: JSONL file sink (empty = ring only) and the
  /// size of the recent-requests ring exposed through kStats.
  std::string access_log_path;
  size_t access_log_capacity = 64;
  /// Slow-request capture: requests slower than slow_threshold_ms end-to-
  /// end are spooled (record + request + solve diagnostics) into
  /// slow_spool_dir. Empty dir or non-positive threshold disables it.
  std::string slow_spool_dir;
  double slow_threshold_ms = -1.0;
  /// SMART-Prof per-request profiling: when profile_dir is non-empty the
  /// daemon samples continuously at profile_hz (per-thread CPU-time
  /// timers, so idle workers cost nothing). Requests the slow capture
  /// fires on additionally get their samples — matched by trace id —
  /// written to profile_dir/profile-<trace>.folded, and a whole-run
  /// profile (folded + speedscope) lands there at drain.
  std::string profile_dir;
  double profile_hz = 99.0;
};

/// Monotonic counters snapshot; every field counts since start(). With
/// telemetry enabled each counted event also adds to the obs counter
/// `serve.<field>`.
struct ServerStats {
  uint64_t accepted = 0;      ///< connections accepted
  uint64_t rejected = 0;      ///< connections refused at max_connections
  uint64_t requests = 0;      ///< solving requests admitted to the queue
  uint64_t responses = 0;     ///< result/error frames sent by workers
  uint64_t shed = 0;          ///< requests shed by admission control
  uint64_t bad_frames = 0;    ///< corrupt frames (checksum, magic, type)
  uint64_t timeouts = 0;      ///< requests whose deadline expired in queue
  uint64_t errors = 0;        ///< handler failures (typed error frames)
  uint64_t abandoned = 0;     ///< responses dropped: client was gone
  uint64_t reaped_idle = 0;   ///< idle connections closed
  uint64_t io_faults = 0;     ///< injected/real socket-level failures
  uint64_t pings = 0;
  uint64_t stats_requests = 0;   ///< kStats snapshots served
  uint64_t health_requests = 0;  ///< kHealth probes served
  uint64_t slow_captured = 0;    ///< requests spooled by the slow capture
  uint64_t queue_depth = 0;   ///< gauge: queued at snapshot time
  uint64_t in_flight = 0;     ///< gauge: executing at snapshot time
  uint64_t connections = 0;   ///< gauge: open at snapshot time
};

class Server {
 public:
  /// `ctx.cache` is ignored; the server owns its cache (options-gated) and
  /// patches it into the context handed to handlers.
  Server(const ServeContext& ctx, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O thread and worker pool. Returns a
  /// failed status (and starts nothing) when the socket cannot be bound.
  util::Status start();

  /// Asks the server to drain: stop accepting, reject new requests, finish
  /// in-flight ones. Safe from any thread; also triggered by a kShutdown
  /// frame or an installed signal handler.
  void request_shutdown();

  /// Blocks until the server has fully drained and all threads joined,
  /// then flushes the obs exporters named in the options.
  void wait();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound TCP port (valid after start(); 0 in Unix-socket mode).
  int port() const { return bound_port_; }
  /// "host:port" or the Unix socket path.
  const std::string& endpoint() const { return endpoint_; }

  ServerStats stats() const;
  ResultCache* cache() { return cache_ ? cache_.get() : nullptr; }

  /// SMART-Pulse stats snapshot — the JSON served for kStats frames:
  /// uptime, counters, queue/in-flight gauges, per-stage latency
  /// histograms, cache and error-by-code counters, worker utilization,
  /// and the recent-request ring. Safe from any thread.
  std::string stats_json() const;
  /// The JSON served for kHealth frames: status ("ok"/"draining"),
  /// uptime, and headline gauges. Safe from any thread.
  std::string health_json() const;
  /// All-time request records accounted by the access log.
  uint64_t accounted_requests() const { return access_log_.total(); }

  /// Installs SIGTERM/SIGINT handlers that request_shutdown() this server
  /// (async-signal-safe: one write to the wake pipe). Call after start();
  /// pass nullptr to detach.
  static void install_signal_handlers(Server* server);

 private:
  struct Conn {
    int fd = -1;
    std::string rbuf;  ///< io thread only
    std::string peer;  ///< "ip:port" or "unix"; set at accept, then const
    /// Last traffic (steady ms); touched by io thread and workers.
    std::atomic<int64_t> last_active_ms{0};
    /// Requests of this connection queued or executing. The idle reaper
    /// skips connections with outstanding work — a long solve is not idle.
    std::atomic<int> outstanding{0};
    std::mutex write_mu;  ///< serializes response writes
    std::atomic<bool> closed{false};
    ~Conn();
  };

  struct WorkItem {
    std::shared_ptr<Conn> conn;
    Frame frame;
    std::chrono::steady_clock::time_point enqueued;
    util::Deadline deadline;
    double decode_us = 0.0;      ///< frame decode time on the io thread
    double enqueue_ts_us = 0.0;  ///< trace-clock enqueue time (queue span)
  };

  /// Per-stage latency histograms behind the kStats snapshot. Bounded and
  /// always on (independent of the telemetry enable flag) — a daemon must
  /// answer stats after weeks of uptime without unbounded sample growth.
  struct StageHists {
    obs::Histogram queue_ms;
    obs::Histogram decode_ms;
    obs::Histogram solve_ms;
    obs::Histogram encode_ms;
    obs::Histogram total_ms;
  };

  void io_loop();
  void worker_loop();
  void flush_loop();
  void accept_pending();
  void read_conn(const std::shared_ptr<Conn>& conn);
  void dispatch(const std::shared_ptr<Conn>& conn, Frame frame,
                double decode_us);
  void process(WorkItem item);
  /// Encodes and writes a frame with the write-timeout budget; marks the
  /// connection closed on failure. Returns false when the client is gone.
  bool send_frame(const std::shared_ptr<Conn>& conn, const Frame& frame,
                  double timeout_ms);
  void send_error(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                  ErrorCode code, const std::string& detail,
                  double timeout_ms, uint64_t trace_id = 0);
  void close_conn(int fd);
  void begin_drain();
  void reap_idle();
  /// Per-ErrorCode failure accounting (kStats "errors_by_code").
  void bump_code(ErrorCode code);

  ServeContext ctx_;
  ServerOptions opt_;
  std::unique_ptr<ResultCache> cache_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int bound_port_ = 0;
  std::string endpoint_;

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::thread flush_thread_;
  std::map<int, std::shared_ptr<Conn>> conns_;  ///< io thread only

  // ---- SMART-Pulse state ----
  StageHists stage_;
  AccessLog access_log_;
  SlowSpool spool_;
  /// True when start() brought up the SMART-Prof sampler (profile_dir set).
  bool profiling_ = false;
  /// Worker-time accounting for utilization: µs spent handling + encoding
  /// across all workers since start().
  std::atomic<uint64_t> busy_us_{0};
  std::chrono::steady_clock::time_point started_;
  int worker_count_ = 0;

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  bool stop_flush_ = false;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  size_t in_flight_ = 0;
  bool stop_workers_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<size_t> conn_count_{0};

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::map<uint16_t, uint64_t> errors_by_code_;  ///< guarded by stats_mu_
  /// Counts one event in stats_ and in its `serve.<field>` obs counter.
  void bump(uint64_t ServerStats::*field);
};

}  // namespace smart::serve
