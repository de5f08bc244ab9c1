#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>

#include "obs/obs.h"
#include "par/par.h"
#include "prof/prof.h"
#include "prof/resource.h"
#include "util/fault.h"
#include "util/file.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

/// Retained-sample cap for the daemon's profiler: bounds its memory, and at
/// the default 99 Hz keeps roughly the last 10 CPU-minutes.
constexpr size_t kProfileMaxSamples = 1 << 16;

/// ServerStats' event counters with the obs counter each one feeds, in
/// kStats snapshot order. The snapshot keys them by field name, the counter
/// name without its "serve." prefix.
struct StatCounter {
  uint64_t ServerStats::*field;
  std::string_view counter;
};
constexpr std::string_view kCounterPrefix = "serve.";
constexpr StatCounter kStatCounters[] = {
    {&ServerStats::accepted, "serve.accepted"},
    {&ServerStats::rejected, "serve.rejected"},
    {&ServerStats::requests, "serve.requests"},
    {&ServerStats::responses, "serve.responses"},
    {&ServerStats::shed, "serve.shed"},
    {&ServerStats::bad_frames, "serve.bad_frames"},
    {&ServerStats::timeouts, "serve.timeouts"},
    {&ServerStats::errors, "serve.errors"},
    {&ServerStats::abandoned, "serve.abandoned"},
    {&ServerStats::reaped_idle, "serve.reaped_idle"},
    {&ServerStats::io_faults, "serve.io_faults"},
    {&ServerStats::pings, "serve.pings"},
    {&ServerStats::stats_requests, "serve.stats_requests"},
    {&ServerStats::health_requests, "serve.health_requests"},
    {&ServerStats::slow_captured, "serve.slow_captured"},
};

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Wake-pipe write end the signal handler targets. A single write() is
/// async-signal-safe; everything else happens on the io thread.
std::atomic<int> g_signal_wake_fd{-1};

void on_shutdown_signal(int /*signum*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'S';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

int64_t unix_ms_now() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Stage-histogram JSON for the kStats snapshot: the all-time count and
/// mean, and the window (the last obs::kHistogramWindow samples) summary.
std::string hist_json(const obs::Histogram& h) {
  const obs::HistogramSummary s = h.summary();
  return util::strfmt(
      "{\"count\":%zu,\"window\":%zu,\"min\":%.3f,\"max\":%.3f,"
      "\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f}",
      s.count, s.window, s.min, s.max, s.mean, s.p50, s.p90, s.p99);
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(const ServeContext& ctx, ServerOptions options)
    : ctx_(ctx), opt_(std::move(options)) {
  if (opt_.enable_cache)
    cache_ = std::make_unique<ResultCache>(opt_.cache_capacity);
  ctx_.cache = cache_.get();
}

Server::~Server() {
  if (running_.load(std::memory_order_acquire)) {
    request_shutdown();
    wait();
  }
  for (const int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void Server::bump(uint64_t ServerStats::*field) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(stats_.*field);
  }
  for (const StatCounter& c : kStatCounters)
    if (c.field == field) obs::Telemetry::instance().counter_add(c.counter);
}

void Server::bump_code(ErrorCode code) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++errors_by_code_[static_cast<uint16_t>(code)];
}

util::Status Server::start() {
  if (running_.load(std::memory_order_acquire))
    return util::Status::Fail(util::FailureReason::kInvalidInput,
                              "server already running");
  if (::pipe(wake_pipe_) != 0)
    return util::Status::Fail(
        util::FailureReason::kInternal,
        util::strfmt("pipe: %s", std::strerror(errno)));
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  const bool unix_mode = !opt_.unix_path.empty();
  listen_fd_ = ::socket(unix_mode ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return util::Status::Fail(
        util::FailureReason::kInternal,
        util::strfmt("socket: %s", std::strerror(errno)));

  if (unix_mode) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Status::Fail(util::FailureReason::kInvalidInput,
                                "unix socket path too long");
    }
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opt_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string err =
          util::strfmt("bind %s: %s", opt_.unix_path.c_str(),
                       std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Status::Fail(util::FailureReason::kInternal, err);
    }
    endpoint_ = opt_.unix_path;
  } else {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opt_.port));
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Status::Fail(
          util::FailureReason::kInvalidInput,
          util::strfmt("bad bind address '%s'", opt_.host.c_str()));
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string err = util::strfmt("bind %s:%d: %s",
                                           opt_.host.c_str(), opt_.port,
                                           std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Status::Fail(util::FailureReason::kInternal, err);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
    endpoint_ = util::strfmt("%s:%d", opt_.host.c_str(), bound_port_);
  }

  if (::listen(listen_fd_, 64) != 0) {
    const std::string err =
        util::strfmt("listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::Fail(util::FailureReason::kInternal, err);
  }
  set_nonblocking(listen_fd_);

  // SMART-Pulse state, configured before any thread can touch it.
  started_ = std::chrono::steady_clock::now();
  if (!access_log_.configure(opt_.access_log_capacity, opt_.access_log_path))
    util::log_warn(util::strfmt("smartd: cannot open access log %s",
                                opt_.access_log_path.c_str()));
  if (!spool_.configure(opt_.slow_spool_dir, opt_.slow_threshold_ms))
    util::log_warn(util::strfmt("smartd: cannot create slow spool dir %s",
                                opt_.slow_spool_dir.c_str()));
  if (!opt_.profile_dir.empty()) {
    if (::mkdir(opt_.profile_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      util::log_warn(util::strfmt("smartd: cannot create profile dir %s",
                                  opt_.profile_dir.c_str()));
    } else {
      prof::ProfilerOptions popt;
      popt.hz = opt_.profile_hz;
      popt.max_samples = kProfileMaxSamples;
      if (const util::Status st = prof::Profiler::instance().start(popt);
          st.ok()) {
        profiling_ = true;
        util::log_info(util::strfmt("smartd: profiling at %.0f Hz -> %s",
                                    opt_.profile_hz,
                                    opt_.profile_dir.c_str()));
      } else {
        util::log_warn(
            util::strfmt("smartd: profiler start failed: %s",
                         st.detail.c_str()));
      }
    }
  }

  const int n = opt_.workers > 0 ? opt_.workers
                                 : std::max(1, par::thread_count());
  worker_count_ = n;
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  io_thread_ = std::thread([this] { io_loop(); });
  if (!opt_.metrics_out.empty() && opt_.metrics_flush_ms > 0.0) {
    stop_flush_ = false;
    flush_thread_ = std::thread([this] { flush_loop(); });
  }
  util::log_info(util::strfmt("smartd: listening on %s (%d workers)",
                              endpoint_.c_str(), n));
  return util::Status::Ok();
}

void Server::flush_loop() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  const auto interval = std::chrono::duration<double, std::milli>(
      opt_.metrics_flush_ms);
  while (!stop_flush_) {
    flush_cv_.wait_for(lock, interval, [&] { return stop_flush_; });
    if (stop_flush_) break;
    // The exporter snapshots under the telemetry lock without clearing
    // state; the atomic replace keeps readers (and crashes) safe.
    lock.unlock();
    obs::Telemetry::instance().write_metrics(opt_.metrics_out);
    lock.lock();
  }
}

void Server::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'S';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  if (flush_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      stop_flush_ = true;
    }
    flush_cv_.notify_all();
    flush_thread_.join();
  }
  running_.store(false, std::memory_order_release);
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  // Part of the graceful-drain contract: telemetry written after the last
  // in-flight request has finished, so the export reflects the whole run.
  auto& tel = obs::Telemetry::instance();
  if (!opt_.metrics_out.empty() && !tel.write_metrics(opt_.metrics_out))
    util::log_warn(util::strfmt("smartd: cannot write metrics to %s",
                                opt_.metrics_out.c_str()));
  if (!opt_.trace_out.empty() && !tel.write_chrome_trace(opt_.trace_out))
    util::log_warn(util::strfmt("smartd: cannot write trace to %s",
                                opt_.trace_out.c_str()));
  if (profiling_) {
    auto& profiler = prof::Profiler::instance();
    profiler.stop();
    profiling_ = false;
    const std::string base = opt_.profile_dir + "/profile-full";
    if (!profiler.write_folded(base + ".folded") ||
        !profiler.write_speedscope(base + ".speedscope.json", "smartd"))
      util::log_warn(util::strfmt("smartd: cannot write run profile to %s",
                                  opt_.profile_dir.c_str()));
  }
}

ServerStats Server::stats() const {
  ServerStats snap;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snap = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    snap.queue_depth = queue_.size();
    snap.in_flight = in_flight_;
  }
  snap.connections = conn_count_.load(std::memory_order_relaxed);
  return snap;
}

void Server::install_signal_handlers(Server* server) {
  g_signal_wake_fd.store(server != nullptr ? server->wake_pipe_[1] : -1,
                         std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = server != nullptr ? on_shutdown_signal : SIG_DFL;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Server::io_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({draining_.load(std::memory_order_relaxed) ? -1
                                                             : listen_fd_,
                   POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      fds.push_back({fd, POLLIN, 0});
      polled.push_back(conn);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      bool shutdown_byte = false;
      for (;;) {
        const ssize_t n = ::read(wake_pipe_[0], buf, sizeof(buf));
        if (n <= 0) break;
        for (ssize_t i = 0; i < n; ++i)
          if (buf[i] == 'S') shutdown_byte = true;
      }
      if (shutdown_byte ||
          shutdown_requested_.load(std::memory_order_acquire))
        begin_drain();
    }
    if ((fds[1].revents & POLLIN) != 0) accept_pending();
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[2 + i].revents;
      const auto& conn = polled[i];
      if (conn->closed.load(std::memory_order_acquire) ||
          (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        close_conn(conn->fd);
        continue;
      }
      if ((revents & POLLIN) != 0) read_conn(conn);
    }
    reap_idle();

    if (draining_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty() && in_flight_ == 0) break;
    }
  }

  // Drained: release the workers, then drop every connection (closing the
  // sockets tells lingering clients the daemon is gone).
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (const auto& [fd, conn] : conns_)
    conn->closed.store(true, std::memory_order_release);
  conns_.clear();
  conn_count_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  util::log_info("smartd: drained");
}

void Server::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  util::log_info("smartd: drain requested; finishing in-flight requests");
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::accept_pending() {
  for (;;) {
    if (listen_fd_ < 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error; poll will retry
    }
    // Injected accept failure: the kernel handed us a connection but the
    // daemon "fails" it — the client sees a reset and retries.
    if (util::fault_fires(util::FaultClass::kServeIoFail, "serve.accept")) {
      ::close(fd);
      bump(&ServerStats::io_faults);
      continue;
    }
    if (conns_.size() >= opt_.max_connections) {
      ::close(fd);
      bump(&ServerStats::rejected);
      continue;
    }
    set_nonblocking(fd);
    if (opt_.unix_path.empty()) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    if (opt_.unix_path.empty()) {
      sockaddr_in sa{};
      socklen_t slen = sizeof(sa);
      char ip[INET_ADDRSTRLEN] = "?";
      if (::getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &slen) == 0 &&
          ::inet_ntop(AF_INET, &sa.sin_addr, ip, sizeof(ip)) != nullptr)
        conn->peer = util::strfmt("%s:%d", ip, ntohs(sa.sin_port));
    } else {
      conn->peer = "unix";
    }
    conn->last_active_ms.store(now_ms(), std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_relaxed);
    bump(&ServerStats::accepted);
  }
}

void Server::read_conn(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    if (util::fault_fires(util::FaultClass::kServeIoFail, "serve.read")) {
      bump(&ServerStats::io_faults);
      close_conn(conn->fd);
      return;
    }
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {  // peer closed
      close_conn(conn->fd);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn->fd);
      return;
    }
    const size_t received = static_cast<size_t>(n);
    conn->rbuf.append(buf, received);
    // Frame-corruption site: flip the last received byte; the checksum in
    // decode_frame must turn this into kBadFrame, never a garbage solve.
    if (util::fault_fires(util::FaultClass::kServeFrameCorrupt,
                          "serve.frame"))
      conn->rbuf[conn->rbuf.size() - 1] =
          static_cast<char>(conn->rbuf[conn->rbuf.size() - 1] ^ 0x5A);
    conn->last_active_ms.store(now_ms(), std::memory_order_relaxed);
    if (received < sizeof(buf)) break;  // drained the socket
  }

  while (!conn->closed.load(std::memory_order_acquire)) {
    Frame frame;
    size_t consumed = 0;
    std::string err;
    bool bad_version = false;
    obs::StopWatch decode_watch;
    const DecodeStatus st =
        decode_frame(conn->rbuf.data(), conn->rbuf.size(), &frame,
                     &consumed, &err, &bad_version);
    const double decode_us = decode_watch.elapsed_ms() * 1000.0;
    if (st == DecodeStatus::kNeedMore) {
      if (conn->rbuf.size() > kHeaderSize + kMaxPayload) {
        bump(&ServerStats::bad_frames);
        send_error(conn, 0, ErrorCode::kBadFrame, "oversized frame", 250.0);
        close_conn(conn->fd);
      }
      return;
    }
    if (st == DecodeStatus::kBad) {
      bump(&ServerStats::bad_frames);
      send_error(conn, 0,
                 bad_version ? ErrorCode::kUnsupportedVersion
                             : ErrorCode::kBadFrame,
                 err, 250.0);
      close_conn(conn->fd);
      return;
    }
    conn->rbuf.erase(0, consumed);
    dispatch(conn, std::move(frame), decode_us);
  }
}

void Server::dispatch(const std::shared_ptr<Conn>& conn, Frame frame,
                      double decode_us) {
  switch (frame.type) {
    case FrameType::kPing: {
      bump(&ServerStats::pings);
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      pong.trace_id = frame.trace_id;
      send_frame(conn, pong, 250.0);
      return;
    }
    case FrameType::kShutdown: {
      Frame ack;
      ack.type = FrameType::kResult;
      ack.request_id = frame.request_id;
      ack.trace_id = frame.trace_id;
      ack.payload = "{\"draining\":true}";
      send_frame(conn, ack, 250.0);
      begin_drain();
      return;
    }
    // The admin plane answers on the io thread — cheap JSON snapshots
    // must not queue behind solves, and they keep working while the
    // daemon drains (a dying server is exactly when probes matter).
    case FrameType::kStats: {
      bump(&ServerStats::stats_requests);
      Frame reply;
      reply.type = FrameType::kResult;
      reply.request_id = frame.request_id;
      reply.trace_id = frame.trace_id;
      reply.payload = stats_json();
      send_frame(conn, reply, opt_.write_timeout_ms);
      return;
    }
    case FrameType::kHealth: {
      bump(&ServerStats::health_requests);
      Frame reply;
      reply.type = FrameType::kResult;
      reply.request_id = frame.request_id;
      reply.trace_id = frame.trace_id;
      reply.payload = health_json();
      send_frame(conn, reply, 250.0);
      return;
    }
    case FrameType::kSize:
    case FrameType::kAdvise:
    case FrameType::kLint:
    case FrameType::kReport:
      break;
    default:
      // A response-type frame from a client is a protocol violation.
      bump(&ServerStats::bad_frames);
      send_error(conn, frame.request_id, ErrorCode::kBadFrame,
                 util::strfmt("unexpected frame type %s",
                              to_string(frame.type)),
                 250.0, frame.trace_id);
      close_conn(conn->fd);
      return;
  }

  if (draining_.load(std::memory_order_relaxed)) {
    send_error(conn, frame.request_id, ErrorCode::kShuttingDown,
               "daemon is draining; request not started", 250.0,
               frame.trace_id);
    return;
  }
  const uint64_t id = frame.request_id;
  const uint64_t trace_id = frame.trace_id;
  const FrameType op = frame.type;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= opt_.max_queue) {
      shed = true;
    } else {
      WorkItem item;
      item.conn = conn;
      item.enqueued = std::chrono::steady_clock::now();
      item.deadline = util::Deadline::from_ms(frame.deadline_ms);
      item.decode_us = decode_us;
      item.enqueue_ts_us = obs::Telemetry::instance().now_us();
      item.frame = std::move(frame);
      queue_.push_back(std::move(item));
    }
  }
  if (shed) {
    bump(&ServerStats::shed);
    send_error(conn, id, ErrorCode::kOverloaded,
               util::strfmt("queue full (%zu queued)", opt_.max_queue),
               250.0, trace_id);
    // Shed requests never reach a worker; account them here so the
    // access log covers every admitted-or-refused request.
    RequestRecord rec;
    rec.trace_id = trace_id;
    rec.request_id = id;
    rec.peer = conn->peer;
    rec.op = to_string(op);
    rec.status = to_string(ErrorCode::kOverloaded);
    rec.decode_us = decode_us;
    rec.total_us = decode_us;
    rec.unix_ms = unix_ms_now();
    access_log_.append(rec);
    return;
  }
  conn->outstanding.fetch_add(1, std::memory_order_relaxed);
  bump(&ServerStats::requests);
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    process(std::move(item));
  }
}

void Server::process(WorkItem item) {
  auto& tel = obs::Telemetry::instance();
  const double queue_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - item.enqueued)
          .count();
  const double queue_us = queue_ms * 1000.0;
  tel.hist_record("serve.queue_ms", queue_ms);
  stage_.queue_ms.record(queue_ms);
  stage_.decode_ms.record(item.decode_us / 1000.0);
  // The queue wait happened on no thread — record it as an explicit span
  // (enqueue timestamp + measured duration) so the trace shows the gap
  // between client send and worker pickup under the request's trace id.
  if (tel.enabled() && item.frame.trace_id != 0) {
    obs::SpanEvent ev;
    ev.name = "serve.queue";
    ev.cat = "serve";
    ev.ts_us = item.enqueue_ts_us;
    ev.dur_us = queue_us;
    ev.trace_id = item.frame.trace_id;
    tel.record_span(std::move(ev));
  }

  // Every span below (serve.worker, and the sizer.*/gp.* spans inside the
  // handler) inherits the request's trace id from this thread context.
  obs::ScopedTraceId trace_scope(item.frame.trace_id);

  RequestRecord rec;
  rec.trace_id = item.frame.trace_id;
  rec.request_id = item.frame.request_id;
  rec.peer = item.conn->peer;
  rec.op = to_string(item.frame.type);
  rec.queue_us = queue_us;
  rec.decode_us = item.decode_us;

  const auto finish = [&] {
    rec.total_us = item.decode_us + queue_us + rec.solve_us + rec.encode_us;
    rec.unix_ms = unix_ms_now();
    stage_.total_ms.record(rec.total_us / 1000.0);
    access_log_.append(rec);
    item.conn->outstanding.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(queue_mu_);
    --in_flight_;
  };

  // Client already gone (mid-request disconnect): don't burn a solve.
  if (item.conn->closed.load(std::memory_order_acquire)) {
    bump(&ServerStats::abandoned);
    rec.status = "abandoned";
    finish();
    return;
  }
  // Deadline spent in the queue: typed timeout, no solver time wasted.
  if (item.deadline.expired()) {
    bump(&ServerStats::timeouts);
    send_error(item.conn, item.frame.request_id, ErrorCode::kTimeout,
               "deadline expired before the request started",
               opt_.write_timeout_ms, item.frame.trace_id);
    rec.status = to_string(ErrorCode::kTimeout);
    finish();
    return;
  }
  // Worker-stall site: a bounded hiccup, long enough that concurrent
  // clients pile into the queue and admission control gets exercised.
  if (util::fault_fires(util::FaultClass::kServeWorkerStall,
                        "serve.worker"))
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Deadline propagation: client budget minus queueing delay becomes the
  // solver's deadline (-1 = unbounded).
  const double budget_ms = item.deadline.remaining_ms();
  obs::StopWatch watch;
  HandlerOutcome out;
  {
    obs::Span span("serve.worker", "serve");
    prof::ResourceScope worker_rusage("serve.worker");
    span.arg("queue_ms", queue_ms);
    out = handle_request(ctx_, item.frame.type, item.frame.payload,
                         budget_ms);
  }
  const double solve_ms = watch.elapsed_ms();
  tel.hist_record("serve.request_ms", solve_ms);
  stage_.solve_ms.record(solve_ms);
  rec.solve_us = solve_ms * 1000.0;
  rec.macro = out.macro;
  rec.cache = out.cache;
  rec.rung = out.rung;

  Frame reply;
  reply.request_id = item.frame.request_id;
  reply.trace_id = item.frame.trace_id;
  if (out.status.ok()) {
    reply.type = FrameType::kResult;
    reply.payload = out.payload;
    rec.status = "ok";
    // Server-side stage breakdown, spliced into the result JSON so the
    // client can report where its latency went (see Client::last_call).
    const size_t brace = reply.payload.rfind('}');
    if (brace != std::string::npos)
      reply.payload.insert(
          brace,
          util::strfmt(",\"pulse\":{\"queue_us\":%.1f,\"decode_us\":%.1f,"
                       "\"solve_us\":%.1f}",
                       queue_us, item.decode_us, rec.solve_us));
  } else {
    bump(&ServerStats::errors);
    reply.type = FrameType::kError;
    reply.error = error_from(out.status);
    reply.payload = util::strfmt(
        "{\"error\":\"%s\",\"detail\":\"%s\"}", to_string(reply.error),
        util::json_escape(out.status.detail).c_str());
    bump_code(reply.error);
    rec.status = to_string(reply.error);
  }
  obs::StopWatch encode_watch;
  if (send_frame(item.conn, reply, opt_.write_timeout_ms)) {
    bump(&ServerStats::responses);
  } else {
    bump(&ServerStats::abandoned);
    rec.status = "abandoned";
  }
  const double encode_ms = encode_watch.elapsed_ms();
  stage_.encode_ms.record(encode_ms);
  rec.encode_us = encode_ms * 1000.0;
  busy_us_.fetch_add(
      static_cast<uint64_t>((solve_ms + encode_ms) * 1000.0),
      std::memory_order_relaxed);
  item.conn->last_active_ms.store(now_ms(), std::memory_order_relaxed);

  // Slow-request capture: record + original request + solve diagnostics,
  // spooled crash-safely for offline analysis.
  const double total_ms =
      (item.decode_us + queue_us + rec.solve_us + rec.encode_us) / 1000.0;
  if (spool_.enabled() && total_ms > spool_.threshold_ms()) {
    rec.total_us = total_ms * 1000.0;
    rec.unix_ms = unix_ms_now();
    if (spool_.capture(rec, item.frame.payload, out.diag)) {
      bump(&ServerStats::slow_captured);
    }
    // SMART-Prof join: snapshot this slow request's CPU samples (matched
    // by trace id) next to its spool entry, so "why was it slow" comes
    // with a flamegraph, not just a record.
    if (profiling_ && item.frame.trace_id != 0) {
      auto& profiler = prof::Profiler::instance();
      profiler.drain();
      prof::FoldedOptions fopt;
      fopt.trace_filter = item.frame.trace_id;
      const std::string folded = profiler.folded(fopt);
      if (!folded.empty()) {
        const std::string path = util::strfmt(
            "%s/profile-%016llx.folded", opt_.profile_dir.c_str(),
            static_cast<unsigned long long>(item.frame.trace_id));
        if (util::write_file(path, folded))
          tel.counter_add("serve.profile_captured");
      }
    }
  }
  finish();
}

bool Server::send_frame(const std::shared_ptr<Conn>& conn,
                        const Frame& frame, double timeout_ms) {
  const std::string bytes = encode_frame(frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return false;
  const auto give_up = [&] {
    // Mark dead and half-close so the io thread's poll sees HUP and
    // removes the connection; the fd itself closes with the last ref.
    conn->closed.store(true, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    return false;
  };
  obs::StopWatch watch;
  size_t off = 0;
  while (off < bytes.size()) {
    if (util::fault_fires(util::FaultClass::kServeIoFail, "serve.write")) {
      bump(&ServerStats::io_faults);
      return give_up();
    }
    const ssize_t n = ::send(conn->fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Slow-client protection: wait for writability only within the
      // response's write budget, then disconnect.
      const double left = timeout_ms - watch.elapsed_ms();
      if (left <= 0.0) return give_up();
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, static_cast<int>(std::min(left, 100.0)) + 1);
      continue;
    }
    return give_up();
  }
  return true;
}

void Server::send_error(const std::shared_ptr<Conn>& conn,
                        uint64_t request_id, ErrorCode code,
                        const std::string& detail, double timeout_ms,
                        uint64_t trace_id) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.error = code;
  frame.request_id = request_id;
  frame.trace_id = trace_id;
  frame.payload =
      util::strfmt("{\"error\":\"%s\",\"detail\":\"%s\"}", to_string(code),
                   util::json_escape(detail).c_str());
  bump_code(code);
  send_frame(conn, frame, timeout_ms);
}

void Server::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  it->second->closed.store(true, std::memory_order_release);
  conns_.erase(it);  // fd closes when the last worker drops its reference
  conn_count_.store(conns_.size(), std::memory_order_relaxed);
}

void Server::reap_idle() {
  if (opt_.idle_timeout_ms <= 0.0) return;
  const int64_t now = now_ms();
  std::vector<int> victims;
  for (const auto& [fd, conn] : conns_) {
    if (conn->outstanding.load(std::memory_order_relaxed) > 0) continue;
    const int64_t idle =
        now - conn->last_active_ms.load(std::memory_order_relaxed);
    if (static_cast<double>(idle) > opt_.idle_timeout_ms)
      victims.push_back(fd);
  }
  for (const int fd : victims) {
    close_conn(fd);
    bump(&ServerStats::reaped_idle);
  }
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const auto u64 = [](uint64_t v) {
    return util::strfmt("%llu", static_cast<unsigned long long>(v));
  };

  std::string out = "{";
  out += util::strfmt("\"uptime_s\":%.3f,", uptime_s);
  out += "\"endpoint\":\"" + util::json_escape(endpoint_) + "\",";
  out += util::strfmt("\"protocol_version\":%u,", kProtocolVersion);
  out += util::strfmt("\"draining\":%s,",
                      draining_.load(std::memory_order_relaxed) ? "true"
                                                                : "false");
  out += "\"counters\":{";
  for (const StatCounter& c : kStatCounters) {
    if (&c != kStatCounters) out += ",";
    out += "\"";
    out += c.counter.substr(kCounterPrefix.size());
    out += "\":" + u64(s.*c.field);
  }
  out += "},";
  out += "\"gauges\":{";
  out += "\"queue_depth\":" + u64(s.queue_depth) + ",";
  out += "\"in_flight\":" + u64(s.in_flight) + ",";
  out += "\"connections\":" + u64(s.connections) + "},";

  // Worker utilization: busy worker-µs over elapsed worker-µs.
  const uint64_t busy = busy_us_.load(std::memory_order_relaxed);
  const double capacity_us =
      uptime_s * 1e6 * std::max(1, worker_count_);
  out += util::strfmt(
      "\"utilization\":{\"workers\":%d,\"busy_us\":%llu,"
      "\"busy_ratio\":%.4f},",
      worker_count_, static_cast<unsigned long long>(busy),
      capacity_us > 0.0 ? static_cast<double>(busy) / capacity_us : 0.0);

  out += "\"stages\":{";
  out += "\"queue_ms\":" + hist_json(stage_.queue_ms) + ",";
  out += "\"decode_ms\":" + hist_json(stage_.decode_ms) + ",";
  out += "\"solve_ms\":" + hist_json(stage_.solve_ms) + ",";
  out += "\"encode_ms\":" + hist_json(stage_.encode_ms) + ",";
  out += "\"total_ms\":" + hist_json(stage_.total_ms) + "},";

  if (cache_ != nullptr) {
    const CacheStats cs = cache_->stats();
    out += util::strfmt(
        "\"cache\":{\"size\":%zu,\"hits\":%llu,\"near_hits\":%llu,"
        "\"misses\":%llu,\"insertions\":%llu,\"evictions\":%llu,"
        "\"poisoned\":%llu},",
        cache_->size(), static_cast<unsigned long long>(cs.hits),
        static_cast<unsigned long long>(cs.near_hits),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.insertions),
        static_cast<unsigned long long>(cs.evictions),
        static_cast<unsigned long long>(cs.poisoned));
  } else {
    out += "\"cache\":null,";
  }

  out += "\"errors_by_code\":{";
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    bool first = true;
    for (const auto& [code, count] : errors_by_code_) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += to_string(static_cast<ErrorCode>(code));
      out += "\":" + u64(count);
    }
  }
  out += "},";

  out += util::strfmt("\"slow\":{\"threshold_ms\":%.1f,\"captured\":%llu},",
                      spool_.threshold_ms(),
                      static_cast<unsigned long long>(spool_.captured()));
  if (profiling_) {
    auto& profiler = prof::Profiler::instance();
    profiler.drain();
    out += util::strfmt(
        "\"profile\":{\"hz\":%.1f,\"samples\":%llu,\"dropped\":%llu,"
        "\"threads\":%llu},",
        profiler.hz(),
        static_cast<unsigned long long>(profiler.sample_count()),
        static_cast<unsigned long long>(profiler.dropped()),
        static_cast<unsigned long long>(prof::registered_thread_count()));
  }
  out += "\"requests_total\":" + u64(access_log_.total()) + ",";
  out += "\"recent\":" + access_log_.recent_json();
  out += "}";
  return out;
}

std::string Server::health_json() const {
  const ServerStats s = stats();
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  const bool draining = draining_.load(std::memory_order_relaxed);
  return util::strfmt(
      "{\"status\":\"%s\",\"uptime_s\":%.3f,\"endpoint\":\"%s\","
      "\"protocol_version\":%u,\"workers\":%d,\"connections\":%llu,"
      "\"queue_depth\":%llu,\"in_flight\":%llu}",
      draining ? "draining" : "ok", uptime_s,
      util::json_escape(endpoint_).c_str(), kProtocolVersion, worker_count_,
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.queue_depth),
      static_cast<unsigned long long>(s.in_flight));
}

}  // namespace smart::serve
