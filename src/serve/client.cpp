#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/obs.h"
#include "util/json.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

using util::FailureReason;
using util::Status;

/// Budget for establishing a connection.
constexpr double kConnectTimeoutMs = 2000.0;

/// poll() for `events` within `timeout_ms`; false on timeout.
bool wait_fd(int fd, short events, double timeout_ms) {
  pollfd p{fd, events, 0};
  const int rc = ::poll(&p, 1, std::max(0, static_cast<int>(timeout_ms)));
  return rc > 0 && (p.revents & events) != 0;
}

}  // namespace

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status Client::connect_once() {
  close();
  const bool unix_mode = !opt_.unix_path.empty();
  fd_ = ::socket(unix_mode ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    return Status::Fail(FailureReason::kInternal,
                        util::strfmt("socket: %s", std::strerror(errno)));
  sockaddr_un un{};
  sockaddr_in in{};
  const sockaddr* addr = nullptr;
  socklen_t len = 0;
  if (unix_mode) {
    un.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(un.sun_path)) {
      close();
      return Status::Fail(FailureReason::kInvalidInput,
                          "unix socket path too long");
    }
    std::strncpy(un.sun_path, opt_.unix_path.c_str(),
                 sizeof(un.sun_path) - 1);
    addr = reinterpret_cast<const sockaddr*>(&un);
    len = sizeof(un);
  } else {
    in.sin_family = AF_INET;
    in.sin_port = htons(static_cast<uint16_t>(opt_.port));
    if (::inet_pton(AF_INET, opt_.host.c_str(), &in.sin_addr) != 1) {
      close();
      return Status::Fail(
          FailureReason::kInvalidInput,
          util::strfmt("bad address '%s'", opt_.host.c_str()));
    }
    addr = reinterpret_cast<const sockaddr*>(&in);
    len = sizeof(in);
  }

  // Non-blocking connect bounded by kConnectTimeoutMs.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd_, addr, len);
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string err =
        util::strfmt("connect: %s", std::strerror(errno));
    close();
    return Status::Fail(FailureReason::kInternal, err);
  }
  if (rc != 0) {
    if (!wait_fd(fd_, POLLOUT, kConnectTimeoutMs)) {
      close();
      return Status::Fail(FailureReason::kTimeout, "connect timed out");
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len);
    if (soerr != 0) {
      const std::string err =
          util::strfmt("connect: %s", std::strerror(soerr));
      close();
      return Status::Fail(FailureReason::kInternal, err);
    }
  }
  if (!unix_mode) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Status::Ok();
}

util::Status Client::send_all(const std::string& bytes, double timeout_ms,
                              size_t* sent) {
  *sent = 0;
  obs::StopWatch watch;
  while (*sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + *sent,
                             bytes.size() - *sent, MSG_NOSIGNAL);
    if (n > 0) {
      *sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const double left = timeout_ms - watch.elapsed_ms();
      if (left <= 0.0)
        return Status::Fail(FailureReason::kTimeout, "send timed out");
      wait_fd(fd_, POLLOUT, std::min(left, 100.0));
      continue;
    }
    return Status::Fail(FailureReason::kInternal,
                        util::strfmt("send: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

util::Status Client::read_frame(Frame* out, double timeout_ms) {
  std::string buf;
  char chunk[16384];
  obs::StopWatch watch;
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    std::string err;
    obs::StopWatch decode_watch;
    const DecodeStatus st = decode_frame(buf.data(), buf.size(), &frame,
                                         &consumed, &err, nullptr);
    last_call_.decode_ms += decode_watch.elapsed_ms();
    if (st == DecodeStatus::kOk) {
      *out = std::move(frame);
      return Status::Ok();
    }
    if (st == DecodeStatus::kBad)
      return Status::Fail(FailureReason::kInvalidInput,
                          "corrupt response frame: " + err);
    const double left = timeout_ms - watch.elapsed_ms();
    if (left <= 0.0)
      return Status::Fail(FailureReason::kTimeout,
                          "timed out waiting for response");
    if (!wait_fd(fd_, POLLIN, std::min(left, 250.0))) continue;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0)
      return Status::Fail(FailureReason::kInternal,
                          "server closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return Status::Fail(FailureReason::kInternal,
                          util::strfmt("recv: %s", std::strerror(errno)));
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

void Client::backoff(int attempt) {
  double ms = opt_.backoff_initial_ms;
  for (int i = 0; i < attempt && ms < opt_.backoff_max_ms; ++i) ms *= 2.0;
  ms = std::min(ms, opt_.backoff_max_ms);
  ms += rng_.uniform(0.0, opt_.backoff_initial_ms * 0.5);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
}

uint64_t Client::make_trace_id() {
  // Trace ids must differ across clients and processes; the deterministic
  // jitter rng would hand every Client the identical id sequence. Mix a
  // process-wide counter, the pid, and elapsed time through a splitmix64
  // finalizer instead, and keep 48 bits so the id survives the
  // double-typed JSON number round trip exactly.
  static std::atomic<uint64_t> seq{0};
  uint64_t x = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  x ^= static_cast<uint64_t>(::getpid()) << 40;
  x += 0x9e3779b97f4a7c15ull *
       (seq.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  const uint64_t id = x & 0xFFFFFFFFFFFFull;
  return id != 0 ? id : 1;
}

namespace {

/// Pulls the server-reported stage breakdown (the "pulse" object smartd
/// splices into result payloads) into the call stats. Quietly a no-op for
/// error replies, pings, and pre-v2 servers.
void parse_server_pulse(const Frame& reply, CallStats* stats) {
  if (reply.type != FrameType::kResult || reply.payload.empty()) return;
  if (reply.payload.find("\"pulse\"") == std::string::npos) return;
  util::JsonValue doc;
  if (!util::json_parse(reply.payload, &doc)) return;
  const util::JsonValue* pulse = doc.find("pulse");
  if (pulse == nullptr) return;
  if (const util::JsonValue* v = pulse->find("queue_us"))
    stats->server_queue_us = v->number;
  if (const util::JsonValue* v = pulse->find("decode_us"))
    stats->server_decode_us = v->number;
  if (const util::JsonValue* v = pulse->find("solve_us"))
    stats->server_solve_us = v->number;
}

}  // namespace

util::Status Client::call(FrameType type, const std::string& payload,
                          double deadline_ms, Frame* reply) {
  // kShutdown is fired at most once — replaying it is harmless in effect
  // but the policy is "retry only what provably never started".
  const bool retryable = type != FrameType::kShutdown;
  const int attempts = retryable ? opt_.max_retries + 1 : 1;
  Status last = Status::Fail(FailureReason::kInternal, "not attempted");

  last_call_ = CallStats{};
  last_call_.trace_id = make_trace_id();
  // Client-side spans join the request's cross-process trace: everything
  // recorded here and everything the server records for this request
  // carries the same trace id.
  obs::ScopedTraceId trace_scope(last_call_.trace_id);
  obs::Span call_span("client.call", "serve");
  obs::StopWatch total_watch;

  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      backoff(attempt - 1);
    }
    ++last_call_.attempts;
    if (fd_ < 0) {
      obs::Span connect_span("client.connect", "serve");
      obs::StopWatch connect_watch;
      last = connect_once();
      last_call_.connect_ms += connect_watch.elapsed_ms();
      if (!last.ok()) continue;  // connect never starts the request
    }

    Frame frame;
    frame.type = type;
    frame.request_id = next_id_++;
    frame.deadline_ms = deadline_ms;
    frame.trace_id = last_call_.trace_id;
    frame.payload = payload;
    size_t sent = 0;
    const std::string bytes = encode_frame(frame);
    const double send_budget =
        deadline_ms >= 0.0 ? deadline_ms : opt_.io_timeout_ms;
    obs::StopWatch send_watch;
    {
      obs::Span send_span("client.send", "serve");
      last = send_all(bytes, send_budget, &sent);
    }
    last_call_.send_ms += send_watch.elapsed_ms();
    if (!last.ok()) {
      const bool never_started = sent == 0;
      close();
      if (never_started) continue;  // stale pooled connection; safe retry
      last_call_.total_ms = total_watch.elapsed_ms();
      return last;  // partially sent: the server may be solving it
    }

    const double read_budget = deadline_ms >= 0.0
                                   ? deadline_ms + 2000.0
                                   : opt_.io_timeout_ms;
    obs::StopWatch wait_watch;
    {
      obs::Span wait_span("client.wait", "serve");
      last = read_frame(reply, read_budget);
    }
    last_call_.wait_ms += wait_watch.elapsed_ms();
    if (!last.ok()) {
      close();
      last_call_.total_ms = total_watch.elapsed_ms();
      return last;  // request may be executing; never replay
    }
    // A server that could not decode the request (corruption in flight)
    // answers with id 0 — it cannot know the real id. Attribute that error
    // frame to this request; any other id mismatch is a protocol bug.
    const bool anonymous_error =
        reply->type == FrameType::kError && reply->request_id == 0;
    if (reply->request_id != frame.request_id && !anonymous_error) {
      last_call_.total_ms = total_watch.elapsed_ms();
      return Status::Fail(FailureReason::kInternal,
                          "response id does not match request");
    }

    if (reply->type == FrameType::kError &&
        reply->error == ErrorCode::kOverloaded) {
      // Shed by admission control before queueing: provably not started.
      last = Status::Fail(FailureReason::kInternal,
                          "server overloaded: " + reply->payload);
      continue;
    }
    last_call_.total_ms = total_watch.elapsed_ms();
    parse_server_pulse(*reply, &last_call_);
    if (reply->type == FrameType::kError)
      return Status::Fail(reason_from(reply->error), reply->payload);
    return Status::Ok();
  }
  last_call_.total_ms = total_watch.elapsed_ms();
  return last;
}

}  // namespace smart::serve
