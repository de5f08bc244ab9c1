#pragma once

/// \file client.h
/// Blocking client for the sizing daemon with deadline-aware retries.
/// Retry policy: only failures where the request provably never *started*
/// on the server are retried — connect failures, sends that wrote zero
/// bytes to a stale connection, and kOverloaded sheds (the server rejects
/// before queueing). A failed read after a complete send is NOT retried:
/// the solve may be executing, and replaying it would double the work.
/// Backoff is exponential with deterministic jitter (util::Rng).

#include <cstdint>
#include <string>

#include "serve/protocol.h"
#include "util/rng.h"
#include "util/status.h"

namespace smart::serve {

struct ClientOptions {
  /// When non-empty, connect to this Unix-domain socket instead of TCP.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  /// Read budget for a response when the request has no deadline; with a
  /// deadline the budget is deadline + slack.
  double io_timeout_ms = 30000.0;
  /// Retry attempts beyond the first try (0 = never retry).
  int max_retries = 3;
  double backoff_initial_ms = 50.0;
  double backoff_max_ms = 1000.0;
  uint64_t jitter_seed = 0x5eedc11e;
};

/// Per-call timing and trace identity of the most recent call(), always
/// populated (independent of the telemetry flag). Server-side stage
/// micros come from the "pulse" object smartd splices into result
/// payloads; they stay negative when the reply carried none (errors,
/// pings, old servers).
struct CallStats {
  uint64_t trace_id = 0;  ///< id generated for the call (48-bit, nonzero)
  int attempts = 0;       ///< connection+send attempts consumed
  double connect_ms = 0.0;  ///< connect() time (0 on a pooled connection)
  double send_ms = 0.0;     ///< request serialization + socket write
  double wait_ms = 0.0;     ///< send-complete to response-complete
  double decode_ms = 0.0;   ///< client-side response frame decode
  double total_ms = 0.0;    ///< whole call() including retries/backoff
  double server_queue_us = -1.0;
  double server_decode_us = -1.0;
  double server_solve_us = -1.0;
};

class Client {
 public:
  explicit Client(ClientOptions options)
      : opt_(std::move(options)), rng_(opt_.jitter_seed) {}
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and blocks for its response. `deadline_ms` < 0 = no
  /// deadline; otherwise it rides in the frame header and the server
  /// propagates what remains into the solver. On success (`kResult`/
  /// `kPong`) returns Ok with the reply in `*reply`; error frames map back
  /// to a util::Status via reason_from() with the reply still filled in,
  /// so callers can distinguish e.g. kOverloaded from kTimeout.
  util::Status call(FrameType type, const std::string& payload,
                    double deadline_ms, Frame* reply);

  void close();
  bool connected() const { return fd_ >= 0; }
  /// Retries performed across all call()s (observability for tests).
  int retries() const { return retries_; }
  /// Timing/trace breakdown of the most recent call().
  const CallStats& last_call() const { return last_call_; }

 private:
  util::Status connect_once();
  util::Status send_all(const std::string& bytes, double timeout_ms,
                        size_t* sent);
  util::Status read_frame(Frame* out, double timeout_ms);
  void backoff(int attempt);
  /// 48-bit nonzero trace id (fits a JSON double exactly).
  uint64_t make_trace_id();

  ClientOptions opt_;
  util::Rng rng_;
  int fd_ = -1;
  uint64_t next_id_ = 1;
  int retries_ = 0;
  CallStats last_call_;
};

}  // namespace smart::serve
