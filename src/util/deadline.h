#pragma once

/// \file deadline.h
/// Wall-clock deadline shared across pipeline stages. One Deadline is
/// created at the top of a request (a solver call, a sizing, a served
/// request) and passed down by pointer; every expensive stage — the
/// path extraction build, constraint generation loops, each Newton
/// iteration — polls `expired()` and aborts with a structured kTimeout
/// instead of running to completion. `remaining_ms()` lets a stage hand the
/// rest of the budget to a child stage (the serving layer's "client
/// deadline minus elapsed queue time" math).

#include <chrono>
#include <cstdint>

#include "util/check.h"

namespace smart::util {

/// Thrown by pipeline stages that cannot return a partial result in band
/// (e.g. mid-extraction); callers map it to FailureReason::kTimeout.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

struct Deadline {
  std::chrono::steady_clock::time_point at;
  bool enabled = false;

  /// A deadline `ms` milliseconds from now; ms < 0 disables (never expires).
  static Deadline from_ms(double ms) {
    Deadline d;
    if (ms >= 0.0) {
      d.enabled = true;
      d.at = std::chrono::steady_clock::now() +
             std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0));
    }
    return d;
  }

  bool expired() const {
    return enabled && std::chrono::steady_clock::now() >= at;
  }

  /// Budget left in milliseconds: never negative when enabled, -1 when
  /// disabled (the pipeline's "no deadline" convention).
  double remaining_ms() const {
    if (!enabled) return -1.0;
    const auto left = std::chrono::duration<double, std::milli>(
        at - std::chrono::steady_clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }
};

/// Nullable-deadline poll: a nullptr deadline never expires.
inline bool deadline_expired(const Deadline* d) {
  return d != nullptr && d->expired();
}

}  // namespace smart::util
