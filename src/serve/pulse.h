#pragma once

/// \file pulse.h
/// SMART-Pulse: per-request accounting for the serving layer. Three
/// pieces (see DESIGN.md §12):
///
///   * RequestRecord — one structured record per served request: trace
///     id, peer, macro key, cache outcome, sizing rung, per-stage micros
///     (queue/decode/solve/encode/total), and final status.
///   * AccessLog — a bounded in-memory ring of the most recent records
///     (exposed through the kStats snapshot) plus an optional append-only
///     JSONL file sink, one record per line.
///   * SlowSpool — automatic capture of requests whose total latency
///     exceeds a threshold: the record, the original request JSON, and
///     the SMART-Scope solve diagnostics are written to a spool
///     directory atomically (util::write_file) for offline analysis.
///
/// Everything here is thread-safe and independent of the obs telemetry
/// enable flag: the serving stats plane must answer even when tracing is
/// off.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace smart::serve {

/// One served request, as accounted by the worker (or, for shed
/// requests, the I/O thread). Stage times are microseconds; a stage that
/// never ran (e.g. solve on a shed request) stays 0.
struct RequestRecord {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  std::string peer;    ///< "ip:port" or "unix"
  std::string op;      ///< frame type name ("size", "advise", ...)
  std::string macro;   ///< macro bucket key ("" when not a solve)
  std::string cache;   ///< "hit" | "warm" | "miss" | ""
  std::string rung;    ///< sizing rung ("gp", "gp_relaxed", "baseline", "")
  std::string status;  ///< "ok" or the protocol error code name
  double queue_us = 0.0;
  double decode_us = 0.0;
  double solve_us = 0.0;
  double encode_us = 0.0;
  double total_us = 0.0;
  int64_t unix_ms = 0;  ///< wall-clock completion time (ms since epoch)
};

/// One-line JSON rendering of a record (no trailing newline).
std::string record_json(const RequestRecord& rec);

/// Bounded ring of recent requests plus an optional JSONL file sink.
/// configure() is called once before the server starts accepting;
/// append() is called from workers and the I/O thread concurrently.
class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Sets ring capacity and (when `path` is non-empty) opens the file
  /// sink in append mode. Returns false when the file cannot be opened;
  /// the ring still works in that case.
  bool configure(size_t capacity, const std::string& path);

  void append(const RequestRecord& rec);

  /// Oldest-to-newest copy of the retained ring.
  std::vector<RequestRecord> recent() const;
  /// All-time appended count.
  uint64_t total() const;
  /// JSON array of recent(), newest last.
  std::string recent_json() const;

 private:
  mutable std::mutex mu_;
  obs::Ring<RequestRecord> ring_{64};
  std::FILE* sink_ = nullptr;
};

/// Crash-safe slow-request capture. Each captured request becomes one
/// JSON file `slow-<unix_ms>-<trace or request id>.json` in the spool
/// directory, containing the record, the request payload, and the solve
/// diagnostics; util::write_file puts it in place atomically, so a crash
/// mid-write never leaves a torn file visible.
class SlowSpool {
 public:
  /// Enables capture into `dir` (created if absent) for requests slower
  /// than `threshold_ms`. A non-positive threshold or empty dir disables
  /// capture. Returns false when the directory cannot be created.
  bool configure(const std::string& dir, double threshold_ms);

  bool enabled() const { return enabled_; }
  double threshold_ms() const { return threshold_ms_; }

  /// Writes one capture file; returns false on I/O failure (counted by
  /// the caller, never fatal). `request_json` is the original request
  /// payload ("" when none), `diag_json` the solve diagnostics ("" when
  /// none); both are embedded verbatim when non-empty.
  bool capture(const RequestRecord& rec, const std::string& request_json,
               const std::string& diag_json);

  /// All-time successful captures.
  uint64_t captured() const;

 private:
  mutable std::mutex mu_;
  std::string dir_;
  double threshold_ms_ = -1.0;
  bool enabled_ = false;
  uint64_t captured_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace smart::serve
