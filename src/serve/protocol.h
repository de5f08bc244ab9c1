#pragma once

/// \file protocol.h
/// Wire protocol of the SMART sizing daemon (smartd). Length-prefixed
/// binary frames over a stream socket (TCP or Unix domain). Layout:
///
///   offset size field
///   0      4    magic 0x534D5254 ("SMRT")
///   4      2    protocol version (kProtocolVersion)
///   6      2    FrameType
///   8      2    ErrorCode (responses; 0 in requests)
///   10     2    flags (reserved, must be 0)
///   12     4    payload length (bytes, <= kMaxPayload)
///   16     8    request id (echoed verbatim in the response)
///   24     8    deadline_ms as an IEEE-754 double (< 0 = no deadline;
///               the client's *remaining* budget at send time — the server
///               subtracts its own queueing delay before solving)
///   32     8    trace id (0 = none; echoed in the response and attached
///               to every obs span the request touches, so one Chrome
///               trace follows it across the socket boundary)
///   40     8    FNV-1a checksum over header bytes [0,40) and the payload
///   48     ...  payload (UTF-8 JSON for every type that carries one)
///
/// The decoder accepts exactly one version. It reads the version field
/// from the first kHeaderPrefix bytes, before the header size matters, so
/// a frame of any other version — including the retired 40-byte version 1
/// — is rejected as a typed kUnsupportedVersion error, never a checksum
/// mystery or a stall waiting for bytes that never come.
///
/// All integers are little-endian on the wire. The checksum turns any
/// corruption — a flaky client, a fault-injected byte flip — into a
/// detected kBadFrame instead of a garbage solve. Decoding is incremental:
/// feed a growing buffer, get kNeedMore until a whole frame is present.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace smart::serve {

constexpr uint32_t kMagic = 0x534D5254u;  // "SMRT"
constexpr uint16_t kProtocolVersion = 2;
constexpr size_t kHeaderSize = 48;
/// Bytes whose layout every protocol version shares — enough to read the
/// magic, version, flags, and payload length before trusting the header
/// size.
constexpr size_t kHeaderPrefix = 16;
/// Upper bound on a frame payload; larger lengths are kBadFrame (protects
/// the server from allocating on a corrupted length field).
constexpr size_t kMaxPayload = 8u << 20;

/// Frame types. Requests are < 64, responses >= 64; a server never sends a
/// request type and vice versa.
enum class FrameType : uint16_t {
  // requests
  kPing = 1,      ///< liveness probe; empty payload
  kSize = 2,      ///< size one macro (payload: request JSON)
  kAdvise = 3,    ///< rank all applicable topologies
  kLint = 4,      ///< ERC + GP well-formedness report
  kReport = 5,    ///< SMART-Scope introspection report
  kShutdown = 6,  ///< ask the daemon to drain and exit
  kStats = 7,     ///< SMART-Pulse stats snapshot (admin plane)
  kHealth = 8,    ///< liveness/readiness probe with status JSON
  // responses
  kPong = 65,    ///< reply to kPing
  kResult = 66,  ///< success; payload is the response JSON
  kError = 67,   ///< failure; `error` says why, payload carries detail JSON
};

const char* to_string(FrameType t);
inline bool is_request(FrameType t) { return static_cast<uint16_t>(t) < 64; }

/// Why a request failed, carried in response frames. Values 1..7 mirror
/// util::FailureReason one-for-one (handler failures); values >= 32 are
/// protocol/serving conditions the handler never sees.
enum class ErrorCode : uint16_t {
  kOk = 0,
  kInvalidInput = 1,
  kInfeasible = 2,
  kMaxIter = 3,
  kTimeout = 4,
  kNumericalError = 5,
  kFaultInjected = 6,
  kInternal = 7,
  kBadFrame = 32,            ///< bad magic/length/checksum or unknown type
  kUnsupportedVersion = 33,  ///< protocol version mismatch
  kOverloaded = 34,          ///< admission control shed the request
  kShuttingDown = 35,        ///< daemon is draining; request not started
};

const char* to_string(ErrorCode e);
ErrorCode error_from(const util::Status& status);
/// Inverse mapping for client-side Status reconstruction. Protocol-level
/// codes (kBadFrame and up) map to kInvalidInput/kInternal.
util::FailureReason reason_from(ErrorCode e);

/// One decoded (or to-be-encoded) frame. `deadline_ms < 0` means none.
/// `trace_id` is 0 for untraced requests; generated ids stay within 48
/// bits so they survive JSON number round trips.
struct Frame {
  FrameType type = FrameType::kPing;
  ErrorCode error = ErrorCode::kOk;
  uint64_t request_id = 0;
  double deadline_ms = -1.0;
  uint64_t trace_id = 0;
  std::string payload;
};

/// Serializes a frame (header + checksum + payload) to wire bytes.
std::string encode_frame(const Frame& frame);

enum class DecodeStatus {
  kOk,        ///< one whole frame decoded; `consumed` bytes eaten
  kNeedMore,  ///< buffer holds only a prefix; read more and retry
  kBad,       ///< corrupt (magic/version/length/checksum); close the stream
};

/// Incrementally decodes the first frame of `data[0, len)`. On kOk the
/// frame and its byte count are written to `out`/`consumed`; on kBad `err`
/// explains what was wrong (version mismatches also set `bad_version`).
DecodeStatus decode_frame(const char* data, size_t len, Frame* out,
                          size_t* consumed, std::string* err,
                          bool* bad_version = nullptr);

}  // namespace smart::serve
