#include "serve/protocol.h"

#include <cstring>

#include "util/hash.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

void put_u16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint16_t get_u16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t get_u32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t get_u64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// The checksum occupies the last 8 header bytes.
constexpr size_t kChecksumOffset = kHeaderSize - 8;

/// Checksum over the header bytes that precede the checksum field, then
/// the payload. Both sides must compute it over identical bytes.
uint64_t frame_checksum(const char* header, const char* payload,
                        size_t payload_len) {
  util::Fnv1a f;
  f.mix_bytes(header, kChecksumOffset);
  f.mix_bytes(payload, payload_len);
  return f.h;
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kPing: return "ping";
    case FrameType::kSize: return "size";
    case FrameType::kAdvise: return "advise";
    case FrameType::kLint: return "lint";
    case FrameType::kReport: return "report";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kStats: return "stats";
    case FrameType::kHealth: return "health";
    case FrameType::kPong: return "pong";
    case FrameType::kResult: return "result";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

const char* to_string(ErrorCode e) {
  switch (e) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidInput: return "invalid_input";
    case ErrorCode::kInfeasible: return "infeasible";
    case ErrorCode::kMaxIter: return "max_iter";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kNumericalError: return "numerical_error";
    case ErrorCode::kFaultInjected: return "fault_injected";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

ErrorCode error_from(const util::Status& status) {
  switch (status.reason) {
    case util::FailureReason::kNone: return ErrorCode::kOk;
    case util::FailureReason::kInvalidInput: return ErrorCode::kInvalidInput;
    case util::FailureReason::kInfeasible: return ErrorCode::kInfeasible;
    case util::FailureReason::kMaxIter: return ErrorCode::kMaxIter;
    case util::FailureReason::kTimeout: return ErrorCode::kTimeout;
    case util::FailureReason::kNumericalError:
      return ErrorCode::kNumericalError;
    case util::FailureReason::kFaultInjected:
      return ErrorCode::kFaultInjected;
    case util::FailureReason::kInternal: return ErrorCode::kInternal;
  }
  return ErrorCode::kInternal;
}

util::FailureReason reason_from(ErrorCode e) {
  switch (e) {
    case ErrorCode::kOk: return util::FailureReason::kNone;
    case ErrorCode::kInvalidInput: return util::FailureReason::kInvalidInput;
    case ErrorCode::kInfeasible: return util::FailureReason::kInfeasible;
    case ErrorCode::kMaxIter: return util::FailureReason::kMaxIter;
    case ErrorCode::kTimeout: return util::FailureReason::kTimeout;
    case ErrorCode::kNumericalError:
      return util::FailureReason::kNumericalError;
    case ErrorCode::kFaultInjected:
      return util::FailureReason::kFaultInjected;
    case ErrorCode::kInternal: return util::FailureReason::kInternal;
    case ErrorCode::kBadFrame:
    case ErrorCode::kUnsupportedVersion:
      return util::FailureReason::kInvalidInput;
    case ErrorCode::kOverloaded:
    case ErrorCode::kShuttingDown:
      return util::FailureReason::kInternal;
  }
  return util::FailureReason::kInternal;
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderSize + frame.payload.size());
  put_u32(out, kMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<uint16_t>(frame.type));
  put_u16(out, static_cast<uint16_t>(frame.error));
  put_u16(out, 0);  // flags (reserved)
  put_u32(out, static_cast<uint32_t>(frame.payload.size()));
  put_u64(out, frame.request_id);
  uint64_t deadline_bits = 0;
  std::memcpy(&deadline_bits, &frame.deadline_ms, sizeof(deadline_bits));
  put_u64(out, deadline_bits);
  put_u64(out, frame.trace_id);
  put_u64(out, frame_checksum(out.data(), frame.payload.data(),
                              frame.payload.size()));
  out.append(frame.payload);
  return out;
}

DecodeStatus decode_frame(const char* data, size_t len, Frame* out,
                          size_t* consumed, std::string* err,
                          bool* bad_version) {
  if (bad_version != nullptr) *bad_version = false;
  // The first 16 bytes are layout-identical in every version; buffer at
  // least that much before judging anything so a split read never turns
  // into a spurious kBad, and a shorter frame of another version is still
  // rejected by its version field rather than left waiting for more.
  if (len < kHeaderPrefix) return DecodeStatus::kNeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  if (get_u32(p) != kMagic) {
    if (err != nullptr) *err = "bad magic";
    return DecodeStatus::kBad;
  }
  const uint16_t version = get_u16(p + 4);
  if (version != kProtocolVersion) {
    if (err != nullptr)
      *err = util::strfmt("unsupported protocol version %u (want %u)",
                          version, kProtocolVersion);
    if (bad_version != nullptr) *bad_version = true;
    return DecodeStatus::kBad;
  }
  const uint16_t flags = get_u16(p + 10);
  const uint32_t payload_len = get_u32(p + 12);
  if (flags != 0 || payload_len > kMaxPayload) {
    if (err != nullptr)
      *err = util::strfmt("bad frame header (flags=%u, payload_len=%u)",
                          flags, payload_len);
    return DecodeStatus::kBad;
  }
  if (len < kHeaderSize + payload_len) return DecodeStatus::kNeedMore;

  const uint64_t stated = get_u64(p + kChecksumOffset);
  const uint64_t actual =
      frame_checksum(data, data + kHeaderSize, payload_len);
  if (stated != actual) {
    if (err != nullptr) *err = "frame checksum mismatch";
    return DecodeStatus::kBad;
  }

  const uint16_t raw_type = get_u16(p + 6);
  switch (static_cast<FrameType>(raw_type)) {
    case FrameType::kPing:
    case FrameType::kSize:
    case FrameType::kAdvise:
    case FrameType::kLint:
    case FrameType::kReport:
    case FrameType::kShutdown:
    case FrameType::kStats:
    case FrameType::kHealth:
    case FrameType::kPong:
    case FrameType::kResult:
    case FrameType::kError:
      break;
    default:
      if (err != nullptr)
        *err = util::strfmt("unknown frame type %u", raw_type);
      return DecodeStatus::kBad;
  }

  out->type = static_cast<FrameType>(raw_type);
  out->error = static_cast<ErrorCode>(get_u16(p + 8));
  out->request_id = get_u64(p + 16);
  const uint64_t deadline_bits = get_u64(p + 24);
  std::memcpy(&out->deadline_ms, &deadline_bits, sizeof(out->deadline_ms));
  out->trace_id = get_u64(p + 32);
  out->payload.assign(data + kHeaderSize, payload_len);
  *consumed = kHeaderSize + payload_len;
  return DecodeStatus::kOk;
}

}  // namespace smart::serve
