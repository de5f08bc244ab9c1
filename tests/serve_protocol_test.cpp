// Wire-protocol tests for the sizing daemon: framing round-trips,
// incremental decode, and every corruption class a flaky peer (or the
// fault injector) can produce must come back as a detected kBad, never a
// garbage frame.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "serve/protocol.h"
#include "serve/request.h"
#include "util/hash.h"

namespace smart::serve {
namespace {

Frame make_frame() {
  Frame f;
  f.type = FrameType::kSize;
  f.request_id = 0xDEADBEEFCAFEull;
  f.deadline_ms = 1234.5;
  f.payload = "{\"type\":\"mux\",\"topology\":\"strong_pass\",\"n\":4}";
  return f;
}

/// A ping in the retired version-1 format: the 32 header bytes the
/// versions share up to the deadline, then the checksum over them (no
/// trace id), 40 bytes in all.
std::string v1_ping() {
  Frame ping;
  ping.type = FrameType::kPing;
  std::string wire = encode_frame(ping).substr(0, 32);
  wire[4] = 1;
  const uint64_t sum = util::fnv1a(wire.data(), wire.size());
  for (int i = 0; i < 8; ++i)
    wire.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  return wire;
}

TEST(ServeProtocol, EncodeDecodeRoundTrip) {
  const Frame in = make_frame();
  const std::string wire = encode_frame(in);
  ASSERT_EQ(wire.size(), kHeaderSize + in.payload.size());

  Frame out;
  size_t consumed = 0;
  std::string err;
  ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kOk)
      << err;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.error, in.error);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_DOUBLE_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(ServeProtocol, EmptyPayloadRoundTrip) {
  Frame in;
  in.type = FrameType::kPing;
  in.request_id = 7;
  const std::string wire = encode_frame(in);
  ASSERT_EQ(wire.size(), kHeaderSize);
  Frame out;
  size_t consumed = 0;
  std::string err;
  ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kOk);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_LT(out.deadline_ms, 0.0);  // "no deadline" survives the trip
}

TEST(ServeProtocol, IncrementalDecodeNeedsMoreUntilComplete) {
  const std::string wire = encode_frame(make_frame());
  Frame out;
  size_t consumed = 0;
  std::string err;
  // Every strict prefix must be kNeedMore — both mid-header and
  // mid-payload — and never consume bytes.
  for (size_t len = 0; len < wire.size(); ++len) {
    ASSERT_EQ(decode_frame(wire.data(), len, &out, &consumed, &err),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
  ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kOk);
}

TEST(ServeProtocol, DecodeLeavesTrailingBytesForNextFrame) {
  const Frame a = make_frame();
  Frame b;
  b.type = FrameType::kPing;
  b.request_id = 42;
  const std::string wire = encode_frame(a) + encode_frame(b);

  Frame out;
  size_t consumed = 0;
  std::string err;
  ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kOk);
  EXPECT_EQ(out.request_id, a.request_id);
  ASSERT_LT(consumed, wire.size());
  Frame out2;
  size_t consumed2 = 0;
  ASSERT_EQ(decode_frame(wire.data() + consumed, wire.size() - consumed,
                         &out2, &consumed2, &err),
            DecodeStatus::kOk);
  EXPECT_EQ(out2.request_id, b.request_id);
  EXPECT_EQ(consumed + consumed2, wire.size());
}

TEST(ServeProtocol, EveryFlippedByteIsDetected) {
  const std::string wire = encode_frame(make_frame());
  // Flip each byte in turn; the checksum (or a structural field check)
  // must reject every variant. This is exactly what the kServeFrameCorrupt
  // fault injects at the read site.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    Frame out;
    size_t consumed = 0;
    std::string err;
    const DecodeStatus st =
        decode_frame(bad.data(), bad.size(), &out, &consumed, &err);
    // A corrupted length field may also leave the decoder waiting for
    // bytes that never come (kNeedMore) — acceptable: the read loop's
    // idle reaper handles it. What must never happen is kOk.
    EXPECT_NE(st, DecodeStatus::kOk) << "flipped byte " << i;
  }
}

TEST(ServeProtocol, TraceIdRoundTripsInV2Frames) {
  Frame in = make_frame();
  in.trace_id = 0xABCDEF123456ull;
  const std::string wire = encode_frame(in);
  Frame out;
  size_t consumed = 0;
  std::string err;
  ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kOk)
      << err;
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(ServeProtocol, FutureVersionIsTypedRejection) {
  // A version other than the current one must be a *typed* unsupported-
  // version rejection (bad_version set), not a generic decode failure —
  // the server answers it with kUnsupportedVersion, not kBadFrame. That
  // holds for a version one past the current one and for a retired
  // version-1 ping, whose 40-byte frame is shorter than the current header
  // and so must be judged from the shared prefix, never left in kNeedMore.
  std::string future = encode_frame(make_frame());
  future[4] = static_cast<char>(kProtocolVersion + 1);
  for (const std::string& wire : {future, v1_ping()}) {
    Frame out;
    size_t consumed = 0;
    std::string err;
    bool bad_version = false;
    EXPECT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err,
                           &bad_version),
              DecodeStatus::kBad)
        << "version " << static_cast<int>(wire[4]);
    EXPECT_TRUE(bad_version) << "version " << static_cast<int>(wire[4]);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
}

TEST(ServeProtocol, StatsAndHealthFramesRoundTrip) {
  for (const FrameType type : {FrameType::kStats, FrameType::kHealth}) {
    Frame in;
    in.type = type;
    in.request_id = 9;
    in.trace_id = 0xBEEF;
    const std::string wire = encode_frame(in);
    Frame out;
    size_t consumed = 0;
    std::string err;
    ASSERT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
              DecodeStatus::kOk)
        << to_string(type) << ": " << err;
    EXPECT_EQ(out.type, type);
    EXPECT_EQ(out.trace_id, in.trace_id);
  }
}

TEST(ServeProtocol, VersionMismatchIsFlagged) {
  std::string wire = encode_frame(make_frame());
  wire[4] = 9;  // version field, little-endian low byte
  Frame out;
  size_t consumed = 0;
  std::string err;
  bool bad_version = false;
  EXPECT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err,
                         &bad_version),
            DecodeStatus::kBad);
  EXPECT_TRUE(bad_version);
}

TEST(ServeProtocol, OversizedLengthIsBadNotAllocated) {
  std::string wire = encode_frame(make_frame());
  const uint32_t huge = static_cast<uint32_t>(kMaxPayload) + 1;
  std::memcpy(&wire[12], &huge, sizeof(huge));
  Frame out;
  size_t consumed = 0;
  std::string err;
  EXPECT_EQ(decode_frame(wire.data(), wire.size(), &out, &consumed, &err),
            DecodeStatus::kBad);
  EXPECT_NE(err.find("payload"), std::string::npos) << err;
}

TEST(ServeProtocol, ErrorCodeMapsFailureReasonsBothWays) {
  using util::FailureReason;
  using util::Status;
  // Handler-side: every FailureReason maps onto the mirrored codes.
  EXPECT_EQ(error_from(Status::Fail(FailureReason::kTimeout, "")),
            ErrorCode::kTimeout);
  EXPECT_EQ(error_from(Status::Fail(FailureReason::kInfeasible, "")),
            ErrorCode::kInfeasible);
  EXPECT_EQ(error_from(Status::Ok()), ErrorCode::kOk);
  // Client-side inverse for the mirrored range.
  EXPECT_EQ(reason_from(ErrorCode::kTimeout), FailureReason::kTimeout);
  EXPECT_EQ(reason_from(ErrorCode::kFaultInjected),
            FailureReason::kFaultInjected);
  // Protocol-level codes collapse to the documented reasons.
  EXPECT_EQ(reason_from(ErrorCode::kBadFrame), FailureReason::kInvalidInput);
  EXPECT_EQ(reason_from(ErrorCode::kOverloaded), FailureReason::kInternal);
}

TEST(ServeProtocol, RequestJsonRoundTrips) {
  Request r;
  r.type = "mux";
  r.topology = "domino_split";
  r.n = 8;
  r.m = 4.0;
  r.load_ff = 22.5;
  r.delay_ps = 93.25;
  r.cost = "power";
  r.use_cache = false;
  Request back;
  const util::Status st = parse_request(request_json(r), &back);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(back.type, r.type);
  EXPECT_EQ(back.topology, r.topology);
  EXPECT_EQ(back.n, r.n);
  EXPECT_DOUBLE_EQ(back.m, r.m);
  EXPECT_DOUBLE_EQ(back.load_ff, r.load_ff);
  EXPECT_DOUBLE_EQ(back.delay_ps, r.delay_ps);
  EXPECT_EQ(back.cost, r.cost);
  EXPECT_FALSE(back.use_cache);
}

TEST(ServeProtocol, UnknownRequestKeyRejected) {
  Request out;
  const util::Status st = parse_request(
      "{\"type\":\"mux\",\"topolgy\":\"strong_pass\"}", &out);  // typo
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.to_string().find("topolgy"), std::string::npos)
      << st.to_string();
}

TEST(ServeProtocol, FingerprintSeparatesNearbyRequests) {
  Request a;
  a.type = "mux";
  a.topology = "strong_pass";
  a.delay_ps = 100.0;
  Request b = a;
  b.delay_ps = 100.5;
  EXPECT_NE(request_fingerprint(a), request_fingerprint(b));
  // ...but formatting noise below the 1e-6 quantum must not split keys.
  Request c = a;
  c.delay_ps = 100.0 + 1e-9;
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(c));
  // A different cost metric is a different bucket, hence fingerprint.
  Request d = a;
  d.cost = "power";
  EXPECT_NE(macro_bucket(a), macro_bucket(d));
  EXPECT_NE(request_fingerprint(a), request_fingerprint(d));
}

}  // namespace
}  // namespace smart::serve
