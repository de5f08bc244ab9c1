#pragma once

/// \file hash.h
/// 64-bit hashing. FNV-1a hashes content-addressed keys: the serving
/// layer's result cache fingerprints a request's constraint set with it,
/// and frame payloads carry an FNV checksum so corruption (a flaky client,
/// an injected fault) is detected at the protocol layer instead of
/// surfacing as a garbage solve. mix64 builds in-process digests. Neither
/// is cryptographic — collision resistance here only has to beat
/// accidental corruption and near-identical requests.

#include <cstdint>
#include <cstring>
#include <string_view>

namespace smart::util {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// Incremental FNV-1a 64. Mix order matters; fingerprint builders must mix
/// fields in one documented, stable order.
struct Fnv1a {
  uint64_t h = kFnvOffsetBasis;

  void mix_bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
  void mix(std::string_view s) {
    mix_bytes(s.data(), s.size());
    // Length separator: mix("ab","c") must differ from mix("a","bc").
    const uint64_t n = s.size();
    mix_bytes(&n, sizeof(n));
  }
  void mix(uint64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix(int64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix(int v) { mix(static_cast<int64_t>(v)); }
  /// Doubles are mixed by bit pattern; callers quantize first when values
  /// that compare equal after rounding should fingerprint identically.
  void mix(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_bytes(&bits, sizeof(bits));
  }
};

/// One-shot hash of a byte range.
inline uint64_t fnv1a(const void* data, size_t len) {
  Fnv1a f;
  f.mix_bytes(data, len);
  return f.h;
}

inline uint64_t fnv1a(std::string_view s) { return fnv1a(s.data(), s.size()); }

/// One step of the murmur-style mixer that in-process digests over small
/// integer streams are built with (path-class signatures, constraint
/// keys): folds `v` into `h`. Non-commutative. Only digest equality is
/// ever consulted, so the mixer needs good avalanche, not a stable format.
inline uint64_t mix64(uint64_t h, uint64_t v) {
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  h = (h ^ v) * 0x2545f4914f6cdd1dULL;
  return h ^ (h >> 29);
}

/// Seed of a mix64 chain.
constexpr uint64_t kMix64Seed = 0x9e3779b97f4a7c15ULL;

/// Bit pattern of a double, for mixing.
inline uint64_t bits_of(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

}  // namespace smart::util
