// Order-independent 128-bit digests of delivered messages. A run's
// delivered (peer, group, seq) set — optionally with each delivery's
// simulated time — reduces to 32 hex digits that two runs, a golden pin or
// a bench cell can compare without keeping the set itself: two 64-bit sums
// of per-delivery hashes, so the order deliveries arrive in does not
// matter. Header-only; the tests' golden pins and the bench cells share it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace geomcast::obs {

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of one delivered (peer, group, seq) key.
inline std::uint64_t delivery_hash(std::uint64_t peer, std::uint64_t group,
                                   std::uint64_t seq) {
  return mix64(peer ^ mix64(group ^ mix64(seq)));
}

/// Hash of one delivered (peer, group, seq, time) tuple, the time hashed by
/// its exact bit pattern.
inline std::uint64_t delivery_hash(std::uint64_t peer, std::uint64_t group,
                                   std::uint64_t seq, double time) {
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &time, sizeof time_bits);
  return mix64(peer ^ mix64(group ^ mix64(seq ^ mix64(time_bits))));
}

/// Order-independent sum of per-delivery hashes. Adding the same hash twice
/// counts it twice, so a caller that means a set checks for duplicates
/// first.
class DeliveryDigest {
 public:
  void add(std::uint64_t hash) {
    lo_ += mix64(hash ^ 0x6c6f77ULL);
    hi_ += mix64(hash ^ 0x68696768ULL);
  }

  /// 32 hex digits, high half first.
  [[nodiscard]] std::string hex() const {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
    return buf;
  }

 private:
  std::uint64_t lo_ = 0, hi_ = 0;
};

}  // namespace geomcast::obs
