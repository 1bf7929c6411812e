// Golden pins for tests/groups_routed_graft_test.cpp, one per pinned seed
// of the lossless graft-heavy workload: the order-independent digest of
// the delivered (peer, group, seq, time) tuples, the FNV-1a hash of the
// GroupStats + NetworkStats + HopStats JSON (helpers in
// tests/groups_test_util.hpp), and the number of descent decisions
// (graft_messages). Captured while the routed descent was still asserted
// bit-identical to a root-local one on these seeds. Regenerate only for a
// change that is meant to alter delivery or stats, and say why.
#pragma once

#include <cstdint>

namespace geomcast::groups::golden {

struct RoutedGraftPin {
  std::uint64_t seed;
  const char* delivered_digest;
  const char* stats_hash;
  std::uint64_t graft_messages;
};

inline constexpr RoutedGraftPin kRoutedGraftPins[] = {
    {401, "b43f6af40a7004eb3a1ab27de0c3d2a6", "c0846ca8012cc8be", 60},
    {402, "9119254cb4078f6fe0550dd0a6187004", "0c4bb93660927f0e", 70},
    {403, "574c0b296ff89ba19b8ebf3e4ffc3d71", "593a1a1d0ea42a34", 59},
};

}  // namespace geomcast::groups::golden
