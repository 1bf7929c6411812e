// Golden pins for tests/groups_simcore_test.cpp, one per workload cell:
// the order-independent digest of the delivered (peer, group, seq, time)
// tuples and the FNV-1a hash of the GroupStats + NetworkStats + HopStats
// JSON (helpers in tests/groups_test_util.hpp). Regenerate only for a
// change that is meant to alter delivery or stats, and say why.
#pragma once

namespace geomcast::groups::golden {

struct SimCorePin {
  const char* cell;
  const char* delivered_digest;
  const char* stats_hash;
};

inline constexpr SimCorePin kSimCorePins[] = {
    {"QoS0BatchedLossless",
     "1ba5f9b2d9a522644b2a234a3e1f21cd", "fbde936b540448ff"},
    {"QoS1LossyBatchedWithChurn",
     "cc2b0ed78c53039dbf2b663d827c5f52", "02c442a7c7df1f53"},
    {"QoS2LossyRepairPath",
     "bf3068c5e8a72e69a8f06a7580540932", "b6e3c669e043ad46"},
    {"WarmRootKillFailover",
     "0540f3725af1b3839e50295849353a10", "8bf92e254e2d920d"},
    {"SeedSweepQoS1/233",
     "5606f8adf0f6c0018effe0b032824295", "ea6eaee394b8b413"},
    {"SeedSweepQoS1/239",
     "0b482bb0e5186c8cd9c376e7bd39608c", "2962b239c39d2298"},
    {"SeedSweepQoS1/241",
     "cab72ac46b807858b890f3ae02257126", "01f2fa5cabdca0af"},
    {"GridKnnLocalMembersQoS1Batched",
     "31ba151e7a8a9a2220b0f21a4b14873d", "67a0aa69a4a4112f"},
};

}  // namespace geomcast::groups::golden
