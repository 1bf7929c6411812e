// Golden pins for tests/groups_replica_shard_test.cpp: the order-independent
// digest (obs/digest.hpp) of the delivered (peer, group, seq, time) tuples
// of each R = 1 oracle cell of DeliveredSetsMatchTheSingleRootOracleAcrossCells,
// in the test's cell order. Captured from the single-root pipeline so the
// oracle keeps its meaning when that pipeline is folded into the slot path.
// Regenerate only for a change that is meant to alter delivery, and say why.
#pragma once

namespace geomcast::groups::golden {

inline constexpr const char* kReplicaShardOraclePins[] = {
    "41e8978b51f52b680b64fc20bdad0f1a",  // QoS 0, lossless
    "41e8978b51f52b680b64fc20bdad0f1a",  // QoS 1, lossless
    "41e8978b51f52b680b64fc20bdad0f1a",  // QoS 2, lossless
    "29f64ce6a6e1625bc8489dfe0a88efaa",  // QoS 1, data-plane loss
    "d96c3e0c88f43a3de7f564491674c528",  // QoS 2, data-plane loss
    "28cca3654dd86cd0f7b6b28ee0f91a0b",  // QoS 2, root batching
    "28cca3654dd86cd0f7b6b28ee0f91a0b",  // QoS 2, publisher batching
    "3a5ec4ccdd188d362d3d501593d3b3fe",  // QoS 2, loss + both batchings
};

}  // namespace geomcast::groups::golden
