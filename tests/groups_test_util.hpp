// Shared workload helpers for the groups/QoS test batteries: seeded
// overlay construction, deterministic membership selection, dry-run leaf
// discovery, and the hashes golden pins compare (the delivered-set digest
// itself lives in obs/digest.hpp, shared with the bench). Mid-wave
// forwarder kills live in the library (groups/failure_injection.hpp) so
// the bench drives the identical scenario. Header-only so the per-file
// test executables (tests/*.cpp glob) stay one-source each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "geometry/random_points.hpp"
#include "groups/pubsub.hpp"
#include "obs/digest.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::groups::testutil {

inline overlay::OverlayGraph make_overlay(std::size_t n, std::size_t dims,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  return overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
}

/// Subscribes `count` distinct non-root members to `group` (staggered in
/// (0, small)) and returns them; the pick is a pure function of `seed`.
inline std::vector<PeerId> subscribe_members(PubSubSystem& system,
                                             const overlay::OverlayGraph& graph,
                                             GroupId group, std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const PeerId root = system.manager().root_of(group);
  std::vector<bool> chosen(graph.size(), false);
  std::vector<PeerId> members;
  while (members.size() < count) {
    const auto p = static_cast<PeerId>(rng.next_below(graph.size()));
    if (chosen[p] || p == root) continue;
    chosen[p] = true;
    members.push_back(p);
    system.subscribe_at(0.001 * static_cast<double>(members.size()), p, group);
  }
  return members;
}

/// A leaf subscriber of `group`'s cached tree (excluding `exclude`), found
/// by replaying the same deterministic workload losslessly — the tree is a
/// pure function of (graph, root, membership), so the pick stays valid for
/// lossy reruns of the same seed.
inline PeerId find_leaf_subscriber(const overlay::OverlayGraph& graph, GroupId group,
                                   std::size_t member_count, std::uint64_t seed,
                                   std::size_t publishes,
                                   PeerId exclude = kInvalidPeer) {
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, group, member_count, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], group);
  system.run();
  const GroupTree* gt = system.manager().cached_tree(group);
  if (gt == nullptr) return kInvalidPeer;
  for (const PeerId p : members)
    if (p != exclude && gt->tree.reached(p) && gt->tree.children(p).empty()) return p;
  return kInvalidPeer;
}

/// Every peer `gt` stores an entry for (tree node, zone or delivery flag),
/// ascending.
inline std::vector<PeerId> stored_peers(const GroupTree& gt) {
  std::vector<PeerId> peers = gt.tree.nodes();
  for (const PeerId s : gt.subscribers.keys())
    if (!gt.tree.reached(s)) peers.push_back(s);
  for (const PeerId p : gt.zones.keys())
    if (!gt.tree.reached(p)) peers.push_back(p);
  std::sort(peers.begin(), peers.end());
  return peers;
}

/// The member-sized storage invariant: `gt` holds entries for exactly its
/// reached peers plus its stranded subscribers, and one zone per reached
/// peer until the zones go stale (then none).
inline bool member_sized(const GroupTree& gt) {
  std::vector<PeerId> expected;
  for (PeerId p = 0; p < gt.tree.peer_count(); ++p)
    if (gt.tree.reached(p) || gt.is_subscriber(p)) expected.push_back(p);
  return stored_peers(gt) == expected &&
         gt.zones.size() == (gt.zones_stale ? 0 : gt.tree.reached_count());
}

/// One application-level delivery as the probe reports it.
using DeliveryTuple = std::tuple<PeerId, GroupId, std::uint64_t, double>;

/// Order-independent 128-bit digest of delivered (peer, group, seq, time)
/// tuples, as 32 hex digits (obs/digest.hpp). Golden pins compare it, so a
/// change to who gets what when fails even if it moves every code path.
inline std::string delivered_digest(const std::vector<DeliveryTuple>& delivered) {
  obs::DeliveryDigest digest;
  for (const auto& [peer, group, seq, time] : delivered)
    digest.add(obs::delivery_hash(peer, group, seq, time));
  return digest.hex();
}

/// 64-bit FNV-1a of a stats JSON string, as 16 hex digits.
inline std::string text_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace geomcast::groups::testutil
