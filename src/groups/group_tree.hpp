// Per-group embedded multicast trees: the paper's §2 space-partitioning
// recursion restricted to a subscriber set.
//
// A group's tree spans its subscribers plus the relay peers the recursion
// must route through (same delivery/relay split as range_multicast, with a
// point set instead of a target rectangle as the pruning oracle). Pruning
// happens after delegate selection, so every surviving child zone is
// identical to the whole-space run and the §2 correctness argument — every
// subscriber in Z(P) lies in exactly one child slice — carries over.
//
// Because builds are deterministic (kRandom is rejected), membership
// changes can be applied incrementally and still land exactly on the tree
// a fresh build would produce:
//  * graft: descend from the root along the slices containing the new
//    subscriber, adding the missing suffix of the path — a fresh build
//    with the enlarged set runs the same partition steps, so old edges are
//    untouched and the grafted path is exactly the fresh build's new path;
//  * prune: flip the delivery bit and cascade relay-only leaves away —
//    precisely the branches whose slices lose their last subscriber.
// Churn repair (departure of an in-tree peer) reattaches orphan subtrees
// via stability::repair_orphans and therefore CAN deviate from a fresh
// build; it marks the zones stale, which blocks further zone-guided grafts
// until the GroupManager rebuilds.
//
// Storage is member-sized, like the paper's zones, which exist only for
// tree nodes: the tree, the zones and the delivery flags each hold one
// entry per reached peer or per subscriber (overlay::PeerMap / PeerSet),
// never an n-sized array. A build, a COW clone and every maintenance step
// cost O(tree nodes), independent of the overlay's peer count; prunes,
// cascades and repairs free the entries of the peers they drop, and
// staling the zones drops them all.
//
// General-position caveat (inherited from the paper's open-zone recursion):
// a subscriber whose identifier ties a delegating peer's coordinate lies on
// a zone boundary and cannot be reached by any slice. Such subscribers stay
// unreached (reached_subscribers < subscriber_count()); GroupStats surfaces
// them as stranded_subscribers rather than hiding them in the delivery
// ratio. Random real-valued identifiers hit this with probability zero.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/graph.hpp"
#include "overlay/peer_map.hpp"

namespace geomcast::groups {

using overlay::PeerId;
using overlay::kInvalidPeer;

struct GroupTree {
  multicast::MulticastTree tree;  // spans subscribers and relays
  /// Responsibility zone per reached peer; emptied once zones_stale is set.
  overlay::PeerMap<geometry::Rect> zones;
  /// Delivery flags: every subscriber, spanned or stranded.
  overlay::PeerSet subscribers;
  /// Subscribers the tree actually spans (== subscriber_count() unless a
  /// build stranded); maintained incrementally by graft/prune/repair.
  std::size_t reached_subscribers = 0;
  std::uint64_t build_messages = 0;   // construction requests of the build wave
  /// Set by repair (and by the GroupManager when a departure changes some
  /// in-tree peer's candidate set): the recursion that produced `zones`
  /// can no longer be replayed, so zone-guided grafts must rebuild.
  bool zones_stale = false;

  [[nodiscard]] bool is_subscriber(PeerId p) const noexcept { return subscribers.contains(p); }
  [[nodiscard]] std::size_t subscriber_count() const noexcept { return subscribers.size(); }
  [[nodiscard]] std::size_t relay_count() const noexcept {
    return tree.reached_count() - reached_subscribers;
  }
  /// Marks the zones stale and frees them: no reader may consult a stale
  /// zone, and nothing short of a rebuild clears the flag.
  void stale_zones() {
    zones_stale = true;
    zones = {};
  }
};

/// Builds the pruned construction for the subscriber ids `subscribers`
/// (strictly ascending, each alive) rooted at `root`. Peers with
/// `alive[p] == false` are skipped as delegates (churn); an empty `alive`
/// means everyone is up. Work and storage scale with the tree, not with
/// the peer count. Throws on PickPolicy::kRandom — incremental maintenance
/// requires the build to be a deterministic function of (graph, root,
/// subscribers).
[[nodiscard]] GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                                         const std::vector<PeerId>& subscribers,
                                         const multicast::MulticastConfig& config = {},
                                         const std::vector<bool>& alive = {});

/// Mask adapter for callers that hold a per-peer subscriber mask (size n):
/// collects the ids in ascending order and builds as above. It scans the
/// mask once, so it is O(peers); GroupManager keeps member sets and calls
/// the id overload.
[[nodiscard]] GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                                         const std::vector<bool>& subscribers,
                                         const multicast::MulticastConfig& config = {},
                                         const std::vector<bool>& alive = {});

struct GraftResult {
  bool attached = false;
  std::size_t messages = 0;  // graft-request hops walked/created
};

/// Resumable zone-descent state for splicing one subscriber into a cached
/// tree: each graft_step() takes exactly ONE descent decision — the local
/// partition step at `current` — so the descent can be driven hop by hop
/// from routed envelopes (the distributed control plane) or looped locally
/// (graft_subscriber, the synchronous descent). The cursor holds only peer
/// indices, never tree pointers: steps always run against the caller's
/// current GroupTree, so copy-on-write clones between steps are safe.
struct GraftCursor {
  PeerId subscriber = kInvalidPeer;
  PeerId current = kInvalidPeer;  // peer whose descent decision runs next
  std::size_t steps = 0;          // decisions taken (the guard counter)
};

enum class GraftStatus {
  kAttached,   ///< subscriber spliced in (delivery flag set); descent done
  kDescend,    ///< one step taken; route the request to `next`
  kStranded,   ///< no slice contains the subscriber: caller rebuilds
  kExhausted,  ///< step guard tripped (inconsistent cache): caller rebuilds
};

struct GraftStep {
  GraftStatus status = GraftStatus::kStranded;
  PeerId next = kInvalidPeer;  // the peer to hand the descent to (kDescend)
};

/// Starts a graft of `s` into `gt`: the first decision runs at the root.
[[nodiscard]] GraftCursor graft_cursor(const GroupTree& gt, PeerId s);

/// Takes one descent decision at `cursor.current`: replays the partition
/// step there, follows (or creates) the edge of the slice containing the
/// subscriber's point, and advances the cursor. Attaches immediately when
/// the subscriber is already spanned (re-subscribe / relay promotion).
/// Must not be called on a stale-zoned tree (throws std::logic_error) —
/// the caller gates on `zones_stale` before every step because a repair
/// can land between steps of an in-flight descent.
[[nodiscard]] GraftStep graft_step(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   GraftCursor& cursor,
                                   const multicast::MulticastConfig& config = {},
                                   const std::vector<bool>& alive = {});

/// Splices subscriber `s` into a cached tree by resuming the recursion
/// along the slices containing s's point — graft_cursor/graft_step looped
/// to completion in place — the same step function the routed descent
/// runs hop by hop. Exact: the result equals a fresh build with s added. Throws std::logic_error if `gt.zones_stale`.
[[nodiscard]] GraftResult graft_subscriber(const overlay::OverlayGraph& graph, GroupTree& gt,
                                           PeerId s,
                                           const multicast::MulticastConfig& config = {},
                                           const std::vector<bool>& alive = {});

/// Removes subscriber `s`: clears the delivery flag and cascades away the
/// relay-only leaf chain that served no one else. Returns edges removed.
std::size_t prune_subscriber(GroupTree& gt, PeerId s);

struct GroupRepairResult {
  /// True when in-place repair could not mend the tree (orphan with no
  /// usable adopter or splice path); the caller should rebuild.
  bool needs_rebuild = false;
  std::size_t reattached = 0;      // orphan subtrees mended in place
  std::size_t spliced_relays = 0;  // relays recruited by root-path splices
  std::size_t messages = 0;        // reattach/splice control traffic
};

/// Mends the tree after `departed` left. Orphan subtrees first try the
/// stability-layer rule (adopt under an alive in-tree overlay neighbour
/// outside their own subtree); failing that they splice onto the greedy
/// route toward the tree root, recruiting relays along the way. `departed`
/// must not be the tree root (the GroupManager migrates the rendezvous
/// first). Any structural change marks the zones stale.
[[nodiscard]] GroupRepairResult repair_group_tree(const overlay::OverlayGraph& graph,
                                                  GroupTree& gt, PeerId departed,
                                                  const std::vector<bool>& alive);

struct StrandRescueResult {
  std::size_t rescued = 0;         // stranded subscribers spliced in
  std::size_t spliced_relays = 0;  // non-tree relays recruited en route
  std::size_t messages = 0;        // splice control traffic
  std::size_t still_stranded = 0;  // no greedy route reached the tree
};

/// Splices every unreached subscriber onto the tree via the greedy route
/// toward the root — the repair fallback applied at build time. A fresh
/// zone-recursion build under churn can strand subscribers the in-place
/// repair rule would have kept (a departed delegate makes whole slices
/// unreachable from the root), so a rebuild alone is NOT a superset of
/// repair; this pass restores that guarantee. Splice paths deviate from
/// the recursion, so any change marks the zones stale (grafts rebuild).
StrandRescueResult rescue_stranded(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   const std::vector<bool>& alive);

}  // namespace geomcast::groups
