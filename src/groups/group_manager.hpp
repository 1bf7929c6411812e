// Group membership and tree-cache management for the pub/sub subsystem.
//
// Conceptually this state lives at each group's rendezvous root (the peer
// whose identifier is nearest the group id's hash point); the class
// aggregates all roots' state behind one façade, the same way the
// synchronous builders consult the global OverlayGraph while making only
// local decisions. The message-driven pipeline (groups/pubsub.hpp) drives
// it from real envelopes delivered to the roots.
//
// Tree caching: a group's tree is built lazily on first publish and shared
// across publishes. Membership changes update the cached tree
// incrementally (graft/prune); departures mend it in place via the
// stability-layer repair rule. A full rebuild happens only when (a) repair
// gives up or stale zones block a graft, (b) the accumulated incremental
// changes exceed `rebuild_threshold` times the subscriber count, or (c)
// the rendezvous root itself departs and the group migrates.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "groups/group_stats.hpp"
#include "groups/group_tree.hpp"
#include "obs/trace.hpp"
#include "overlay/bucket_grid.hpp"
#include "overlay/graph.hpp"
#include "overlay/peer_map.hpp"

namespace geomcast::groups {

/// Bounded per-(peer, group) payload retention backing QoS 2 gap repair:
/// the root and every forwarder keep the last `capacity` waves they pushed
/// down the tree so a subscriber's NACK can be answered from the nearest
/// in-tree ancestor instead of the publisher. Eviction is oldest-seq-first,
/// so memory per buffer is hard-bounded by the configured retention window
/// (each entry also pins its wave's tree snapshot, which is shared across
/// the window's entries in the common unchanged-tree case).
class RetainedBuffer {
 public:
  explicit RetainedBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Retains `payload` for the dense seq range [lo, hi] (one entry — a
  /// batched wave retains once, not per seq); evicts the lowest retained
  /// ranges while the buffer covers more than `capacity` seqs. Returns the
  /// number of seqs evicted (a zero-capacity buffer evicts the new entry
  /// itself). Re-retaining a held range (same lo) overwrites in place;
  /// ranges of one group never partially overlap — the root assigns them.
  std::size_t retain(std::uint64_t lo, std::uint64_t hi, std::any payload);
  /// Single-seq convenience (the unbatched pipeline).
  std::size_t retain(std::uint64_t seq, std::any payload) {
    return retain(seq, seq, std::move(payload));
  }

  /// The retained payload whose range covers `seq`, or nullptr when absent
  /// (never held, or already evicted — the caller escalates to an older
  /// ancestor).
  [[nodiscard]] const std::any* find(std::uint64_t seq) const;

  /// Seqs covered across all retained ranges — the unit the capacity
  /// bound is expressed in (a range wave costs its width, so batching
  /// cannot inflate the retention memory bound).
  [[nodiscard]] std::size_t size() const noexcept { return covered_; }
  /// The retained [lo, hi] ranges, lowest first — the warm-failover
  /// bootstrap enumerates these to re-stream a root's history.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges() const;
  /// Retained range entries (<= size(); one per wave).
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::uint64_t seq_hi;
    std::any payload;
  };

  std::size_t capacity_;
  std::size_t covered_ = 0;
  std::map<std::uint64_t, Entry> entries_;  // keyed by the range's seq_lo
};

struct GroupConfig {
  /// Delegate-selection rule for group trees (deterministic policies only;
  /// kRandom is rejected by the tree layer).
  multicast::MulticastConfig tree;
  /// Full rebuild once in-place repairs since the last build exceed this
  /// fraction of the subscriber count. Grafts and prunes are exact (the
  /// tree stays equal to a fresh build) and never count; only repairs
  /// deviate and accumulate drift.
  double rebuild_threshold = 0.5;
  /// Waves each QoS 2 repair responder (root / forwarder) retains per
  /// group; 0 disables retention entirely (every NACK misses).
  std::size_t retention_window = 64;
  /// Stream tag for hashing group ids to rendezvous points.
  std::uint64_t rendezvous_seed = 0x67656f6d63617374ULL;
  /// Replica-sharded roots: rendezvous-hash each group to this many anchor
  /// points in coordinate space and partition the root's state across the
  /// nearest alive peer to each anchor. 1 (the default; 0 means the same)
  /// is the single-root pipeline; slot 0's anchor is exactly the
  /// single-root rendezvous point, so root_of() never changes meaning. Subscribers are owned by the slot whose ANCHOR is nearest
  /// their coordinate (anchors are immutable, so churn moves slot roots
  /// but never reshuffles the shard partition).
  std::size_t root_replicas = 1;
};

class GroupManager {
 public:
  explicit GroupManager(const overlay::OverlayGraph& graph, GroupConfig config = {});

  /// The group's rendezvous root: the alive peer nearest (L1) the group
  /// id's hash point in the coordinate space. Cached; recomputed (and the
  /// group's tree invalidated) when the incumbent departs.
  [[nodiscard]] PeerId root_of(GroupId group);

  /// Synchronous subscribe: records membership AND grafts the subscriber
  /// into the cached tree in place with a root-local descent (the manager
  /// API for callers without a simulator; PubSubSystem routes the descent
  /// instead).
  void subscribe(GroupId group, PeerId peer);
  void unsubscribe(GroupId group, PeerId peer);
  [[nodiscard]] bool is_subscribed(GroupId group, PeerId peer) const;
  [[nodiscard]] std::size_t subscriber_count(GroupId group) const;

  // -- routed graft (the distributed zone descent) -------------------------
  // The message-driven subscribe path splits subscribe() in two:
  // membership is recorded immediately at the root, while the tree splice
  // becomes an in-flight graft — a GraftCursor advanced one descent
  // decision per routed envelope. The table below holds every in-flight
  // cursor; races with publish (COW snapshots), departures (validation per
  // step), and rebuilds (abort + dirty) are resolved here.

  /// What the routed subscribe must do beyond recording membership.
  enum class SubscribeNeed {
    kNone,   ///< lazy build / existing span covers the subscriber
    kGraft,  ///< clean cached tree exists and the subscriber is not spanned
  };
  /// Records membership only (idempotent; a duplicate changes nothing) and
  /// reports whether a routed graft is owed. Mirrors subscribe()'s cache
  /// handling: when no graftable tree exists, a fresh member dirties the
  /// cache so the next publish's rebuild spans it.
  SubscribeNeed subscribe_membership(GroupId group, PeerId peer);

  /// Registers an in-flight graft of `subscriber` into `group`'s cached
  /// tree, initiated by `root`. Returns the graft id (the control plane's
  /// reliability token), or 0 when no graft can start: tree not graftable,
  /// subscriber dead/not a member, or a graft for this (group, subscriber)
  /// already in flight.
  [[nodiscard]] std::uint64_t graft_begin(GroupId group, PeerId subscriber, PeerId root);

  struct GraftAdvance {
    enum class Status {
      kDescend,   ///< decision taken; route the request to `next`
      kAttached,  ///< subscriber spliced in; report accept to the root
      kFailed,    ///< cursor invalid (stranded/raced/aborted); report reject
    };
    Status status = Status::kFailed;
    PeerId next = kInvalidPeer;
  };
  /// Takes one descent decision of graft `graft_id` at `self` (which must
  /// be the cursor's current peer). Validates the cursor against the live
  /// group state first: a rebuild, repair, migration, membership change,
  /// or participant death since the previous step fails the graft instead
  /// of corrupting the tree.
  [[nodiscard]] GraftAdvance graft_advance(std::uint64_t graft_id, PeerId self);

  /// Retires a completed graft (the root received the accept): books the
  /// graft in the group's stats. False when the entry is gone (aborted
  /// meanwhile, or a duplicate accept) — idempotent by design.
  bool graft_finish(std::uint64_t graft_id);

  struct AbortedGraft {
    GroupId group = 0;
    PeerId subscriber = kInvalidPeer;
  };
  /// Gives up on an in-flight graft: drops the cursor and dirties the
  /// group's cache so the next publish rebuilds with the subscriber's
  /// membership (the half-grafted relay path is discarded with it). The
  /// caller re-issues the subscribe for alive subscribers. nullopt when
  /// the entry is already gone — idempotent like graft_finish.
  std::optional<AbortedGraft> graft_abort(std::uint64_t graft_id);

  /// In-flight graft cursors currently held (0 once a simulation drains —
  /// the "no leaked cursor state" invariant the churn battery pins).
  [[nodiscard]] std::size_t inflight_graft_count() const noexcept {
    return grafts_.size();
  }

  /// The group's dissemination tree — built lazily, cached across
  /// publishes, incrementally maintained. Returns nullptr for a group with
  /// no subscribers (nothing to span).
  [[nodiscard]] const GroupTree* tree(GroupId group);

  /// Same resolution, returned as a shared snapshot for an in-flight
  /// publish wave. Copy-on-write: membership/repair mutations clone the
  /// tree only while snapshots are outstanding, so unchanged-tree
  /// publishes all share one copy.
  [[nodiscard]] std::shared_ptr<const GroupTree> tree_snapshot(GroupId group);

  /// Pure lookup of the cached tree: no lazy build, no cache-hit
  /// accounting, nullptr when nothing is cached (or the cache is dirty).
  /// Observation-only — lets benches/tests inspect the tree a wave in
  /// flight is using without perturbing the stats they are measuring.
  [[nodiscard]] const GroupTree* cached_tree(GroupId group) const;

  // -- replica-sharded roots (GroupConfig::root_replicas > 1) --------------
  // Each group hashes to R immutable anchor points (slot 0's anchor is the
  // legacy rendezvous point); every slot's root is the alive peer nearest
  // that slot's anchor, excluding the other slots' roots. Subscribers are
  // owned by the slot whose anchor is nearest their coordinate, so the
  // partition is a pure function of geometry and never reshuffles under
  // churn — a slot-root death promotes the next-nearest peer to the SAME
  // anchor, which inherits the whole shard (membership bits, graft
  // cursors, tree) by construction. At R == 1 these collapse to the legacy
  // accessors and the slot machinery stays entirely dormant.

  /// Whether the replica-sharded pipeline is active (root_replicas > 1).
  [[nodiscard]] bool sharded() const noexcept { return config_.root_replicas > 1; }
  [[nodiscard]] std::size_t root_replicas() const noexcept {
    return config_.root_replicas > 1 ? config_.root_replicas : 1;
  }
  /// The slot owning `peer` for this group: argmin over anchors of the L1
  /// distance from the peer's coordinate (ties to the lowest slot). Always
  /// 0 when not sharded.
  [[nodiscard]] std::uint32_t owner_slot(GroupId group, PeerId peer);
  /// The current root of `slot` (== root_of at slot 0 / when not sharded).
  [[nodiscard]] PeerId slot_root(GroupId group, std::uint32_t slot);
  /// slot_root(group, owner_slot(group, peer)) — where this peer's
  /// control traffic (subscribe / unsubscribe / publish) must land.
  [[nodiscard]] PeerId owner_root(GroupId group, PeerId peer);
  /// The slot's shard tree (rooted at the slot root, spanning only the
  /// slot's members), built lazily like tree_snapshot. nullptr when the
  /// shard is empty. Falls back to the whole-group snapshot at R == 1.
  [[nodiscard]] std::shared_ptr<const GroupTree> slot_tree_snapshot(GroupId group,
                                                                    std::uint32_t slot);
  /// Members owned by `slot` (the group's subscriber_count at R == 1).
  [[nodiscard]] std::size_t slot_member_count(GroupId group, std::uint32_t slot);

  // -- QoS 2 payload retention -------------------------------------------
  // Retained buffers are per-peer protocol state, not root state: they
  // survive tree rebuilds and root migrations untouched (payload history
  // is independent of tree shape), a migrated-to root simply starts
  // retaining from its first forwarded wave, and a departed peer's buffers
  // are dropped with it — the dead cannot serve repairs, which is exactly
  // why NACKs escalate ancestor-by-ancestor.

  /// Retains a wave payload covering seqs [lo, hi] at `peer` for later
  /// repair service; bounded by GroupConfig::retention_window (counted in
  /// seqs, so batched range waves cannot inflate the memory bound).
  /// Returns seqs evicted so the caller can attribute them to the group's
  /// stats.
  std::size_t retain_payload(PeerId peer, GroupId group, std::uint64_t lo,
                             std::uint64_t hi, std::any payload);
  /// The payload `peer` retained for (group, seq), or nullptr.
  [[nodiscard]] const std::any* retained_payload(PeerId peer, GroupId group,
                                                 std::uint64_t seq) const;
  /// Highest occupancy any single retained buffer ever reached — the
  /// "memory bounded by the retention window" acceptance gate reads this.
  [[nodiscard]] std::size_t retained_peak() const noexcept { return retained_peak_; }
  /// Entries currently retained across all peers and groups.
  [[nodiscard]] std::size_t retained_entry_total() const noexcept;
  /// Live (peer, group) retained buffers. Together with
  /// retained_entry_total() this expresses the memory bound the bench
  /// gates on: entries <= buffers x retention_window — O(1) per
  /// responder-group pair, never O(waves published).
  [[nodiscard]] std::size_t retained_buffer_count() const noexcept;

  /// Synchronous (lossless) publish accounting: resolves the tree and
  /// books one payload message per edge and one delivery per spanned
  /// subscriber. The message-driven pipeline books these itself instead.
  struct PublishReceipt {
    std::uint64_t payload_messages = 0;
    std::size_t delivered = 0;
  };
  PublishReceipt publish(GroupId group);

  // -- warm root failover (PubSubConfig::warm_failover drives this) --------
  // The replica is the group's deterministic successor: the next-nearest
  // alive peer to the rendezvous point after the root. Because departures
  // only shrink the alive set, the recomputed rendezvous root after a root
  // death IS the established replica — promotion needs no election. The
  // manager keeps the replica's bookkeeping copy (membership bits) inside
  // the same façade; the protocol layer drives it purely through real
  // kReplicaSyncKind envelopes, so the copy is exactly as fresh as the
  // sync stream, never an oracle shortcut.

  /// The peer that WOULD be the group's replica right now (pure compute,
  /// no state change): next-nearest alive peer to the rendezvous point
  /// excluding the current root; kInvalidPeer when no second peer exists.
  [[nodiscard]] PeerId replica_candidate(GroupId group);
  /// The established replica, (re)assigning it when unset or dead. A fresh
  /// assignment starts with an empty bookkeeping copy — the caller owes it
  /// a full bootstrap stream.
  PeerId ensure_replica(GroupId group);
  /// The established replica without assignment; kInvalidPeer when none.
  [[nodiscard]] PeerId replica_of(GroupId group) const;
  /// Applies one membership delta to the replica's copy (idempotent).
  void replica_apply_membership(GroupId group, PeerId member, bool subscribed);
  [[nodiscard]] std::size_t replica_member_count(GroupId group) const;

  /// Alive subscribers of the group, ascending — the bootstrap stream and
  /// the promotion consistency check enumerate these.
  [[nodiscard]] std::vector<PeerId> subscribers_of(GroupId group) const;
  /// The [lo, hi] ranges `peer` retains for `group`, lowest first.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> retained_ranges(
      PeerId peer, GroupId group) const;

  /// One root migration, as seen by handle_departure: `warm` when the
  /// successor was the group's established replica (it inherits the
  /// synced subscriber set and its RetainedBuffer);
  /// `membership_consistent` (warm only) when the replica's synced copy
  /// matched the root's authoritative set at the instant of promotion.
  struct RootPromotion {
    GroupId group = 0;
    PeerId old_root = kInvalidPeer;
    PeerId new_root = kInvalidPeer;
    bool warm = false;
    bool membership_consistent = false;
    /// Which replica slot migrated (always 0 when not sharded). Only the
    /// slot-0 (authority) promotion participates in the warm-failover
    /// protocol; other slots hand their shard to the promoted successor
    /// through the anchor-ownership rule alone.
    std::uint32_t slot = 0;
  };
  struct ReplicaLoss {
    GroupId group = 0;
    PeerId old_replica = kInvalidPeer;
  };
  /// Everything one departure obliges the protocol layer to do.
  struct DepartureOutcome {
    std::vector<AbortedGraft> aborted_grafts;  ///< re-issue these subscribes
    std::vector<RootPromotion> promotions;     ///< roots that migrated
    std::vector<ReplicaLoss> replica_losses;   ///< replicas owed a re-bootstrap
    std::vector<GroupId> member_losses;  ///< groups that lost `peer` (root alive)
  };

  /// Marks `peer` departed everywhere: membership, cached trees (repaired
  /// in place where possible), rendezvous roots (migrated, with warm
  /// promotion when the successor was the established replica), replica
  /// assignments, and in-flight grafts whose descent the departure
  /// invalidated — aborted grafts are returned so the protocol layer can
  /// re-issue the subscribes.
  DepartureOutcome handle_departure(PeerId peer);
  [[nodiscard]] bool alive(PeerId peer) const { return alive_[peer]; }

  // -- observability -------------------------------------------------------
  /// Clock for latency accounting (graft begin -> attach lands in
  /// GroupStats::graft_latency). The message-driven pipeline always wires
  /// the simulator's now(), tracing or not, so stats stay identical either
  /// way; without a clock (synchronous manager usage) no latency samples.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  /// Attaches (nullptr: detaches) a trace sink for tree-maintenance and
  /// graft-lifecycle events. Purely passive; requires a clock for
  /// meaningful timestamps.
  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.attach(sink); }

  /// Mutable access materializes state for a first-seen group (the
  /// protocol layer writes counters through it); the const overload is a
  /// pure lookup that leaves unknown groups unknown.
  [[nodiscard]] GroupStats& stats(GroupId group);
  [[nodiscard]] const GroupStats& stats(GroupId group) const;
  [[nodiscard]] GroupStats total_stats() const;
  [[nodiscard]] std::vector<GroupId> known_groups() const;

 private:
  /// One replica slot of a sharded group: its own root, member shard, and
  /// cached shard tree — the same (root, members, cached, dirty, drift)
  /// tuple the legacy GroupState keeps for the whole group.
  struct ShardSlot {
    PeerId root = kInvalidPeer;
    overlay::PeerSet members;
    std::shared_ptr<GroupTree> cached;
    bool dirty = true;
    std::size_t repairs_since_build = 0;
  };

  /// Membership is kept in member-sized sets, so a group costs O(members)
  /// however many peers the overlay has.
  struct GroupState {
    overlay::PeerSet subscribers;
    PeerId root = kInvalidPeer;
    std::shared_ptr<GroupTree> cached;
    bool dirty = true;  // cached tree (if any) no longer trusted
    std::size_t repairs_since_build = 0;
    // Warm failover: the established replica and its sync-driven copy of
    // the subscriber set.
    PeerId replica = kInvalidPeer;
    overlay::PeerSet replica_members;
    // Replica sharding (root_replicas > 1 only; both stay empty otherwise).
    // slots[0].root mirrors `root` so root_of keeps meaning "the authority".
    std::vector<ShardSlot> slots;
    std::vector<geometry::Point> anchors;  // immutable slot hash points
    GroupStats stats;
  };

  /// Inline memo hit (protocol code resolves the same group many times per
  /// wave); the miss path materializes/looks up out of line.
  GroupState& state_of(GroupId group) {
    if (state_cache_ != nullptr && state_cache_group_ == group) return *state_cache_;
    return state_of_slow(group);
  }
  GroupState& state_of_slow(GroupId group);
  [[nodiscard]] PeerId rendezvous_root(GroupId group) const;
  /// Shared rendezvous lookup: nearest alive peer to the group's hash
  /// point, skipping `exclude`; kInvalidPeer when no candidate remains.
  [[nodiscard]] PeerId rendezvous_nearest(GroupId group, PeerId exclude) const;
  /// The deterministic hash point for (group, slot); slot 0 reproduces the
  /// legacy rendezvous point bit-for-bit.
  [[nodiscard]] geometry::Point hash_point(GroupId group, std::uint32_t slot) const;
  /// Nearest alive peer to `target` under L1, ties to the lowest id,
  /// skipping the peers in `exclude`; kInvalidPeer when no candidate
  /// remains. A ring search over the peer bucket grid: it visits the
  /// target's neighbourhood, not every peer.
  [[nodiscard]] PeerId nearest_to(const geometry::Point& target,
                                  std::span<const PeerId> exclude) const;
  /// Materializes the slot array + anchors for a first-seen sharded group.
  void init_slots(GroupId group, GroupState& gs);
  [[nodiscard]] std::uint32_t owner_slot_of(const GroupState& gs, PeerId peer) const;
  /// Re-elects `slot`'s root: nearest alive peer to its anchor excluding
  /// every other slot's current root (falling back to no exclusions when
  /// the alive set is smaller than R).
  [[nodiscard]] PeerId recompute_slot_root(const GroupState& gs, std::uint32_t slot) const;
  void refresh_tree(GroupId group, GroupState& gs);
  void refresh_slot_tree(GroupId group, GroupState& gs, std::uint32_t slot);
  /// The shared lazy-build core behind refresh_tree / refresh_slot_tree:
  /// identical statements over whichever (root, members, cached, dirty,
  /// drift) tuple the caller binds, so the R == 1 path stays bit-exact.
  void refresh_tree_core(GroupId group, GroupStats& stats, PeerId root,
                         const overlay::PeerSet& members,
                         std::shared_ptr<GroupTree>& cached, bool& dirty,
                         std::size_t& repairs_since_build);
  /// COW gate: clones the cached tree iff publish-wave snapshots still
  /// reference it, then returns it for mutation. A clone costs O(tree
  /// nodes); callers that stale the zones drop them with stale_zones().
  [[nodiscard]] GroupTree& writable_tree(std::shared_ptr<GroupTree>& cached);
  /// Whether the replica's synced membership copy matches the
  /// authoritative set at a warm promotion.
  [[nodiscard]] bool replica_matches(const GroupState& gs) const;

  struct InFlightGraft {
    GroupId group = 0;
    PeerId subscriber = kInvalidPeer;
    PeerId root = kInvalidPeer;  // initiating root (invalidates on migration)
    std::uint32_t slot = 0;      // owning shard (0 when not sharded)
    GraftCursor cursor;
    double started_at = 0.0;  // clock_ at graft_begin (graft_latency sample)
  };

  /// Uniform view over "the tree-owning tuple" — the legacy whole-group
  /// fields at R == 1 (or slot-less groups), a ShardSlot's otherwise.
  /// Validation/mutation code written against this executes the exact
  /// legacy statements when bound to the legacy fields.
  struct SlotView {
    PeerId root;
    std::shared_ptr<GroupTree>* cached;
    bool* dirty;
  };
  [[nodiscard]] SlotView view_of(GroupState& gs, std::uint32_t slot) {
    if (gs.slots.empty()) return {gs.root, &gs.cached, &gs.dirty};
    ShardSlot& s = gs.slots[slot];
    return {s.root, &s.cached, &s.dirty};
  }
  void handle_departure_sharded_group(GroupId group, GroupState& gs, PeerId peer,
                                      DepartureOutcome& outcome);

  const overlay::OverlayGraph& graph_;
  GroupConfig config_;
  std::vector<bool> alive_;
  /// Peer buckets over the (immutable) peer set: the rendezvous ring search
  /// and the bounding box group ids hash into.
  overlay::BucketGrid grid_;
  std::map<GroupId, GroupState> groups_;
  /// One-entry memo over groups_: protocol traffic touches the same group
  /// many times in a row (every hop of a wave), and groups_ nodes are never
  /// erased, so the cached pointer stays valid for the manager's lifetime.
  GroupId state_cache_group_ = 0;
  GroupState* state_cache_ = nullptr;
  /// In-flight routed grafts by id, plus the (group, subscriber) guard
  /// that keeps duplicate subscribes from racing two descents for one
  /// subscriber.
  std::map<std::uint64_t, InFlightGraft> grafts_;
  std::set<std::pair<GroupId, PeerId>> grafting_;
  std::uint64_t next_graft_id_ = 1;
  /// QoS 2 retention, indexed peer-first so a departure drops the whole
  /// peer's history in one clear. A flat vector (one slot per peer, sized
  /// at construction) rather than a map.
  std::vector<std::map<GroupId, RetainedBuffer>> retained_;
  std::size_t retained_peak_ = 0;
  /// Observability (see set_clock/set_trace_sink): both optional, both
  /// passive — no protocol decision reads them.
  std::function<double()> clock_;
  obs::Tracer tracer_;

  [[nodiscard]] double clock_now() const { return clock_ ? clock_() : 0.0; }
};

inline GroupStats& GroupManager::stats(GroupId group) {
  return state_of(group).stats;
}

}  // namespace geomcast::groups
