#include "groups/group_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/distance.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {

std::size_t RetainedBuffer::retain(std::uint64_t lo, std::uint64_t hi,
                                   std::any payload) {
  if (hi < lo) throw std::invalid_argument("RetainedBuffer::retain: hi < lo");
  // Re-retaining a held range (same lo) overwrites in place; drop the old
  // width before adding the new so covered_ stays exact either way.
  const auto held = entries_.find(lo);
  if (held != entries_.end())
    covered_ -= static_cast<std::size_t>(held->second.seq_hi - lo + 1);
  entries_.insert_or_assign(lo, Entry{hi, std::move(payload)});
  covered_ += static_cast<std::size_t>(hi - lo + 1);
  std::size_t evicted = 0;
  while (covered_ > capacity_) {  // lowest ranges go first
    const auto oldest = entries_.begin();
    const std::size_t width =
        static_cast<std::size_t>(oldest->second.seq_hi - oldest->first + 1);
    covered_ -= width;
    evicted += width;
    entries_.erase(oldest);
  }
  return evicted;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> RetainedBuffer::ranges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(entries_.size());
  for (const auto& [lo, entry] : entries_) out.emplace_back(lo, entry.seq_hi);
  return out;
}

const std::any* RetainedBuffer::find(std::uint64_t seq) const {
  // The covering range, if any: the last entry starting at or below seq.
  auto it = entries_.upper_bound(seq);
  if (it == entries_.begin()) return nullptr;
  --it;
  return it->second.seq_hi >= seq ? &it->second.payload : nullptr;
}

GroupManager::GroupManager(const overlay::OverlayGraph& graph, GroupConfig config)
    : graph_(graph),
      config_(config),
      alive_(graph.size(), true),
      grid_(graph.points()),
      retained_(graph.size()) {
  if (graph.size() == 0)
    throw std::invalid_argument("GroupManager: empty overlay");
}

geometry::Point GroupManager::hash_point(GroupId group, std::uint32_t slot) const {
  // Hash the group id to a point inside the peers' bounding box — any peer
  // can recompute this locally from the group id, so the rendezvous needs
  // no directory. Replica slots salt the stream before the per-dimension
  // draws; slot 0's salt is zero, so its point is bit-identical to the
  // historic single-root rendezvous point.
  const std::size_t dims = graph_.dims();
  std::uint64_t sm = config_.rendezvous_seed ^ (group * 0x9e3779b97f4a7c15ULL);
  sm ^= static_cast<std::uint64_t>(slot) * 0xbf58476d1ce4e5b9ULL;
  geometry::Point target(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const double frac =
        static_cast<double>(util::split_mix64(sm) >> 11) * 0x1.0p-53;
    target[d] = grid_.lo[d] + (grid_.hi[d] - grid_.lo[d]) * frac;
  }
  return target;
}

PeerId GroupManager::nearest_to(const geometry::Point& target,
                                std::span<const PeerId> exclude) const {
  return grid_.nearest_l1(graph_.points(), target, [&](PeerId p) {
    return alive_[p] && std::find(exclude.begin(), exclude.end(), p) == exclude.end();
  });
}

PeerId GroupManager::rendezvous_nearest(GroupId group, PeerId exclude) const {
  // With `exclude` set to the current root, the search yields the group's
  // replica: the deterministic successor a root death would promote.
  return nearest_to(hash_point(group, 0), {&exclude, 1});
}

PeerId GroupManager::rendezvous_root(GroupId group) const {
  const PeerId best = rendezvous_nearest(group, kInvalidPeer);
  if (best == kInvalidPeer)
    throw std::runtime_error("GroupManager: no alive peer can host the group");
  return best;
}

GroupManager::GroupState& GroupManager::state_of_slow(GroupId group) {
  auto [it, inserted] = groups_.try_emplace(group);
  GroupState& gs = it->second;
  if (inserted) {
    gs.root = rendezvous_root(group);
    if (config_.root_replicas > 1) init_slots(group, gs);
  }
  state_cache_group_ = group;
  state_cache_ = &gs;
  return gs;
}

void GroupManager::init_slots(GroupId group, GroupState& gs) {
  const std::size_t replicas = config_.root_replicas;
  gs.anchors.reserve(replicas);
  for (std::uint32_t s = 0; s < replicas; ++s)
    gs.anchors.push_back(hash_point(group, s));
  gs.slots.resize(replicas);
  // Slot 0's anchor is the legacy rendezvous point, so its root is the
  // legacy root; later slots exclude the earlier roots so R alive peers
  // yield R distinct replicas.
  gs.slots[0].root = gs.root;
  for (std::uint32_t s = 1; s < replicas; ++s)
    gs.slots[s].root = recompute_slot_root(gs, s);
}

std::uint32_t GroupManager::owner_slot_of(const GroupState& gs, PeerId peer) const {
  const geometry::Point& at = graph_.point(peer);
  std::uint32_t best = 0;
  double best_dist = geometry::l1_distance(at, gs.anchors[0]);
  for (std::uint32_t s = 1; s < gs.anchors.size(); ++s) {
    const double dist = geometry::l1_distance(at, gs.anchors[s]);
    if (dist < best_dist) {  // ties go to the lowest slot
      best = s;
      best_dist = dist;
    }
  }
  return best;
}

PeerId GroupManager::recompute_slot_root(const GroupState& gs, std::uint32_t slot) const {
  std::vector<PeerId> exclude;
  exclude.reserve(gs.slots.size());
  for (std::uint32_t s = 0; s < gs.slots.size(); ++s) {
    const PeerId other = gs.slots[s].root;
    if (s != slot && other != kInvalidPeer) exclude.push_back(other);
  }
  const PeerId best = nearest_to(gs.anchors[slot], exclude);
  // Fewer alive peers than replicas: double up rather than orphan the slot.
  if (best != kInvalidPeer) return best;
  return nearest_to(gs.anchors[slot], {});
}

PeerId GroupManager::root_of(GroupId group) { return state_of(group).root; }

std::uint32_t GroupManager::owner_slot(GroupId group, PeerId peer) {
  if (config_.root_replicas <= 1) return 0;
  return owner_slot_of(state_of(group), peer);
}

PeerId GroupManager::slot_root(GroupId group, std::uint32_t slot) {
  GroupState& gs = state_of(group);
  if (gs.slots.empty()) return gs.root;
  return gs.slots[slot].root;
}

PeerId GroupManager::owner_root(GroupId group, PeerId peer) {
  GroupState& gs = state_of(group);
  if (gs.slots.empty()) return gs.root;
  return gs.slots[owner_slot_of(gs, peer)].root;
}

std::shared_ptr<const GroupTree> GroupManager::slot_tree_snapshot(GroupId group,
                                                                  std::uint32_t slot) {
  GroupState& gs = state_of(group);
  if (gs.slots.empty()) {
    if (gs.subscribers.empty()) return nullptr;
    refresh_tree(group, gs);
    return gs.cached;
  }
  ShardSlot& s = gs.slots[slot];
  if (s.members.empty()) return nullptr;
  refresh_slot_tree(group, gs, slot);
  return s.cached;
}

std::size_t GroupManager::slot_member_count(GroupId group, std::uint32_t slot) {
  GroupState& gs = state_of(group);
  if (gs.slots.empty()) return gs.subscribers.size();
  return gs.slots[slot].members.size();
}

void GroupManager::subscribe(GroupId group, PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::subscribe: peer out of range");
  if (!alive_[peer])
    throw std::invalid_argument("GroupManager::subscribe: peer has departed");
  GroupState& gs = state_of(group);
  if (!gs.subscribers.insert(peer)) return;  // duplicate subscribe is a no-op
  ++gs.stats.subscribes;
  if (!gs.slots.empty()) {
    // Sharded: the membership lands in the owner slot's shard; the graft
    // rule below applies to the shard tree, not a whole-group tree.
    ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
    slot.members.insert(peer);
    if (slot.cached && !slot.dirty && !slot.cached->zones_stale) {
      const auto graft =
          graft_subscriber(graph_, writable_tree(slot.cached), peer, config_.tree, alive_);
      if (graft.attached) {
        ++gs.stats.grafts;
        gs.stats.graft_messages += graft.messages;
      } else {
        slot.dirty = true;
      }
    } else {
      slot.dirty = true;
    }
    return;
  }
  if (gs.cached && !gs.dirty && !gs.cached->zones_stale) {
    const auto graft = graft_subscriber(graph_, writable_tree(gs.cached), peer, config_.tree, alive_);
    if (graft.attached) {
      // Grafts are exact (the tree equals a fresh build), so they do not
      // count toward drift.
      ++gs.stats.grafts;
      gs.stats.graft_messages += graft.messages;
    } else {
      gs.dirty = true;  // stranded graft: rebuild lazily on next publish
    }
  } else {
    gs.dirty = true;
  }
}

void GroupManager::unsubscribe(GroupId group, PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::unsubscribe: peer out of range");
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;  // unknown group: no-op, no state created
  GroupState& gs = it->second;
  if (!gs.subscribers.erase(peer)) return;
  ++gs.stats.unsubscribes;
  if (!gs.slots.empty()) {
    ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
    slot.members.erase(peer);
    if (slot.cached && !slot.dirty && slot.cached->is_subscriber(peer)) {
      const bool touched = slot.cached->tree.reached(peer);
      const std::size_t removed = prune_subscriber(writable_tree(slot.cached), peer);
      if (touched) {
        ++gs.stats.prunes;
        gs.stats.prune_messages += removed;
      }
    }
    return;
  }
  if (gs.cached && !gs.dirty && gs.cached->is_subscriber(peer)) {
    // Only a spanned subscriber's departure edits the tree; a stranded one
    // is membership-only and must not count toward drift.
    const bool touched = gs.cached->tree.reached(peer);
    const std::size_t removed = prune_subscriber(writable_tree(gs.cached), peer);
    if (touched) {  // prunes are exact too: no drift, just bookkeeping
      ++gs.stats.prunes;
      gs.stats.prune_messages += removed;
    }
  }
}

GroupManager::SubscribeNeed GroupManager::subscribe_membership(GroupId group,
                                                               PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::subscribe_membership: peer out of range");
  if (!alive_[peer])
    throw std::invalid_argument("GroupManager::subscribe_membership: peer has departed");
  GroupState& gs = state_of(group);
  const bool fresh = gs.subscribers.insert(peer);
  if (fresh) ++gs.stats.subscribes;
  if (!gs.slots.empty()) {
    // Sharded: book the shard membership and answer the graft question
    // against the owner slot's tree — the same rule, scoped to the shard.
    ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
    if (fresh) slot.members.insert(peer);
    const bool slot_graftable =
        slot.cached && !slot.dirty && !slot.cached->zones_stale;
    if (slot_graftable &&
        !(slot.cached->is_subscriber(peer) && slot.cached->tree.reached(peer)))
      return SubscribeNeed::kGraft;
    if (fresh && !slot_graftable) slot.dirty = true;
    return SubscribeNeed::kNone;
  }
  const bool graftable = gs.cached && !gs.dirty && !gs.cached->zones_stale;
  if (graftable &&
      !(gs.cached->is_subscriber(peer) && gs.cached->tree.reached(peer)))
    return SubscribeNeed::kGraft;
  // Mirror subscribe(): a fresh member without a graftable tree rides the
  // next publish's lazy rebuild; duplicates leave the cache flags alone.
  if (fresh && !graftable) gs.dirty = true;
  return SubscribeNeed::kNone;
}

std::uint64_t GroupManager::graft_begin(GroupId group, PeerId subscriber, PeerId root) {
  GroupState& gs = state_of(group);
  if (subscriber >= graph_.size() || !alive_[subscriber] ||
      !gs.subscribers.contains(subscriber))
    return 0;
  // Sharded groups graft into the subscriber's owner-slot tree; the view
  // binds the legacy whole-group fields otherwise, so the checks and the
  // cursor are exactly the historic ones at R == 1.
  const std::uint32_t slot = gs.slots.empty() ? 0 : owner_slot_of(gs, subscriber);
  const SlotView v = view_of(gs, slot);
  if (v.root != root || !*v.cached || *v.dirty || (*v.cached)->zones_stale) return 0;
  if (!grafting_.insert({group, subscriber}).second) return 0;  // one at a time
  const std::uint64_t id = next_graft_id_++;
  grafts_.emplace(id, InFlightGraft{group, subscriber, root, slot,
                                    graft_cursor(**v.cached, subscriber), clock_now()});
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftBegin, group, id, 0, 0,
                  root, subscriber});
  return id;
}

GroupManager::GraftAdvance GroupManager::graft_advance(std::uint64_t graft_id,
                                                       PeerId self) {
  GraftAdvance advance;  // kFailed unless proven otherwise
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return advance;  // aborted while the request flew
  InFlightGraft& g = it->second;
  GroupState& gs = groups_.at(g.group);
  const SlotView v = view_of(gs, g.slot);
  // The cursor is only valid against the exact tree state it left: any
  // rebuild, repair (stale zones), migration, membership change, or death
  // of subscriber/current since the previous step fails the descent here
  // rather than replaying it against a tree it never saw.
  if (!alive_[g.subscriber] || !gs.subscribers.contains(g.subscriber) || v.root != g.root ||
      !*v.cached || *v.dirty || (*v.cached)->zones_stale ||
      self != g.cursor.current || !(*v.cached)->tree.reached(g.cursor.current))
    return advance;
  const std::size_t decisions_before = g.cursor.steps;
  const GraftStep step = graft_step(graph_, writable_tree(*v.cached), g.cursor,
                                    config_.tree, alive_);
  gs.stats.graft_messages += g.cursor.steps - decisions_before;
  switch (step.status) {
    case GraftStatus::kAttached:
      advance.status = GraftAdvance::Status::kAttached;
      break;  // the entry retires on the root's graft_finish
    case GraftStatus::kDescend:
      advance.status = GraftAdvance::Status::kDescend;
      advance.next = step.next;
      break;
    case GraftStatus::kStranded:
    case GraftStatus::kExhausted:
      break;  // kFailed: caller reports reject, the root aborts
  }
  return advance;
}

bool GroupManager::graft_finish(std::uint64_t graft_id) {
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return false;
  GroupState& gs = groups_.at(it->second.group);
  const PeerId subscriber = it->second.subscriber;
  ++gs.stats.grafts;
  // Request -> attach latency; meaningful only when a clock is wired (the
  // message-driven pipeline always wires one, so the sample set does not
  // depend on whether tracing is attached).
  if (clock_) gs.stats.graft_latency.record(clock_() - it->second.started_at);
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftFinish, it->second.group,
                  graft_id, 0, 0, it->second.root, subscriber});
  // Revalidate before retiring: membership can churn while the accept is
  // in flight. An unsubscribe prunes the attached subscriber out of the
  // still-clean tree, and a re-subscribe landing before this finish is
  // blocked by the in-flight guard below (graft_begin returns 0) — so a
  // member can end up owed a span no descent will ever provide. Defer to
  // a rebuild rather than leave a clean cache that never delivers.
  const SlotView v = view_of(gs, it->second.slot);
  if (gs.subscribers.contains(subscriber) && *v.cached && !*v.dirty &&
      !((*v.cached)->is_subscriber(subscriber) &&
        (*v.cached)->tree.reached(subscriber)))
    *v.dirty = true;
  grafting_.erase({it->second.group, subscriber});
  grafts_.erase(it);
  return true;
}

std::optional<GroupManager::AbortedGraft> GroupManager::graft_abort(
    std::uint64_t graft_id) {
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return std::nullopt;
  const AbortedGraft aborted{it->second.group, it->second.subscriber};
  GroupState& gs = groups_.at(aborted.group);
  // The half-grafted relay path (if any) serves nobody: dirty the cache so
  // the next publish rebuilds — spanning the subscriber's membership if it
  // survived — instead of publishing down dangling edges forever.
  *view_of(gs, it->second.slot).dirty = true;
  ++gs.stats.graft_aborts;
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftAbort, aborted.group,
                  graft_id, 0, 0, it->second.root, aborted.subscriber});
  grafting_.erase({aborted.group, aborted.subscriber});
  grafts_.erase(it);
  return aborted;
}

bool GroupManager::is_subscribed(GroupId group, PeerId peer) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.subscribers.contains(peer);
}

std::size_t GroupManager::subscriber_count(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.subscribers.size();
}

GroupTree& GroupManager::writable_tree(std::shared_ptr<GroupTree>& cached) {
  if (cached.use_count() > 1)
    cached = std::make_shared<GroupTree>(*cached);
  return *cached;
}

void GroupManager::refresh_tree_core(GroupId group, GroupStats& stats, PeerId root,
                                     const overlay::PeerSet& members,
                                     std::shared_ptr<GroupTree>& cached, bool& dirty,
                                     std::size_t& repairs_since_build) {
  const bool drifted =
      repairs_since_build >
      config_.rebuild_threshold *
          static_cast<double>(std::max<std::size_t>(members.size(), 1));
  if (cached && !dirty && !drifted) {
    ++stats.cache_hits;
    return;
  }
  cached = std::make_shared<GroupTree>(
      build_group_tree(graph_, root, members.sorted(), config_.tree, alive_));
  dirty = false;
  repairs_since_build = 0;
  ++stats.tree_builds;
  stats.build_messages += cached->build_messages;
  // seq fields double as build cost / span here (kTreeBuild is not
  // seq-scoped, so the wave query never misreads them).
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kTreeBuild, group, obs::kNoWave,
                  cached->build_messages, cached->reached_subscribers, root});
  // A fresh recursion under churn can strand subscribers a repaired tree
  // kept (a dead delegate walls off their slices); splice them back via
  // greedy routes so a rebuild is never WORSE than the repair it replaced.
  // Rescue paths deviate from the recursion like repairs do, but are not
  // drift: another rebuild would strand — and rescue — identically.
  const auto rescue = rescue_stranded(graph_, *cached, alive_);
  stats.stranded_rescues += rescue.rescued;
  stats.repair_messages += rescue.messages;
  stats.stranded_subscribers =
      cached->subscriber_count() - cached->reached_subscribers;
}

void GroupManager::refresh_tree(GroupId group, GroupState& gs) {
  refresh_tree_core(group, gs.stats, gs.root, gs.subscribers, gs.cached, gs.dirty,
                    gs.repairs_since_build);
}

void GroupManager::refresh_slot_tree(GroupId group, GroupState& gs,
                                     std::uint32_t slot) {
  ShardSlot& s = gs.slots[slot];
  refresh_tree_core(group, gs.stats, s.root, s.members, s.cached, s.dirty,
                    s.repairs_since_build);
}

const GroupTree* GroupManager::tree(GroupId group) {
  GroupState& gs = state_of(group);
  if (gs.subscribers.empty()) return nullptr;
  refresh_tree(group, gs);
  return gs.cached.get();
}

std::shared_ptr<const GroupTree> GroupManager::tree_snapshot(GroupId group) {
  GroupState& gs = state_of(group);
  if (gs.subscribers.empty()) return nullptr;
  refresh_tree(group, gs);
  return gs.cached;
}

const GroupTree* GroupManager::cached_tree(GroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end() || it->second.dirty) return nullptr;
  return it->second.cached.get();
}

std::size_t GroupManager::retain_payload(PeerId peer, GroupId group, std::uint64_t lo,
                                         std::uint64_t hi, std::any payload) {
  if (config_.retention_window == 0) return 0;
  auto& buffer = retained_[peer]
                     .try_emplace(group, config_.retention_window)
                     .first->second;
  const std::size_t evicted = buffer.retain(lo, hi, std::move(payload));
  retained_peak_ = std::max(retained_peak_, buffer.size());
  return evicted;
}

const std::any* GroupManager::retained_payload(PeerId peer, GroupId group,
                                               std::uint64_t seq) const {
  const auto& buffers = retained_[peer];
  const auto git = buffers.find(group);
  if (git == buffers.end()) return nullptr;
  return git->second.find(seq);
}

std::size_t GroupManager::retained_entry_total() const noexcept {
  std::size_t total = 0;
  for (const auto& buffers : retained_)
    for (const auto& [group, buffer] : buffers) total += buffer.size();
  return total;
}

std::size_t GroupManager::retained_buffer_count() const noexcept {
  std::size_t count = 0;
  for (const auto& buffers : retained_) count += buffers.size();
  return count;
}

PeerId GroupManager::replica_candidate(GroupId group) {
  GroupState& gs = state_of(group);
  if (gs.slots.empty()) return rendezvous_nearest(group, gs.root);
  // Sharded: the warm-failover replica must not double as any slot's root,
  // or one death would cost two shards at once.
  std::vector<PeerId> exclude;
  exclude.reserve(gs.slots.size());
  for (const ShardSlot& slot : gs.slots)
    if (slot.root != kInvalidPeer) exclude.push_back(slot.root);
  return nearest_to(gs.anchors[0], exclude);
}

PeerId GroupManager::ensure_replica(GroupId group) {
  GroupState& gs = state_of(group);
  if (gs.replica != kInvalidPeer && alive_[gs.replica]) return gs.replica;
  gs.replica = replica_candidate(group);
  // A fresh assignment knows nothing yet; the protocol layer streams the
  // full bootstrap before any delta relies on this copy.
  gs.replica_members.clear();
  return gs.replica;
}

PeerId GroupManager::replica_of(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? kInvalidPeer : it->second.replica;
}

void GroupManager::replica_apply_membership(GroupId group, PeerId member,
                                            bool subscribed) {
  GroupState& gs = state_of(group);
  if (member >= graph_.size()) return;
  if (subscribed)
    gs.replica_members.insert(member);
  else
    gs.replica_members.erase(member);
}

std::size_t GroupManager::replica_member_count(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.replica_members.size();
}

bool GroupManager::replica_matches(const GroupState& gs) const {
  // The replica's synced copy against the authoritative set, masking dead
  // peers in the copy: a promoted root purges the dead locally (the failure
  // detector is global), so only raced subscribe/unsubscribe deltas of
  // alive peers count as divergence.
  for (const PeerId p : gs.subscribers.keys())
    if (!alive_[p] || !gs.replica_members.contains(p)) return false;
  for (const PeerId p : gs.replica_members.keys())
    if (alive_[p] && !gs.subscribers.contains(p)) return false;
  return true;
}

std::vector<PeerId> GroupManager::subscribers_of(GroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  return it->second.subscribers.sorted();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> GroupManager::retained_ranges(
    PeerId peer, GroupId group) const {
  const auto& buffers = retained_[peer];
  const auto git = buffers.find(group);
  if (git == buffers.end()) return {};
  return git->second.ranges();
}

GroupManager::PublishReceipt GroupManager::publish(GroupId group) {
  GroupState& gs = state_of(group);
  ++gs.stats.publishes;
  PublishReceipt receipt;
  if (gs.subscribers.empty()) return receipt;
  if (!gs.slots.empty()) {
    // Sharded oracle: one shard tree per non-empty slot, summed.
    for (std::uint32_t s = 0; s < gs.slots.size(); ++s) {
      if (gs.slots[s].members.empty()) continue;
      refresh_slot_tree(group, gs, s);
      const GroupTree& gt = *gs.slots[s].cached;
      receipt.payload_messages += gt.tree.edge_count();
      receipt.delivered += gt.reached_subscribers;
    }
    gs.stats.payload_messages += receipt.payload_messages;
    gs.stats.expected_deliveries += receipt.delivered;
    gs.stats.deliveries += receipt.delivered;
    return receipt;
  }
  refresh_tree(group, gs);
  const GroupTree& gt = *gs.cached;
  receipt.payload_messages = gt.tree.edge_count();
  receipt.delivered = gt.reached_subscribers;
  gs.stats.payload_messages += receipt.payload_messages;
  gs.stats.expected_deliveries += receipt.delivered;
  gs.stats.deliveries += receipt.delivered;  // synchronous path is lossless
  return receipt;
}

GroupManager::DepartureOutcome GroupManager::handle_departure(PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::handle_departure: peer out of range");
  DepartureOutcome outcome;
  if (!alive_[peer]) return outcome;
  alive_[peer] = false;
  // The dead serve no repairs: drop the peer's retained history (NACKs
  // that would have landed here escalate to the next ancestor instead).
  retained_[peer].clear();
  for (auto& [group, gs] : groups_) {
    if (!gs.slots.empty()) {
      handle_departure_sharded_group(group, gs, peer, outcome);
      continue;
    }
    if (gs.subscribers.erase(peer)) {
      // The surviving root owes its replica an unmember delta; a dying
      // root cannot send one (the promotion bootstrap covers it instead).
      if (gs.root != peer) outcome.member_losses.push_back(group);
    }
    if (gs.replica == peer) {
      // The replica died out from under the root: clear the assignment and
      // its copy; the protocol layer re-bootstraps a fresh successor.
      outcome.replica_losses.push_back({group, peer});
      gs.replica = kInvalidPeer;
      gs.replica_members.clear();
    }
    if (gs.root == peer) {
      // Rendezvous migrates to the next-nearest alive peer; the old root's
      // tree is useless there. When that successor is the established
      // replica (it always is while one is assigned — departures only
      // shrink the alive set), the promotion is warm: the successor keeps
      // the synced subscriber set and its own RetainedBuffer.
      const PeerId old_root = gs.root;
      gs.root = rendezvous_root(group);
      const bool warm = gs.replica != kInvalidPeer && gs.replica == gs.root;
      const bool consistent = warm && replica_matches(gs);
      if (warm) ++gs.stats.warm_promotions;
      gs.cached.reset();
      gs.dirty = true;
      ++gs.stats.root_migrations;
      // The promoted root owes the group a fresh replica of its own; the
      // old copy's job is done.
      gs.replica = kInvalidPeer;
      gs.replica_members.clear();
      outcome.promotions.push_back({group, old_root, gs.root, warm, consistent});
      if (tracer_.enabled())
        tracer_.emit({clock_now(), obs::TraceEventType::kRootMigration, group,
                      obs::kNoWave, 0, 0, gs.root, peer});
      continue;
    }
    if (!gs.cached || gs.dirty) continue;
    if (!gs.cached->tree.reached(peer)) {
      const bool stranded_member = gs.cached->is_subscriber(peer);
      // Not in the tree, but the departure still shrinks the candidate
      // sets of any in-tree overlay neighbour — a replayed recursion (what
      // a graft does) would pick different delegates there, so the zones
      // can no longer be trusted for grafting.
      bool neighbours_tree = false;
      for (PeerId q : graph_.neighbors(peer))
        if (gs.cached->tree.reached(q)) {
          neighbours_tree = true;
          break;
        }
      if (stranded_member || neighbours_tree) {
        GroupTree& gt = writable_tree(gs.cached);
        gt.subscribers.erase(peer);  // a stranded member was never spanned
        if (neighbours_tree) gt.stale_zones();
      }
      continue;
    }
    const auto repair = repair_group_tree(graph_, writable_tree(gs.cached), peer, alive_);
    ++gs.stats.repairs;
    gs.stats.repair_messages += repair.messages;
    if (repair.needs_rebuild) {
      ++gs.stats.repair_failures;
      gs.dirty = true;
    } else {
      ++gs.repairs_since_build;
    }
  }
  // Sweep the in-flight grafts: any descent whose ground shifted — its
  // subscriber died or left, its root migrated, its tree was reset or
  // stale-zoned by the repair above, or its current peer fell out of the
  // tree — aborts now rather than limping on to a reject. The survivors
  // (groups the departure never touched) keep descending. For sharded
  // groups the view binds the owner slot's tuple, so a slot-root
  // promotion aborts exactly that shard's descents; the protocol layer
  // re-issues the subscribes, which route to the promoted successor —
  // the shard handoff leaks no cursor.
  for (auto it = grafts_.begin(); it != grafts_.end();) {
    const InFlightGraft& g = it->second;
    GroupState& gs = groups_.at(g.group);
    const SlotView v = view_of(gs, g.slot);
    const bool valid = alive_[g.subscriber] && gs.subscribers.contains(g.subscriber) &&
                       v.root == g.root && *v.cached && !*v.dirty &&
                       !(*v.cached)->zones_stale &&
                       (*v.cached)->tree.reached(g.cursor.current);
    const std::uint64_t id = it->first;
    ++it;  // graft_abort erases `id`; advance first
    if (!valid)
      if (const auto a = graft_abort(id)) outcome.aborted_grafts.push_back(*a);
  }
  return outcome;
}

void GroupManager::handle_departure_sharded_group(GroupId group, GroupState& gs,
                                                  PeerId peer,
                                                  DepartureOutcome& outcome) {
  if (gs.subscribers.erase(peer)) {
    ShardSlot& owner = gs.slots[owner_slot_of(gs, peer)];
    owner.members.erase(peer);
    // The surviving owner-slot root owes the replica an unmember delta; a
    // dying root cannot send one (the promotion bootstrap covers it).
    if (owner.root != peer) outcome.member_losses.push_back(group);
  }
  if (gs.replica == peer) {
    outcome.replica_losses.push_back({group, peer});
    gs.replica = kInvalidPeer;
    gs.replica_members.clear();
  }
  for (std::uint32_t s = 0; s < gs.slots.size(); ++s) {
    ShardSlot& slot = gs.slots[s];
    if (slot.root == peer) {
      // Promotion by anchor ownership: the next-nearest alive peer to this
      // slot's (immutable) anchor inherits the whole shard — membership
      // bits and graft cursors live in the slot, not at the peer, so the
      // handoff is a root reassignment, never a cold drop. Only slot 0
      // participates in the warm-failover replica protocol.
      const PeerId old_root = slot.root;
      slot.root = recompute_slot_root(gs, s);
      const bool warm =
          s == 0 && gs.replica != kInvalidPeer && gs.replica == slot.root;
      const bool consistent = warm && replica_matches(gs);
      if (warm) ++gs.stats.warm_promotions;
      slot.cached.reset();
      slot.dirty = true;
      slot.repairs_since_build = 0;
      ++gs.stats.root_migrations;
      if (s == 0) {
        gs.root = slot.root;  // root_of stays "the authority's root"
        gs.replica = kInvalidPeer;
        gs.replica_members.clear();
      }
      outcome.promotions.push_back({group, old_root, slot.root, warm, consistent, s});
      if (tracer_.enabled())
        tracer_.emit({clock_now(), obs::TraceEventType::kRootMigration, group,
                      obs::kNoWave, 0, 0, slot.root, peer});
      continue;
    }
    if (!slot.cached || slot.dirty) continue;
    if (!slot.cached->tree.reached(peer)) {
      const bool stranded_member = slot.cached->is_subscriber(peer);
      bool neighbours_tree = false;
      for (PeerId q : graph_.neighbors(peer))
        if (slot.cached->tree.reached(q)) {
          neighbours_tree = true;
          break;
        }
      if (stranded_member || neighbours_tree) {
        GroupTree& gt = writable_tree(slot.cached);
        gt.subscribers.erase(peer);
        if (neighbours_tree) gt.stale_zones();
      }
      continue;
    }
    const auto repair = repair_group_tree(graph_, writable_tree(slot.cached), peer, alive_);
    ++gs.stats.repairs;
    gs.stats.repair_messages += repair.messages;
    if (repair.needs_rebuild) {
      ++gs.stats.repair_failures;
      slot.dirty = true;
    } else {
      ++slot.repairs_since_build;
    }
  }
}

const GroupStats& GroupManager::stats(GroupId group) const {
  static const GroupStats kEmpty{};
  const auto it = groups_.find(group);
  return it == groups_.end() ? kEmpty : it->second.stats;
}

GroupStats GroupManager::total_stats() const {
  GroupStats total;
  for (const auto& [group, gs] : groups_) total += gs.stats;
  return total;
}

std::vector<GroupId> GroupManager::known_groups() const {
  std::vector<GroupId> ids;
  ids.reserve(groups_.size());
  for (const auto& [group, gs] : groups_) ids.push_back(group);
  return ids;
}

}  // namespace geomcast::groups
