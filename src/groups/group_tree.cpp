#include "groups/group_tree.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "geometry/distance.hpp"
#include "multicast/local_rule.hpp"
#include "multicast/zone.hpp"
#include "overlay/routing.hpp"
#include "stability/churn.hpp"

namespace geomcast::groups {

namespace {

bool is_alive(const std::vector<bool>& alive, PeerId p) {
  return alive.empty() || alive[p];
}

/// Overlay neighbours of `p` that are up, as selection candidates.
std::vector<overlay::Candidate> alive_neighbors(const overlay::OverlayGraph& graph,
                                                PeerId p, const std::vector<bool>& alive) {
  std::vector<overlay::Candidate> result;
  for (PeerId q : graph.neighbors(p))
    if (is_alive(alive, q)) result.push_back(overlay::Candidate{q, graph.point(q)});
  return result;
}

/// Removes the relay-only leaf chain starting at `v` (stops at the root, a
/// subscriber, or a branching point). Returns edges removed.
std::size_t cascade_relays(GroupTree& gt, PeerId v) {
  std::size_t removed = 0;
  while (v != gt.tree.root() && !gt.is_subscriber(v) && gt.tree.reached(v) &&
         gt.tree.children(v).empty()) {
    const PeerId up = gt.tree.parent(v);
    gt.tree.remove_leaf(v);
    gt.zones.erase(v);
    ++removed;
    v = up;
  }
  return removed;
}

void check_deterministic(const multicast::MulticastConfig& config) {
  if (config.policy == multicast::PickPolicy::kRandom)
    throw std::invalid_argument(
        "groups: PickPolicy::kRandom is not supported — incremental tree "
        "maintenance requires deterministic delegate selection");
}

}  // namespace

GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                           const std::vector<bool>& subscribers,
                           const multicast::MulticastConfig& config,
                           const std::vector<bool>& alive) {
  if (subscribers.size() != graph.size())
    throw std::invalid_argument("build_group_tree: subscriber mask size mismatch");
  std::vector<PeerId> ids;
  for (PeerId p = 0; p < subscribers.size(); ++p)
    if (subscribers[p]) ids.push_back(p);
  return build_group_tree(graph, root, ids, config, alive);
}

GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                           const std::vector<PeerId>& subscriber_ids,
                           const multicast::MulticastConfig& config,
                           const std::vector<bool>& alive) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("build_group_tree: root out of range");
  if (!alive.empty() && alive.size() != n)
    throw std::invalid_argument("build_group_tree: alive mask size mismatch");
  check_deterministic(config);

  GroupTree gt;
  gt.tree = multicast::MulticastTree(n, root);
  for (std::size_t i = 0; i < subscriber_ids.size(); ++i) {
    const PeerId p = subscriber_ids[i];
    if (p >= n) throw std::invalid_argument("build_group_tree: subscriber out of range");
    if (i > 0 && p <= subscriber_ids[i - 1])
      throw std::invalid_argument("build_group_tree: subscriber ids not strictly ascending");
    if (!is_alive(alive, p))
      throw std::invalid_argument("build_group_tree: subscriber is not alive");
    gt.subscribers.insert(p);
  }

  // Each queue entry carries the subscribers strictly inside its zone;
  // sibling slices are disjoint, so every subscriber follows exactly one
  // root-to-slice path and the total pruning work is O(S x depth), not
  // O(tree_nodes x assignments x S).
  struct Pending {
    PeerId peer;
    geometry::Rect zone;
    std::vector<PeerId> subs;
  };
  const geometry::Rect& root_zone =
      gt.zones.assign(root, multicast::initiator_zone(graph.dims()));
  std::deque<Pending> queue;
  queue.push_back(Pending{root, root_zone, subscriber_ids});

  while (!queue.empty()) {
    const Pending current = std::move(queue.front());
    queue.pop_front();

    const auto neighbors = alive_neighbors(graph, current.peer, alive);
    const auto assignments = multicast::partition_step(
        graph.point(current.peer), current.zone, neighbors, config.policy, config.metric);
    std::vector<std::vector<PeerId>> split(assignments.size());
    for (PeerId s : current.subs)
      for (std::size_t i = 0; i < assignments.size(); ++i)
        if (assignments[i].zone.contains_interior(graph.point(s))) {
          split[i].push_back(s);
          break;
        }
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      if (split[i].empty()) continue;  // pruned: slice holds no subscriber
      const multicast::ZoneAssignment& a = assignments[i];
      ++gt.build_messages;
      gt.tree.add_edge(current.peer, a.child);
      gt.zones.assign(a.child, a.zone);
      queue.push_back(Pending{a.child, a.zone, std::move(split[i])});
    }
  }
  for (PeerId s : subscriber_ids)
    if (gt.tree.reached(s)) ++gt.reached_subscribers;
  return gt;
}

GraftCursor graft_cursor(const GroupTree& gt, PeerId s) {
  return GraftCursor{s, gt.tree.root(), 0};
}

GraftStep graft_step(const overlay::OverlayGraph& graph, GroupTree& gt,
                     GraftCursor& cursor, const multicast::MulticastConfig& config,
                     const std::vector<bool>& alive) {
  const PeerId s = cursor.subscriber;
  if (s >= graph.size()) throw std::invalid_argument("graft_step: peer out of range");
  if (gt.zones_stale)
    throw std::logic_error("graft_step: zones are stale after a repair; rebuild");
  check_deterministic(config);

  if (gt.tree.reached(s)) {
    // Already spanned: a re-subscribe, a relay promotion, or (mid-descent)
    // a concurrent graft that recruited s as a relay first. Flip the
    // delivery flag and stop — no further descent decision is owed.
    if (gt.subscribers.insert(s)) ++gt.reached_subscribers;
    return GraftStep{GraftStatus::kAttached, s};
  }
  // Every decision either follows an existing edge or creates the next
  // missing one, so a legal descent is bounded by the tree height plus the
  // new path's length; past the peer count the cache is inconsistent.
  if (cursor.steps > graph.size()) return GraftStep{GraftStatus::kExhausted};

  const geometry::Rect* zone = gt.zones.find(cursor.current);
  if (zone == nullptr) throw std::logic_error("graft_step: cursor is not at a tree node");
  const geometry::Point& target = graph.point(s);
  const auto neighbors = alive_neighbors(graph, cursor.current, alive);
  const auto assignments =
      multicast::partition_step(graph.point(cursor.current), *zone, neighbors,
                                config.policy, config.metric);
  const multicast::ZoneAssignment* next = nullptr;
  for (const multicast::ZoneAssignment& a : assignments)
    if (a.zone.contains_interior(target)) {
      next = &a;
      break;
    }
  if (next == nullptr) return GraftStep{GraftStatus::kStranded};
  ++cursor.steps;
  if (!gt.tree.reached(next->child)) {
    gt.tree.add_edge(cursor.current, next->child);
    gt.zones.assign(next->child, next->zone);
    // A stranded subscriber recruited as a relay is spanned again.
    if (gt.is_subscriber(next->child)) ++gt.reached_subscribers;
  }
  cursor.current = next->child;
  if (cursor.current == s) {
    if (gt.subscribers.insert(s)) ++gt.reached_subscribers;
    return GraftStep{GraftStatus::kAttached, s};
  }
  return GraftStep{GraftStatus::kDescend, cursor.current};
}

GraftResult graft_subscriber(const overlay::OverlayGraph& graph, GroupTree& gt, PeerId s,
                             const multicast::MulticastConfig& config,
                             const std::vector<bool>& alive) {
  // The synchronous descent: the routed control plane's step function,
  // looped to completion in place. Keeping it a pure wrapper is what makes
  // "routed == local" a structural property rather than a parallel
  // implementation to keep in sync.
  GraftResult result;
  GraftCursor cursor = graft_cursor(gt, s);
  for (;;) {
    const GraftStep step = graft_step(graph, gt, cursor, config, alive);
    result.messages = cursor.steps;
    switch (step.status) {
      case GraftStatus::kAttached:
        result.attached = true;
        return result;
      case GraftStatus::kDescend:
        continue;
      case GraftStatus::kStranded:
      case GraftStatus::kExhausted:
        return result;  // caller falls back to a rebuild
    }
  }
}

std::size_t prune_subscriber(GroupTree& gt, PeerId s) {
  if (s >= gt.tree.peer_count())
    throw std::invalid_argument("prune_subscriber: peer out of range");
  if (!gt.subscribers.erase(s)) return 0;
  if (!gt.tree.reached(s)) return 0;
  --gt.reached_subscribers;
  return cascade_relays(gt, s);
}

GroupRepairResult repair_group_tree(const overlay::OverlayGraph& graph, GroupTree& gt,
                                    PeerId departed, const std::vector<bool>& alive) {
  if (departed >= graph.size())
    throw std::invalid_argument("repair_group_tree: peer out of range");
  if (alive.size() != graph.size())
    throw std::invalid_argument("repair_group_tree: alive mask size mismatch");
  if (departed == gt.tree.root())
    throw std::invalid_argument("repair_group_tree: migrate the root before repairing");

  GroupRepairResult result;
  if (gt.subscribers.erase(departed) && gt.tree.reached(departed))
    --gt.reached_subscribers;
  if (!gt.tree.reached(departed)) return result;

  // Orphans are processed one at a time so the adopt/splice predicates see
  // the tree as already-mended orphans left it (no stale-cycle surprises).
  const std::vector<PeerId> orphans = gt.tree.children(departed);
  for (PeerId orphan : orphans) {
    // First the stability-layer rule: adopt under an alive in-tree overlay
    // neighbour outside the orphan's own subtree, nearest first.
    const auto repaired = stability::repair_orphans(
        graph, {orphan},
        [&](PeerId o, PeerId q) {
          return alive[q] && q != departed && gt.tree.reached(q) &&
                 !gt.tree.in_subtree(o, q);
        },
        [&](PeerId q, PeerId incumbent) {
          return geometry::l1_distance(graph.point(q), graph.point(orphan)) <
                 geometry::l1_distance(graph.point(incumbent), graph.point(orphan));
        });
    if (!repaired.reattached.empty()) {
      gt.tree.reattach(orphan, repaired.reattached.front().second);
      ++result.reattached;
      ++result.messages;
      continue;
    }

    // Fallback: splice onto the greedy route toward the tree root. Every
    // hop is an overlay edge; the first in-tree peer outside the orphan's
    // subtree adopts the chain.
    std::vector<PeerId> chain;  // non-tree relays between orphan and adopter
    PeerId cursor = orphan;
    PeerId adopter = kInvalidPeer;
    const auto usable = [&](PeerId q) { return alive[q] && q != departed; };
    for (std::size_t guard = 0; guard < graph.size(); ++guard) {
      const PeerId next = overlay::greedy_next_hop(graph, cursor, gt.tree.root(), usable);
      if (next == kInvalidPeer) break;  // stranded
      if (gt.tree.reached(next)) {
        if (gt.tree.in_subtree(orphan, next)) break;  // cannot thread through itself
        adopter = next;
        break;
      }
      chain.push_back(next);
      cursor = next;
    }
    if (adopter == kInvalidPeer) {
      result.needs_rebuild = true;
      continue;
    }
    // Attach the chain from the adopter downward, then hand it the orphan.
    PeerId parent = adopter;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      gt.tree.add_edge(parent, *it);
      // A stranded subscriber recruited as a splice relay is spanned again.
      if (gt.is_subscriber(*it)) ++gt.reached_subscribers;
      ++result.spliced_relays;
      ++result.messages;
      parent = *it;
    }
    gt.tree.reattach(orphan, parent);
    ++result.reattached;
    ++result.messages;
  }

  if (!result.needs_rebuild) {
    const PeerId old_parent = gt.tree.parent(departed);
    gt.tree.remove_leaf(departed);
    // The departed peer may have shielded a relay-only chain; its removal
    // is repair control traffic like the prune path's cascades.
    result.messages += cascade_relays(gt, old_parent);
  }
  // Even a pure leaf removal stales the zones: the departed peer leaves
  // the candidate sets of its in-tree overlay neighbours, so replaying the
  // recursion (what a graft does) would pick different delegates there.
  gt.stale_zones();
  return result;
}

StrandRescueResult rescue_stranded(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   const std::vector<bool>& alive) {
  StrandRescueResult result;
  if (gt.reached_subscribers == gt.subscriber_count()) return result;
  const auto usable = [&](PeerId q) { return is_alive(alive, q); };
  // Ascending ids: an earlier rescue's splice path can recruit a later
  // stranded subscriber, so the order decides the tree.
  std::vector<PeerId> stranded;
  for (PeerId s : gt.subscribers.keys())
    if (!gt.tree.reached(s)) stranded.push_back(s);
  std::sort(stranded.begin(), stranded.end());
  for (PeerId s : stranded) {
    if (gt.tree.reached(s)) continue;
    // Same shape as repair's splice fallback, with a single stranded peer
    // instead of an orphan subtree: greedy-walk toward the root, recruit
    // the non-tree relays passed through, attach at the first in-tree
    // peer. (An earlier rescue may already have recruited s as a relay —
    // the reached() check above skips it, spanned.)
    std::vector<PeerId> chain;
    PeerId cursor = s;
    PeerId adopter = kInvalidPeer;
    for (std::size_t guard = 0; guard < graph.size(); ++guard) {
      const PeerId next = overlay::greedy_next_hop(graph, cursor, gt.tree.root(), usable);
      if (next == kInvalidPeer) break;  // truly unreachable from here
      if (gt.tree.reached(next)) {
        adopter = next;
        break;
      }
      chain.push_back(next);
      cursor = next;
    }
    if (adopter == kInvalidPeer) {
      ++result.still_stranded;
      continue;
    }
    PeerId parent = adopter;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      gt.tree.add_edge(parent, *it);
      if (gt.is_subscriber(*it)) ++gt.reached_subscribers;
      ++result.spliced_relays;
      ++result.messages;
      parent = *it;
    }
    gt.tree.add_edge(parent, s);
    ++gt.reached_subscribers;
    ++result.rescued;
    ++result.messages;
  }
  // Splice paths are not what the recursion would have produced: replaying
  // a zone descent against them is undefined, so grafts must rebuild.
  if (result.rescued > 0 || result.spliced_relays > 0) gt.stale_zones();
  return result;
}

}  // namespace geomcast::groups
