#include "groups/group_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "groups_test_util.hpp"
#include "multicast/space_partition.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;

std::vector<bool> subscriber_mask(std::size_t n, std::initializer_list<PeerId> ids) {
  std::vector<bool> mask(n, false);
  for (PeerId p : ids) mask[p] = true;
  return mask;
}

std::vector<bool> random_mask(std::size_t n, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<bool> mask(n, false);
  std::size_t placed = 0;
  while (placed < count) {
    const auto p = static_cast<PeerId>(rng.next_below(n));
    if (!mask[p]) {
      mask[p] = true;
      ++placed;
    }
  }
  return mask;
}

/// Every flagged subscriber is reached and linked to the root by parent
/// edges.
void expect_spans_subscribers(const overlay::OverlayGraph& graph, const GroupTree& gt) {
  for (PeerId p = 0; p < graph.size(); ++p) {
    if (!gt.is_subscriber(p)) continue;
    ASSERT_TRUE(gt.tree.reached(p)) << "subscriber " << p << " unreached";
    PeerId cursor = p;
    std::size_t guard = 0;
    while (cursor != gt.tree.root()) {
      ASSERT_LE(++guard, graph.size()) << "parent chain of " << p << " does not end";
      cursor = gt.tree.parent(cursor);
    }
  }
}

void expect_member_sized(const GroupTree& gt, const std::string& step) {
  EXPECT_TRUE(testutil::member_sized(gt))
      << step << ": entries beyond the reached peers plus the stranded subscribers";
}

std::vector<PeerId> ids_of(const std::vector<bool>& mask) {
  std::vector<PeerId> ids;
  for (PeerId p = 0; p < mask.size(); ++p)
    if (mask[p]) ids.push_back(p);
  return ids;
}

TEST(GroupTreeTest, SpansAllSubscribersAndPrunesTheRest) {
  const auto graph = make_overlay(80, 2, 101);
  const auto subs = random_mask(graph.size(), 12, 7);
  const auto gt = build_group_tree(graph, 0, subs);
  EXPECT_EQ(gt.subscriber_count(), 12u);
  expect_spans_subscribers(graph, gt);
  // A 12-subscriber tree must be strictly cheaper than spanning everyone.
  EXPECT_LT(gt.tree.edge_count(), graph.size() - 1);
  EXPECT_EQ(gt.build_messages, gt.tree.edge_count());
}

TEST(GroupTreeTest, FullSubscriptionMatchesWholeSpaceConstruction) {
  const auto graph = make_overlay(60, 3, 102);
  std::vector<bool> everyone(graph.size(), true);
  const auto gt = build_group_tree(graph, 5, everyone);
  const auto whole = multicast::build_multicast_tree(graph, 5);
  EXPECT_EQ(gt.tree.edge_count(), graph.size() - 1);
  for (PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(gt.tree.parent(p), whole.tree.parent(p)) << "peer " << p;
  EXPECT_EQ(gt.relay_count(), 0u);
}

TEST(GroupTreeTest, DeterministicAcrossRuns) {
  const auto graph = make_overlay(70, 2, 103);
  const auto subs = random_mask(graph.size(), 10, 11);
  const auto a = build_group_tree(graph, 3, subs);
  const auto b = build_group_tree(graph, 3, subs);
  for (PeerId p = 0; p < graph.size(); ++p) EXPECT_EQ(a.tree.parent(p), b.tree.parent(p));
  EXPECT_EQ(a.build_messages, b.build_messages);
}

TEST(GroupTreeTest, GraftEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 104);
  auto subs = random_mask(graph.size(), 8, 13);
  // Pick a peer not yet subscribed to graft in.
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  auto grown = build_group_tree(graph, 0, subs);
  const auto graft = graft_subscriber(graph, grown, extra);
  EXPECT_TRUE(graft.attached);
  EXPECT_GT(graft.messages, 0u);

  subs[extra] = true;
  const auto fresh = build_group_tree(graph, 0, subs);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(grown.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(grown.is_subscriber(p), fresh.is_subscriber(p)) << "peer " << p;
  }
}

TEST(GroupTreeTest, PruneEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 105);
  auto subs = random_mask(graph.size(), 9, 17);
  PeerId victim = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (subs[p]) {
      victim = p;
      break;
    }
  ASSERT_NE(victim, kInvalidPeer);

  auto shrunk = build_group_tree(graph, 0, subs);
  prune_subscriber(shrunk, victim);

  subs[victim] = false;
  const auto fresh = build_group_tree(graph, 0, subs);
  EXPECT_EQ(shrunk.subscriber_count(), fresh.subscriber_count());
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(shrunk.tree.reached(p), fresh.tree.reached(p)) << "peer " << p;
    if (fresh.tree.reached(p) && p != 0)
      EXPECT_EQ(shrunk.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
  }
}

TEST(GroupTreeTest, GraftThenPruneIsIdentity) {
  const auto graph = make_overlay(60, 2, 106);
  const auto subs = random_mask(graph.size(), 6, 19);
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  const auto original = build_group_tree(graph, 0, subs);
  auto mutated = build_group_tree(graph, 0, subs);
  ASSERT_TRUE(graft_subscriber(graph, mutated, extra).attached);
  prune_subscriber(mutated, extra);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(mutated.tree.reached(p), original.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(mutated.is_subscriber(p), original.is_subscriber(p)) << "peer " << p;
  }
}

TEST(GroupTreeTest, RepairRemovesDepartedAndKeepsCoverage) {
  const auto graph = make_overlay(80, 2, 107);
  std::vector<bool> everyone(graph.size(), true);
  auto gt = build_group_tree(graph, 0, everyone);

  // Depart an interior peer (has children) that is not the root.
  PeerId departed = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (!gt.tree.children(p).empty()) {
      departed = p;
      break;
    }
  ASSERT_NE(departed, kInvalidPeer);

  std::vector<bool> alive(graph.size(), true);
  alive[departed] = false;
  const auto repair = repair_group_tree(graph, gt, departed, alive);
  ASSERT_FALSE(repair.needs_rebuild);
  EXPECT_GT(repair.reattached, 0u);
  EXPECT_TRUE(gt.zones_stale);
  EXPECT_FALSE(gt.tree.reached(departed));
  EXPECT_FALSE(gt.is_subscriber(departed));
  expect_spans_subscribers(graph, gt);
}

TEST(GroupTreeTest, BuildFromIdsMatchesMaskAndRejectsUnsortedIds) {
  const auto graph = make_overlay(80, 2, 110);
  const auto subs = random_mask(graph.size(), 10, 23);
  const auto ids = ids_of(subs);
  const auto from_mask = build_group_tree(graph, 4, subs);
  const auto from_ids = build_group_tree(graph, 4, ids);
  EXPECT_EQ(testutil::stored_peers(from_ids), testutil::stored_peers(from_mask));
  for (PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(from_ids.tree.parent(p), from_mask.tree.parent(p)) << "peer " << p;
  expect_member_sized(from_ids, "build");

  auto unsorted = ids;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_THROW((void)build_group_tree(graph, 4, unsorted), std::invalid_argument);
  auto duplicated = ids;
  duplicated.insert(duplicated.begin(), ids.front());
  EXPECT_THROW((void)build_group_tree(graph, 4, duplicated), std::invalid_argument);
}

TEST(GroupTreeTest, ToggleStormLeavesOnlyMemberSizedEntries) {
  const auto graph = make_overlay(120, 2, 111);
  const PeerId root = 0;
  auto subs = random_mask(graph.size(), 8, 29);
  subs[root] = false;
  auto gt = build_group_tree(graph, root, subs);
  expect_member_sized(gt, "build");
  util::Rng rng(31);
  for (int op = 0; op < 400; ++op) {
    const auto p = static_cast<PeerId>(1 + rng.next_below(graph.size() - 1));
    const std::string step = "op " + std::to_string(op) + " peer " + std::to_string(p);
    if (subs[p]) {
      subs[p] = false;
      prune_subscriber(gt, p);
      expect_member_sized(gt, step + " prune");
    } else {
      subs[p] = true;
      if (!graft_subscriber(graph, gt, p).attached) gt = build_group_tree(graph, root, subs);
      expect_member_sized(gt, step + " graft");
    }
  }
  // Exact grafts and prunes: the stormed tree stores exactly what a fresh
  // build of the final membership stores — no entry of a pruned relay
  // survives.
  const auto fresh = build_group_tree(graph, root, subs);
  EXPECT_EQ(testutil::stored_peers(gt), testutil::stored_peers(fresh));
  EXPECT_EQ(gt.tree.reached_count(), fresh.tree.reached_count());
  EXPECT_EQ(gt.zones.size(), fresh.zones.size());
}

TEST(GroupTreeTest, RepairAndRescueKeepEntriesMemberSized) {
  // Repair: an interior departure frees the departed peer's entries and
  // those of the relay chain it shielded; the zones go stale and are freed.
  {
    const auto graph = make_overlay(80, 2, 112);
    auto subs = random_mask(graph.size(), 20, 37);
    subs[0] = false;
    auto gt = build_group_tree(graph, 0, subs);
    PeerId departed = kInvalidPeer;
    for (PeerId p : gt.tree.children(0))
      if (!gt.tree.children(p).empty()) {
        departed = p;
        break;
      }
    ASSERT_NE(departed, kInvalidPeer);
    std::vector<bool> alive(graph.size(), true);
    alive[departed] = false;
    const auto repair = repair_group_tree(graph, gt, departed, alive);
    ASSERT_FALSE(repair.needs_rebuild);
    EXPECT_FALSE(gt.tree.reached(departed));
    expect_member_sized(gt, "repair");
  }
  // Rescue: builds under churn strand subscribers behind dead delegates;
  // each rescued subscriber's splice path gains entries, nothing else.
  std::size_t stranded_builds = 0;
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    const auto graph = make_overlay(100, 2, seed);
    util::Rng rng(seed);
    std::vector<bool> alive(graph.size(), true);
    for (PeerId p = 1; p < graph.size(); ++p) alive[p] = rng.uniform(0.0, 1.0) > 0.3;
    std::vector<PeerId> ids;
    for (PeerId p = 1; p < graph.size() && ids.size() < 20; ++p)
      if (alive[p] && rng.uniform(0.0, 1.0) < 0.4) ids.push_back(p);
    auto gt = build_group_tree(graph, 0, ids, {}, alive);
    expect_member_sized(gt, "build seed " + std::to_string(seed));
    if (gt.reached_subscribers == gt.subscriber_count()) continue;
    ++stranded_builds;
    (void)rescue_stranded(graph, gt, alive);
    expect_member_sized(gt, "rescue seed " + std::to_string(seed));
  }
  EXPECT_GT(stranded_builds, 0u) << "no build stranded a subscriber; rescue untested";
}

TEST(GroupTreeTest, GraftOnStaleZonesThrows) {
  const auto graph = make_overlay(40, 2, 108);
  const auto subs = subscriber_mask(graph.size(), {3, 9, 20});
  auto gt = build_group_tree(graph, 0, subs);
  gt.zones_stale = true;
  EXPECT_THROW((void)graft_subscriber(graph, gt, 15), std::logic_error);
}

TEST(GroupTreeTest, RandomPolicyRejected) {
  const auto graph = make_overlay(30, 2, 109);
  const auto subs = subscriber_mask(graph.size(), {1, 2});
  multicast::MulticastConfig config;
  config.policy = multicast::PickPolicy::kRandom;
  EXPECT_THROW((void)build_group_tree(graph, 0, subs, config), std::invalid_argument);
}

}  // namespace
}  // namespace geomcast::groups
