// Golden-pin battery for the simulator core: the timer-wheel event queue,
// the interval-set (group, seq) dedup and the dense window-slot storage.
// Each workload cell runs one seeded scenario and pins
//   (1) an order-independent digest of every delivered
//       (peer, group, seq, time) tuple, and
//   (2) the FNV-1a hash of the stats JSON (GroupStats + NetworkStats +
//       HopStats — obs::to_json is canonical, so one differing counter
//       fails)
// to golden values (golden/groups_simcore.hpp). The pins were captured
// while a binary-heap queue and per-seq std::set dedup still ran beside
// the fast core and matched it bit for bit on every cell, so they carry
// that equivalence forward. Cells span QoS 0/1/2, stochastic loss, churn,
// batching, a warm root-kill, and a grid-kNN local-knowledge overlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "golden/groups_simcore.hpp"
#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/grid_knn.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct CellResult {
  std::vector<testutil::DeliveryTuple> delivered;
  std::string stats_json;
};

/// The `count` non-root peers nearest `group`'s root (L2, ties by id),
/// subscribed with the same stagger as subscribe_members. Greedy control
/// routing is not guaranteed on a grid-kNN overlay; keeping members near
/// their root keeps most subscribes from stranding (the pinned stats
/// count the ones that do).
std::vector<PeerId> subscribe_nearest(PubSubSystem& system,
                                      const overlay::OverlayGraph& graph,
                                      GroupId group, std::size_t count) {
  const PeerId root = system.manager().root_of(group);
  std::vector<std::pair<double, PeerId>> by_dist;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (p != root)
      by_dist.emplace_back(geometry::l2_distance_sq(graph.point(p), graph.point(root)), p);
  std::partial_sort(by_dist.begin(), by_dist.begin() + static_cast<std::ptrdiff_t>(count),
                    by_dist.end());
  std::vector<PeerId> members;
  for (std::size_t i = 0; i < count; ++i) {
    members.push_back(by_dist[i].second);
    system.subscribe_at(0.001 * static_cast<double>(i + 1), members.back(), group);
  }
  return members;
}

/// Runs one seeded workload and captures what the pins hash. The workload
/// is a pure function of (graph, config, knobs below).
CellResult run_cell(const overlay::OverlayGraph& graph, const PubSubConfig& config,
                    std::size_t groups, std::size_t members, std::size_t publishes,
                    std::size_t departures, bool kill_root, bool nearest_members) {
  PubSubSystem system(graph, config);
  CellResult out;
  system.set_delivery_probe(
      [&out](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        out.delivered.emplace_back(peer, group, seq, time);
      });
  std::vector<std::vector<PeerId>> cell_members(groups);
  for (GroupId g = 0; g < groups; ++g)
    cell_members[g] = nearest_members
                          ? subscribe_nearest(system, graph, g, members)
                          : subscribe_members(system, graph, g, members, config.seed + g);
  for (GroupId g = 0; g < groups; ++g) {
    const PeerId root = system.manager().root_of(g);
    for (std::size_t i = 0; i < publishes; ++i)
      system.publish_at(2.0 + 0.05 * static_cast<double>(i) +
                            0.001 * static_cast<double>(g),
                        root, g);
  }
  // Churn: subscribers leave mid-workload, deterministically picked from
  // the back of each membership list so roots survive.
  std::size_t departed = 0;
  for (GroupId g = 0; g < groups && departed < departures; ++g)
    for (auto it = cell_members[g].rbegin();
         it != cell_members[g].rend() && departed < departures; ++it, ++departed)
      system.depart_at(2.2 + 0.05 * static_cast<double>(departed), *it);
  if (kill_root) system.depart_at(2.26, system.manager().root_of(0));
  system.run();

  std::string json = obs::to_json(system.total_stats());
  json += '\n';
  json += obs::to_json(system.simulator().stats());
  json += '\n';
  json += obs::to_json(system.hop_stats());
  out.stats_json = std::move(json);
  return out;
}

const golden::SimCorePin* find_pin(std::string_view cell) {
  for (const golden::SimCorePin& pin : golden::kSimCorePins)
    if (cell == pin.cell) return &pin;
  return nullptr;
}

void expect_pinned(std::string_view cell, const overlay::OverlayGraph& graph,
                   const PubSubConfig& config, std::size_t groups, std::size_t members,
                   std::size_t publishes, std::size_t departures = 0,
                   bool kill_root = false, bool nearest_members = false) {
  const auto result = run_cell(graph, config, groups, members, publishes, departures,
                               kill_root, nearest_members);
  EXPECT_FALSE(result.delivered.empty());
  const golden::SimCorePin* pin = find_pin(cell);
  ASSERT_NE(pin, nullptr) << "no golden pin for cell " << cell;
  EXPECT_EQ(testutil::delivered_digest(result.delivered), pin->delivered_digest)
      << "cell " << cell;
  EXPECT_EQ(testutil::text_hash(result.stats_json), pin->stats_hash) << "cell " << cell;
}

TEST(GroupsSimCoreTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501);
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  expect_pinned("QoS0BatchedLossless", graph, config, /*groups=*/4, /*members=*/10,
                    /*publishes=*/6);
}

TEST(GroupsSimCoreTest, QoS1LossyBatchedWithChurn) {
  const auto graph = make_overlay(150, 2, 1502);
  PubSubConfig config;
  config.seed = 223;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.loss.drop_probability = 0.03;
  expect_pinned("QoS1LossyBatchedWithChurn", graph, config, 4, 10, 6,
                    /*departures=*/6);
}

TEST(GroupsSimCoreTest, QoS2LossyRepairPath) {
  const auto graph = make_overlay(120, 3, 1503);
  PubSubConfig config;
  config.seed = 227;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.05;
  config.loss.drop_probability = 0.04;
  expect_pinned("QoS2LossyRepairPath", graph, config, 3, 12, 8);
}

TEST(GroupsSimCoreTest, WarmRootKillFailover) {
  const auto graph = make_overlay(150, 2, 1504);
  PubSubConfig config;
  config.seed = 229;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.warm_failover = true;
  expect_pinned("WarmRootKillFailover", graph, config, 3, 12, 6, /*departures=*/0,
                    /*kill_root=*/true);
}

TEST(GroupsSimCoreTest, SeedSweepQoS1) {
  // Same scenario, several seeds — the dedup interval-set and wheel pop
  // order must hold across schedule permutations, not one lucky seed.
  const auto graph = make_overlay(130, 2, 1505);
  for (const std::uint64_t seed : {233u, 239u, 241u}) {
    PubSubConfig config;
    config.seed = seed;
    config.reliability.qos = multicast::QoS::kAcked;
    config.reliability.ack_timeout = 0.05;
    config.reliability.max_retries = 4;
    config.loss.drop_probability = 0.02;
    expect_pinned("SeedSweepQoS1/" + std::to_string(seed), graph, config, 3, 8, 5);
  }
}

TEST(GroupsSimCoreTest, GridKnnLocalMembersQoS1Batched) {
  // The one pub/sub cell on a local-knowledge overlay: 5000 peers on a
  // grid-kNN equilibrium (k = 16), each group's members the peers nearest
  // its root, QoS 1 with batching and loss.
  util::Rng rng(1506);
  const auto points = geometry::random_points(rng, 5000, 2, 100.0);
  const auto graph =
      overlay::build_equilibrium_local(points, overlay::EmptyRectSelector{}, 16);
  PubSubConfig config;
  config.seed = 251;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.loss.drop_probability = 0.02;
  expect_pinned("GridKnnLocalMembersQoS1Batched", graph, config, /*groups=*/8,
                /*members=*/24, /*publishes=*/8, /*departures=*/0,
                /*kill_root=*/false, /*nearest_members=*/true);
}

}  // namespace
}  // namespace geomcast::groups
