// Oracle-equivalence battery for the simulator-core fast path.
//
// PubSubConfig::sim_core gates three substitutions: the hierarchical
// timer-wheel event queue (vs the historic binary heap), interval-set
// (group, seq) dedup (vs per-seq std::set), and the dense window-slot
// storage. All three are engineered to be *bit-passive*: same pop order,
// same dedup verdicts, same stats. This battery pins that claim the
// strongest way the observability layer allows — for each workload cell it
// runs the identical seeded scenario with sim_core on and off and demands
//   (1) identical delivered sequences: every (peer, group, seq, time)
//       tuple, in probe-invocation order,
//   (2) byte-identical stats JSON (GroupStats + NetworkStats + HopStats —
//       obs::to_json is canonical, so one differing counter fails), and
//   (3) the same run() event count.
// Cells span QoS 0/1/2, stochastic loss, churn, batching, and a warm
// root-kill, so every subsystem the knob touches is exercised.
//
// Each cell is also pinned to golden values (golden/groups_simcore.hpp):
// an order-independent digest of the delivered tuples and a hash of the
// stats JSON. A change that moves delivery order or any counter on the
// fast path and the oracle alike still fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "golden/groups_simcore.hpp"
#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct CellResult {
  std::vector<testutil::DeliveryTuple> delivered;
  std::string stats_json;
  std::size_t events = 0;
};

/// Runs one seeded workload and captures everything the equivalence gate
/// compares. The workload is a pure function of (config, knobs below);
/// only config.sim_core varies between the two runs of a cell.
CellResult run_cell(const overlay::OverlayGraph& graph, PubSubConfig config,
                    std::size_t groups, std::size_t members, std::size_t publishes,
                    std::size_t departures, bool kill_root) {
  PubSubSystem system(graph, config);
  CellResult out;
  system.set_delivery_probe(
      [&out](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        out.delivered.emplace_back(peer, group, seq, time);
      });
  std::vector<std::vector<PeerId>> cell_members(groups);
  for (GroupId g = 0; g < groups; ++g)
    cell_members[g] = subscribe_members(system, graph, g, members, config.seed + g);
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
  out.events = system.run();

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

void expect_equivalent(std::string_view cell, const overlay::OverlayGraph& graph,
                       PubSubConfig config, std::size_t groups, std::size_t members,
                       std::size_t publishes, std::size_t departures = 0,
                       bool kill_root = false) {
  config.sim_core = true;
  const auto fast = run_cell(graph, config, groups, members, publishes, departures,
                             kill_root);
  config.sim_core = false;
  const auto oracle = run_cell(graph, config, groups, members, publishes, departures,
                               kill_root);
  EXPECT_EQ(fast.delivered, oracle.delivered);
  EXPECT_EQ(fast.stats_json, oracle.stats_json);
  EXPECT_EQ(fast.events, oracle.events);
  EXPECT_FALSE(fast.delivered.empty());
  const golden::SimCorePin* pin = find_pin(cell);
  ASSERT_NE(pin, nullptr) << "no golden pin for cell " << cell;
  EXPECT_EQ(testutil::delivered_digest(fast.delivered), pin->delivered_digest)
      << "cell " << cell;
  EXPECT_EQ(testutil::text_hash(fast.stats_json), pin->stats_hash) << "cell " << cell;
}

TEST(GroupsSimCoreTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501);
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  expect_equivalent("QoS0BatchedLossless", graph, config, /*groups=*/4, /*members=*/10,
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
  expect_equivalent("QoS1LossyBatchedWithChurn", graph, config, 4, 10, 6,
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
  expect_equivalent("QoS2LossyRepairPath", graph, config, 3, 12, 8);
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
  expect_equivalent("WarmRootKillFailover", graph, config, 3, 12, 6, /*departures=*/0,
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
    expect_equivalent("SeedSweepQoS1/" + std::to_string(seed), graph, config, 3, 8, 5);
  }
}

}  // namespace
}  // namespace geomcast::groups
