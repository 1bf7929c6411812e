// Replica-sharded roots battery (GroupConfig::root_replicas = R): the
// rendezvous-replica partition itself (anchors, owner slots, distinct slot
// roots), delivered-set identity of R in {1, 2, 4} against the R = 1
// single-root oracle across QoS rungs x loss x root batching x publisher
// batching, seq-lease uniqueness/density of the global (group, seq) space,
// the slot-root-death-mid-graft regression (promotion hands the shard over,
// zero leaked cursors, full post-churn delivery), warm failover of the
// slot-0 authority at R > 1, prefix-batched grafts staying tree-identical,
// and snapshot-JSON coverage of the new counters.
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "golden/groups_replica_shard.hpp"
#include "groups_test_util.hpp"
#include "obs/snapshot.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

using DeliveredSet = std::set<std::pair<PeerId, std::uint64_t>>;

struct CellResult {
  DeliveredSet delivered;
  bool probe_duplicates = false;  // same (peer, seq) reported twice
  std::vector<testutil::DeliveryTuple> tuples;  // every probe report, timed
  GroupStats stats;
};

struct CellConfig {
  std::size_t replicas = 1;
  multicast::QoS qos = multicast::QoS::kEndToEnd;
  bool loss = false;
  double batch_window = 0.0;            // root-side coalescing
  double publisher_batch_window = 0.0;  // source-side coalescing
};

/// Deterministic loss scoped to the RECOVERABLE planes (tree payloads and
/// the acked coordination/graft carriers — everything a QoS 1+ hop layer
/// retransmits). Blanket drop_probability would also eat best-effort
/// publish control envelopes, whose survival legitimately depends on the
/// route taken — i.e. on R — making delivered-set identity vacuous.
sim::LossModel lossy_data_plane() {
  sim::LossModel loss;
  auto counter = std::make_shared<std::uint64_t>(0);
  loss.drop_if = [counter](const sim::Envelope& e) {
    switch (e.kind) {
      case kDeliverKind:
      case kGraftRequestKind:
      case kGraftAcceptKind:
      case kGraftRejectKind:
      case kSeqLeaseKind:
      case kSeqGrantKind:
      case kShardWaveKind:
      case kGraftBatchKind:
        return ++*counter % 11 == 0;
      default:
        return false;
    }
  };
  return loss;
}

/// The shared workload: 16 subscribers, then 12 publishes from 4 distinct
/// origins spread over the graph (so at R > 1 several slots ingest).
CellResult run_cell(const overlay::OverlayGraph& graph, const CellConfig& cell) {
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 211;
  config.groups.root_replicas = cell.replicas;
  config.reliability.qos = cell.qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 12;  // generous: lossy cells still converge
  config.batch_window = cell.batch_window;
  config.publisher_batch_window = cell.publisher_batch_window;
  if (cell.loss) config.loss = lossy_data_plane();
  PubSubSystem system(graph, config);
  CellResult result;
  system.set_delivery_probe(
      [&result](PeerId p, GroupId group, std::uint64_t seq, double t) {
        if (!result.delivered.emplace(p, seq).second) result.probe_duplicates = true;
        result.tuples.emplace_back(p, group, seq, t);
      });
  const auto members = subscribe_members(system, graph, g, 16, 211);
  for (std::size_t i = 0; i < 12; ++i)
    system.publish_at(2.0 + 0.11 * static_cast<double>(i), members[i % 4], g);
  system.run();
  result.stats = system.stats(g);
  return result;
}

TEST(GroupsReplicaShardTest, AnchorsPartitionPeersAcrossDistinctSlotRoots) {
  const auto graph = make_overlay(200, 2, 1501);
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 199;
  config.groups.root_replicas = 4;
  PubSubSystem system(graph, config);
  subscribe_members(system, graph, g, 16, 199);
  system.run();

  auto& manager = system.manager();
  EXPECT_TRUE(manager.sharded());
  EXPECT_EQ(manager.root_replicas(), 4u);
  // Slot 0's anchor is the legacy rendezvous point, so its root is the
  // legacy root — the R = 1 oracle's root survives sharding unchanged.
  EXPECT_EQ(manager.slot_root(g, 0), manager.root_of(g));
  std::set<PeerId> roots;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const PeerId root = roots.emplace(manager.slot_root(g, s)).first.operator*();
    EXPECT_NE(root, kInvalidPeer);
  }
  EXPECT_EQ(roots.size(), 4u) << "slot roots must be distinct peers";
  // The owner partition is total and consistent: every peer maps to one
  // slot, and that slot's root is its owner root.
  std::size_t member_total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) member_total += manager.slot_member_count(g, s);
  EXPECT_EQ(member_total, 16u);
  for (PeerId p = 0; p < graph.size(); ++p) {
    const std::uint32_t slot = manager.owner_slot(g, p);
    EXPECT_LT(slot, 4u);
    EXPECT_EQ(manager.owner_root(g, p), manager.slot_root(g, slot));
  }
}

TEST(GroupsReplicaShardTest, PubSubPassesGroupConfigRootReplicasThrough) {
  // The replica count has one home, PubSubConfig::groups.root_replicas: the
  // façade hands it to the manager unchanged (a second façade-level knob
  // once overwrote it back to 1), and the sharded pipeline delivers.
  const auto graph = make_overlay(200, 2, 1508);
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 207;
  config.groups.root_replicas = 4;
  PubSubSystem system(graph, config);
  ASSERT_EQ(system.manager().root_replicas(), 4u);
  ASSERT_TRUE(system.manager().sharded());
  DeliveredSet delivered;
  system.set_delivery_probe([&delivered](PeerId p, GroupId, std::uint64_t seq, double) {
    delivered.emplace(p, seq);
  });
  const auto members = subscribe_members(system, graph, g, 16, 207);
  system.publish_at(2.0, members[0], g);
  system.run();
  DeliveredSet expected;
  for (const PeerId p : members) expected.emplace(p, 0);
  EXPECT_EQ(delivered, expected);
  EXPECT_GT(system.stats(g).shard_waves, 0u);
}

TEST(GroupsReplicaShardTest, MoreThanSixtyFourReplicasKeepDistinctRoots) {
  // Every slot-root election excludes every other slot's root, and the
  // warm-failover replica excludes all of them, however many slots there
  // are (a fixed 64-entry exclusion list once let slots past 64 share a
  // peer with an earlier slot or with the replica).
  const auto graph = make_overlay(160, 2, 1509);
  constexpr std::uint32_t kReplicas = 80;
  GroupConfig config;
  config.root_replicas = kReplicas;
  GroupManager manager(graph, config);
  const auto expect_distinct = [&](GroupId g) {
    std::set<PeerId> roots;
    for (std::uint32_t s = 0; s < kReplicas; ++s) {
      const PeerId root = manager.slot_root(g, s);
      EXPECT_TRUE(manager.alive(root)) << "group " << g << " slot " << s;
      roots.insert(root);
    }
    EXPECT_EQ(roots.size(), kReplicas) << "group " << g;
    EXPECT_EQ(roots.count(manager.replica_candidate(g)), 0u) << "group " << g;
  };
  for (GroupId g = 0; g < 4; ++g) expect_distinct(g);
  // Slot-root deaths past slot 64 re-elect against the full list too.
  for (std::uint32_t s = 66; s < 74; ++s) (void)manager.handle_departure(manager.slot_root(0, s));
  expect_distinct(0);
}

TEST(GroupsReplicaShardTest, DeliveredSetsMatchTheSingleRootOracleAcrossCells) {
  const auto graph = make_overlay(200, 2, 1502);
  const CellConfig cells[] = {
      // QoS rungs, lossless, no batching.
      {1, multicast::QoS::kFireAndForget, false, 0.0, 0.0},
      {1, multicast::QoS::kAcked, false, 0.0, 0.0},
      {1, multicast::QoS::kEndToEnd, false, 0.0, 0.0},
      // Data-plane loss (acked rungs only: retransmission makes delivery a
      // guarantee, so the sets stay comparable across topologies).
      {1, multicast::QoS::kAcked, true, 0.0, 0.0},
      {1, multicast::QoS::kEndToEnd, true, 0.0, 0.0},
      // Root-side coalescing, publisher-side coalescing, and both.
      {1, multicast::QoS::kEndToEnd, false, 0.05, 0.0},
      {1, multicast::QoS::kEndToEnd, false, 0.0, 0.05},
      {1, multicast::QoS::kEndToEnd, true, 0.05, 0.05},
  };
  static_assert(std::size(cells) == std::size(golden::kReplicaShardOraclePins));
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    const CellConfig& base = cells[i];
    CellConfig oracle_cell = base;
    oracle_cell.replicas = 1;
    const CellResult oracle = run_cell(graph, oracle_cell);
    ASSERT_FALSE(oracle.delivered.empty());
    // The R = 1 oracle itself is pinned, so it keeps its meaning when the
    // single-root pipeline changes underneath it.
    EXPECT_EQ(testutil::delivered_digest(oracle.tuples),
              golden::kReplicaShardOraclePins[i])
        << "R=1 oracle cell " << i;
    // The oracle delivers everything: 16 subscribers x 12 publishes.
    EXPECT_EQ(oracle.delivered.size(), 16u * 12u);
    EXPECT_FALSE(oracle.probe_duplicates);
    for (const std::size_t r : {std::size_t{2}, std::size_t{4}}) {
      CellConfig sharded_cell = base;
      sharded_cell.replicas = r;
      const CellResult sharded = run_cell(graph, sharded_cell);
      EXPECT_EQ(sharded.delivered, oracle.delivered)
          << "R=" << r << " qos=" << static_cast<int>(base.qos)
          << " loss=" << base.loss << " batch=" << base.batch_window
          << " pub_batch=" << base.publisher_batch_window;
      EXPECT_FALSE(sharded.probe_duplicates);
      EXPECT_EQ(sharded.stats.publishes, oracle.stats.publishes);
      // The shard pipeline really ran: every committed range fanned out to
      // the R - 1 other slots.
      EXPECT_GT(sharded.stats.shard_waves, 0u);
      EXPECT_GT(sharded.stats.shard_handoffs, 0u);
    }
  }
}

TEST(GroupsReplicaShardTest, SeqLeaseKeepsTheSeqSpaceDenseAndUnique) {
  const auto graph = make_overlay(200, 2, 1503);
  CellConfig cell;
  cell.replicas = 4;
  cell.qos = multicast::QoS::kEndToEnd;
  const CellResult result = run_cell(graph, cell);

  // Globally unique: no subscriber saw any (group, seq) twice.
  EXPECT_FALSE(result.probe_duplicates);
  // Dense: per subscriber the delivered seqs are exactly {0..11} — no hole,
  // no overlap, regardless of which slot root committed each publish.
  std::set<PeerId> subscribers;
  for (const auto& [peer, seq] : result.delivered) {
    subscribers.insert(peer);
    EXPECT_LT(seq, 12u);
  }
  EXPECT_EQ(subscribers.size(), 16u);
  EXPECT_EQ(result.delivered.size(), 16u * 12u);
  // Non-authority slots leased their ranges; lossless means every lease
  // was granted and no granted range died with its requester.
  EXPECT_GT(result.stats.seq_lease_requests, 0u);
  EXPECT_EQ(result.stats.seq_leases_granted, result.stats.seq_lease_requests);
  EXPECT_EQ(result.stats.seq_grants_lost, 0u);
}

/// Satellite regression: a NON-authority slot root dies while routed
/// descents are in flight through its shard. The departure must hand the
/// shard (subscriber partition + graft cursors) to the next-nearest peer
/// via promotion — aborted cursors re-enter through resubscribe, none leak
/// — and post-churn publishes must deliver in full.
TEST(GroupsReplicaShardTest, SlotRootDeathMidGraftLeaksNoCursorsAndRecovers) {
  const auto graph = make_overlay(200, 2, 1504);
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 223;
  config.groups.root_replicas = 4;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 8;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 16, 223);
  // Build all four shard trees so later subscribes graft instead of
  // booking membership into an uncached tree.
  for (std::size_t i = 0; i < 4; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[i], g);
  // A late-join batch at t=10: their routed descents are mid-flight when
  // the victim dies at t=10.03.
  std::vector<bool> taken(graph.size(), false);
  for (const PeerId m : members) taken[m] = true;
  std::vector<PeerId> late;
  for (PeerId p = 0; late.size() < 12 && p < graph.size(); ++p) {
    if (taken[p] || p == system.manager().root_of(g)) continue;
    late.push_back(p);
    system.subscribe_at(10.0, p, g);
  }
  auto inflight_at_kill = std::make_shared<std::size_t>(0);
  auto victim = std::make_shared<PeerId>(kInvalidPeer);
  system.simulator().schedule_at(10.03, [&system, g, inflight_at_kill, victim]() {
    *inflight_at_kill = system.manager().inflight_graft_count();
    // Kill a NON-authority slot root (the satellite's subject: shard
    // handoff without the warm-replica machinery).
    *victim = system.manager().slot_root(g, 2);
    system.depart_now(*victim);
  });
  // Post-churn publishes from survivors: every alive subscriber —
  // including the late joiners regrafted onto the promoted root — is owed
  // these waves.
  for (std::size_t i = 0; i < 4; ++i)
    system.publish_at(15.0 + 0.1 * static_cast<double>(i), members[8 + i], g);
  system.run();

  ASSERT_GT(*inflight_at_kill, 0u) << "seed had no descent in flight; vacuous";
  ASSERT_NE(*victim, kInvalidPeer);
  // The shard was handed over, not dropped: slot 2 has a live root again
  // and its members still map to it.
  const PeerId promoted = system.manager().slot_root(g, 2);
  EXPECT_NE(promoted, *victim);
  EXPECT_TRUE(system.manager().alive(promoted));
  const auto& stats = system.stats(g);
  EXPECT_GT(stats.root_migrations, 0u);
  // Zero leaked cursors: every descent either finished or aborted-and-
  // resubscribed; nothing is still registered after the run drains.
  EXPECT_EQ(system.manager().inflight_graft_count(), 0u);
  // Full post-churn delivery: expected_deliveries is booked per wave from
  // the live snapshots, so equality means nobody was silently dropped.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
  EXPECT_EQ(stats.seq_grants_lost, 0u);
}

TEST(GroupsReplicaShardTest, WarmFailoverPromotesTheShardedAuthority) {
  const auto graph = make_overlay(200, 2, 1505);
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 227;
  config.groups.root_replicas = 2;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.batch_window = 0.1;
  config.warm_failover = true;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 16, 227);
  system.publish_at(2.0, members[0], g);  // build trees, start the sync stream
  // Publishes owned by slot 0 buffer at the authority; it dies inside the
  // window and the warm promotion must adopt them.
  std::vector<PeerId> slot0_publishers;
  system.simulator().schedule_at(4.0, [&system, &slot0_publishers, g]() {
    for (PeerId p = 0; p < 4096 && slot0_publishers.size() < 3; ++p)
      if (system.manager().alive(p) && system.manager().owner_slot(g, p) == 0)
        slot0_publishers.push_back(p);
  });
  system.simulator().schedule_at(5.0, [&system, &slot0_publishers, g]() {
    for (const PeerId p : slot0_publishers) system.publish_at(5.0, p, g);
  });
  system.simulator().schedule_at(5.05, [&system, g]() {
    system.depart_now(system.manager().slot_root(g, 0));
  });
  system.run();

  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.warm_promotions, 1u);
  EXPECT_EQ(stats.pending_publishes_inherited, 3u);
  EXPECT_EQ(stats.batch_publishes_lost, 0u);
  // The inherited batch flushed from the successor and every wave
  // delivered in full across both shards.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
  EXPECT_GT(stats.deliveries, 0u);
}

TEST(GroupsReplicaShardTest, PrefixBatchedGraftsBuildIdenticalTrees) {
  const auto graph = make_overlay(200, 2, 1506);
  const GroupId g = 0;
  const auto run_cell = [&graph, g](std::size_t replicas, bool prefix_batch) {
    PubSubConfig config;
    config.seed = 229;
    config.groups.root_replicas = replicas;
    config.reliability.qos = multicast::QoS::kEndToEnd;
    config.graft_prefix_batch = prefix_batch;
    PubSubSystem system(graph, config);
    const auto members = subscribe_members(system, graph, g, 8, 229);
    system.publish_at(2.0, members[0], g);  // cache the trees: later joins graft
    // A same-instant join burst: descents share hop prefixes toward each
    // slot root, which is what the batch carrier coalesces.
    std::vector<bool> taken(graph.size(), false);
    for (const PeerId m : members) taken[m] = true;
    std::size_t joined = 0;
    for (PeerId p = 0; joined < 24 && p < graph.size(); ++p) {
      if (taken[p] || p == system.manager().root_of(g)) continue;
      ++joined;
      system.subscribe_at(10.0, p, g);
    }
    DeliveredSet delivered;
    system.set_delivery_probe(
        [&delivered](PeerId peer, GroupId, std::uint64_t seq, double) {
          delivered.emplace(peer, seq);
        });
    for (std::size_t i = 0; i < 3; ++i)
      system.publish_at(15.0 + 0.1 * static_cast<double>(i), members[i], g);
    system.run();
    return std::make_pair(delivered, system.stats(g));
  };
  for (const std::size_t r : {std::size_t{1}, std::size_t{4}}) {
    const auto [plain_del, plain] = run_cell(r, false);
    const auto [batched_del, batched] = run_cell(r, true);
    // The carrier is pure transport: the delivered sets (hence the spliced
    // trees) are identical; only envelope accounting moves.
    EXPECT_EQ(batched_del, plain_del) << "R=" << r;
    EXPECT_EQ(batched.grafts, plain.grafts) << "R=" << r;
    EXPECT_EQ(batched.graft_aborts, plain.graft_aborts) << "R=" << r;
    EXPECT_GT(batched.graft_prefix_batches, 0u) << "R=" << r;
    EXPECT_GT(batched.graft_prefix_merged, 0u) << "R=" << r;
    EXPECT_EQ(plain.graft_prefix_batches, 0u);
  }
}

TEST(GroupsReplicaShardTest, PublisherBatchingCoalescesAtTheSource) {
  const auto graph = make_overlay(200, 2, 1507);
  const GroupId g = 0;
  const auto run_cell = [&graph, g](double window) {
    PubSubConfig config;
    config.seed = 233;
    config.groups.root_replicas = 2;
    config.reliability.qos = multicast::QoS::kEndToEnd;
    config.publisher_batch_window = window;
    PubSubSystem system(graph, config);
    const auto members = subscribe_members(system, graph, g, 12, 233);
    DeliveredSet delivered;
    system.set_delivery_probe(
        [&delivered](PeerId peer, GroupId, std::uint64_t seq, double) {
          delivered.emplace(peer, seq);
        });
    // One hot publisher bursting 6 app messages inside the window.
    for (std::size_t i = 0; i < 6; ++i)
      system.publish_at(2.0 + 0.002 * static_cast<double>(i), members[0], g);
    system.run();
    return std::make_pair(delivered, system.stats(g));
  };
  const auto [off_del, off] = run_cell(0.0);
  const auto [on_del, on] = run_cell(0.05);
  // Same app messages delivered either way; the on-cell sent one envelope
  // where the off-cell sent six.
  EXPECT_EQ(on_del, off_del);
  EXPECT_EQ(on.publishes, off.publishes);
  EXPECT_EQ(off.publisher_batches, 0u);
  EXPECT_EQ(on.publisher_batches, 1u);
  EXPECT_EQ(on.publisher_batched_publishes, 6u);
  EXPECT_EQ(on.publisher_envelopes_saved, 5u);
}

TEST(GroupsReplicaShardTest, SnapshotJsonCarriesTheShardCounters) {
  const auto graph = make_overlay(200, 2, 1502);
  CellConfig cell;
  cell.replicas = 4;
  cell.publisher_batch_window = 0.02;
  (void)run_cell(graph, cell);  // exercise; the JSON shape is what's pinned

  PubSubConfig config;
  config.seed = 211;
  config.groups.root_replicas = 4;
  PubSubSystem system(graph, config);
  subscribe_members(system, graph, 0, 8, 211);
  system.publish_at(2.0, system.manager().root_of(0), 0);
  system.run();
  const std::string json = obs::to_json(system.total_stats());
  for (const char* name :
       {"\"seq_lease_requests\":", "\"seq_leases_granted\":",
        "\"seq_grants_lost\":", "\"shard_handoffs\":", "\"shard_waves\":",
        "\"publisher_batches\":", "\"publisher_batched_publishes\":",
        "\"publisher_envelopes_saved\":", "\"graft_prefix_batches\":",
        "\"graft_prefix_merged\":"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  // The coordination kinds are registry-named in the per-kind send map.
  EXPECT_NE(std::string(kind_name(kSeqLeaseKind)).find("seq_lease"),
            std::string::npos);
  EXPECT_NE(std::string(kind_name(kShardWaveKind)).find("shard_wave"),
            std::string::npos);
}

}  // namespace
}  // namespace geomcast::groups
