// Pub/sub scaling bench: N groups x M subscribers on one geometric overlay,
// priced against full dissemination (N-1 messages per publish) across QoS
// rungs, loss, coalescing, routed grafts, root failover and sharded roots.
// Every mode runs its cells through one runner (run_cell), writes each cell
// with one JSON schema (the metric catalogue), prints the columns it names
// and gates its cells in one Verdict (exit 2 on a failed gate, 1 on a bad
// or unread flag). README.md's bench table lists each mode's flags,
// workload, gates, checked-in BENCH_*.json and regeneration command.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "geometry/random_points.hpp"
#include "groups/failure_injection.hpp"
#include "groups/pubsub.hpp"
#include "obs/digest.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace geomcast;
using multicast::QoS;
using overlay::PeerId;

constexpr QoS kRungs[] = {QoS::kFireAndForget, QoS::kAcked, QoS::kEndToEnd};

struct ScenarioParams {
  std::size_t peers = 1000;
  std::size_t dims = 3;
  std::size_t group_count = 32;
  std::size_t subscribers = 32;
  std::size_t publishes = 8;
  std::size_t departures = 24;
  std::size_t midwave = 0;    // mid-wave forwarder kill rounds
  std::size_t pub_burst = 1;  // publishes per burst in the schedule
  std::uint64_t seed = 42;
  groups::PubSubConfig config;  // the protocol knobs; run_cell sets seed, qos and loss
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Overlay {
  overlay::OverlayGraph graph;
  double build_secs;  // timed around build_equilibrium only
};

/// The overlay every mode runs on: params.peers uniform points in
/// [0, 100)^dims drawn from `seed`, empty-rect equilibrium.
Overlay overlay_for(const ScenarioParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, params.peers, params.dims, 100.0);
  const auto start = std::chrono::steady_clock::now();
  auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  return {std::move(graph), seconds_since(start)};
}

// ---------------------------------------------------------------- cells ----

/// What one cell runs: the workload (params.seed is the cell's seed) and
/// the axes the modes sweep.
struct CellSpec {
  std::string name = "";  // row label where the axes alone do not name the cell
  ScenarioParams params;
  QoS qos = QoS::kFireAndForget;
  double loss = 0.0;
  bool warm_failover = false;
  bool root_kill = false;       // --root-kill: kill each group's root mid-wave
  std::size_t graft_kills = 0;  // --graft-cost: departures inside the graft window
  obs::TraceSink* trace = nullptr;
  bool snapshot = false;  // attach an obs::Sampler
  double snapshot_interval = 0.5;
};

struct Delivery {
  PeerId peer;
  groups::GroupId group;
  std::uint64_t seq;
  double time;
  [[nodiscard]] auto key() const { return std::tie(peer, group, seq); }
};

struct CellResult {
  CellSpec spec;
  double overlay_secs = 0.0;
  groups::GroupStats total;
  sim::NetworkStats net;
  std::size_t events = 0;
  double run_secs = 0.0;
  /// The probe's reports in arrival order, until seal_deliveries digests them.
  std::vector<Delivery> delivered;
  std::string digest;
  std::size_t delivered_keys = 0;
  bool duplicate_keys = false;
  bool identical = true;  // same delivered set as the mode's reference cell
  std::size_t retained_peak = 0, retained_entries = 0, retained_buffers = 0, inflight_grafts = 0;
  std::string snapshot_json;
  std::size_t departures = 0;  // random departures scheduled
  std::size_t kills = 0;       // kills scheduled or (mid-wave, root) landed on a relay
  std::size_t severed = 0;     // subscriber descendants those kills cut off
  double first_post_kill = -1.0;
  bool fresh_build_ok = false, attached_ok = true;  // --graft-cost tree checks
  std::vector<PeerId> slot_roots;  // of group 0, --hot-group only
};

using C = const CellResult&;

/// Runs after the timed run() and the stats grab, on the finished system.
using Finish = std::function<void(groups::PubSubSystem&, CellResult&)>;
/// Schedules a cell's workload on a fresh system; the returned Finish (may be
/// empty) owns any state the schedule's callbacks read during run().
using Schedule =
    std::function<Finish(const overlay::OverlayGraph&, groups::PubSubSystem&, CellResult&)>;

/// Reduces the probe's reports to the digest of the distinct (peer, group,
/// seq) keys, flagging any key reported twice.
void seal_deliveries(CellResult& cell) {
  auto& delivered = cell.delivered;
  std::sort(delivered.begin(), delivered.end(),
            [](const Delivery& a, const Delivery& b) { return a.key() < b.key(); });
  const auto end =
      std::unique(delivered.begin(), delivered.end(),
                  [](const Delivery& a, const Delivery& b) { return a.key() == b.key(); });
  cell.duplicate_keys = end != delivered.end();
  cell.delivered_keys = static_cast<std::size_t>(end - delivered.begin());
  obs::DeliveryDigest digest;
  for (auto d = delivered.begin(); d != end; ++d)
    digest.add(obs::delivery_hash(d->peer, d->group, d->seq));
  cell.digest = digest.hex();
  std::vector<Delivery>().swap(delivered);
}

CellResult run_cell(const Overlay& overlay, const CellSpec& spec, const Schedule& schedule) {
  groups::PubSubConfig config = spec.params.config;
  config.seed = spec.params.seed;
  config.loss.drop_probability = spec.loss;
  config.reliability.qos = spec.qos;
  config.warm_failover = spec.warm_failover;
  groups::PubSubSystem system(overlay.graph, config);
  CellResult cell;
  cell.spec = spec;
  cell.overlay_secs = overlay.build_secs;
  if (spec.trace != nullptr) system.set_trace_sink(spec.trace);
  // Sampler ticks are simulator events, so attach only on request.
  std::optional<obs::Sampler> sampler;
  if (spec.snapshot) {
    sampler.emplace(system, spec.snapshot_interval);
    sampler->start();
  }
  system.set_delivery_probe(
      [&cell](PeerId peer, groups::GroupId group, std::uint64_t seq, double time) {
        cell.delivered.push_back({peer, group, seq, time});
      });
  const Finish finish = schedule(overlay.graph, system, cell);

  const auto start = std::chrono::steady_clock::now();
  cell.events = system.run();
  cell.run_secs = seconds_since(start);
  cell.total = system.total_stats();
  cell.net = system.simulator().stats();
  cell.retained_peak = system.manager().retained_peak();
  cell.retained_entries = system.manager().retained_entry_total();
  cell.retained_buffers = system.manager().retained_buffer_count();
  cell.inflight_grafts = system.manager().inflight_graft_count();
  if (finish) finish(system, cell);
  if (sampler) cell.snapshot_json = sampler->to_json();
  system.release_pools();  // no cell's pool high-water mark stays resident
  seal_deliveries(cell);
  return cell;
}

/// Both cells delivered the identical (peer, group, seq) set, each key once.
bool same_delivered(C a, C b) {
  const auto clean = [](C c) {
    return !c.duplicate_keys && c.total.deliveries == c.delivered_keys;
  };
  return a.digest == b.digest && clean(a) && clean(b);
}

// ------------------------------------------------------------ schedules ----

/// Draws `count` distinct peers outside `excluded` by rejection sampling,
/// handing each to on_pick(peer, index) as drawn (so the caller's own rng
/// draws interleave in a fixed order). Throws when too few are eligible.
template <class OnPick>
std::vector<PeerId> draw_peers(util::Rng& rng, const std::vector<bool>& excluded,
                               std::size_t count, const char* flag, OnPick on_pick) {
  const std::size_t eligible = std::count(excluded.begin(), excluded.end(), false);
  if (count > eligible)
    throw std::invalid_argument("not enough eligible peers for " + std::string(flag) + "=" +
                                std::to_string(count) + " (have " + std::to_string(eligible) +
                                "); raise --peers or lower --groups");
  std::vector<bool> taken = excluded;
  std::vector<PeerId> picked;
  while (picked.size() < count) {
    const auto p = static_cast<PeerId>(rng.next_below(excluded.size()));
    if (taken[p]) continue;
    taken[p] = true;
    on_pick(p, picked.size());
    picked.push_back(p);
  }
  return picked;
}

/// Group roots, kept out of membership and churn: the bench measures group
/// service, not rendezvous migration.
std::vector<bool> root_mask(const overlay::OverlayGraph& graph, groups::PubSubSystem& system,
                            std::size_t group_count) {
  std::vector<bool> is_root(graph.size(), false);
  for (std::size_t g = 0; g < group_count; ++g) is_root[system.manager().root_of(g)] = true;
  return is_root;
}

/// Subscribes params.subscribers distinct peers outside `excluded` to each
/// group, each joining at a uniform time in (0, 1); returns the members.
std::vector<std::vector<PeerId>> join_groups(groups::PubSubSystem& system, util::Rng& rng,
                                             const std::vector<bool>& excluded,
                                             const ScenarioParams& params) {
  std::vector<std::vector<PeerId>> members;
  for (std::size_t g = 0; g < params.group_count; ++g)
    members.push_back(draw_peers(rng, excluded, params.subscribers, "--subscribers",
                                 [&](PeerId p, std::size_t) {
                                   system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
                                 }));
  return members;
}

/// Publishes 1..params.publishes-1 of group g over [3, 9) in bursts of
/// --pub-burst from one publisher at one instant (what coalescing amortises).
void publish_bursts(groups::PubSubSystem& system, util::Rng& rng, groups::GroupId g,
                    const std::vector<PeerId>& publishers, const ScenarioParams& params) {
  const std::size_t burst = std::max<std::size_t>(params.pub_burst, 1);
  for (std::size_t i = 1; i < params.publishes;) {
    const auto publisher = publishers[rng.next_below(publishers.size())];
    const double when = rng.uniform(3.0, 9.0);
    const std::size_t count = std::min(burst, params.publishes - i);
    for (std::size_t j = 0; j < count; ++j) system.publish_at(when, publisher, g);
    i += count;
  }
}

/// The standard workload (default, --sweep, --batch-compare, --latency):
/// members join in (0, 1), a warm publish per group at t=2 pays the lazy
/// build, bursts and random departures follow over [3, 9), then --midwave
/// root-published waves each lose their best relay just before arriving.
Finish schedule_standard(const overlay::OverlayGraph& graph, groups::PubSubSystem& system,
                         CellResult& cell) {
  const ScenarioParams& params = cell.spec.params;
  const std::vector<bool> is_root = root_mask(graph, system, params.group_count);
  util::Rng rng(params.seed ^ 0x736368656475ULL);  // schedule stream
  const auto members = join_groups(system, rng, is_root, params);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    system.publish_at(2.0, members[g][0], g);
    publish_bursts(system, rng, g, members[g], params);
  }
  cell.departures = std::min<std::size_t>(
      params.departures, std::count(is_root.begin(), is_root.end(), false));
  draw_peers(rng, is_root, cell.departures, "--departures",
             [&](PeerId p, std::size_t) { system.depart_at(rng.uniform(3.0, 9.0), p); });

  auto member_anywhere = std::make_shared<std::vector<bool>>(graph.size(), false);
  for (const auto& group_members : members)
    for (const PeerId p : group_members) (*member_anywhere)[p] = true;
  // A batched root-published wave starts one window late; time the kill to it.
  const auto& batching = params.config;
  const double wave_start_delay =
      (batching.batch_window > 0.0 && batching.max_batch > 1) ? batching.batch_window : 0.0;
  for (std::size_t i = 0; i < params.midwave; ++i) {
    const auto g = static_cast<groups::GroupId>(i % params.group_count);
    const double wave_time = 10.0 + 2.0 * static_cast<double>(i);
    const PeerId root = system.manager().root_of(g);
    system.publish_at(wave_time, root, g);
    groups::schedule_midwave_kill(
        system, g, wave_time, *member_anywhere,
        [&cell](PeerId, std::size_t severed) {
          ++cell.kills;
          cell.severed += severed;
        },
        wave_start_delay);
    system.publish_at(wave_time + 0.5, root, g);
    system.publish_at(wave_time + 1.0, root, g);
  }
  return [member_anywhere](groups::PubSubSystem&, CellResult&) {};
}

/// The graft-heavy workload (--graft-cost): the late half of each group's
/// members joins after the warm publish, each one a routed descent against
/// the cached tree, with spec.graft_kills departures inside that window.
/// The finish checks the trees against a fresh build and the attachment.
Finish schedule_grafts(const overlay::OverlayGraph& graph, groups::PubSubSystem& system,
                       CellResult& cell) {
  const ScenarioParams& params = cell.spec.params;
  const std::vector<bool> is_root = root_mask(graph, system, params.group_count);
  util::Rng rng(params.seed ^ 0x67726166747363ULL);  // graft-schedule stream
  for (std::size_t g = 0; g < params.group_count; ++g) {
    const auto members = draw_peers(
        rng, is_root, params.subscribers, "--subscribers", [&](PeerId p, std::size_t i) {
          system.subscribe_at(i < params.subscribers / 2 ? rng.uniform(0.0, 1.0)
                                                         : rng.uniform(3.0, 5.0),
                              p, g);
        });
    system.publish_at(2.0, members[0], g);
    for (std::size_t i = 1; i < params.publishes; ++i)
      system.publish_at(rng.uniform(6.0, 9.0), members[rng.next_below(params.subscribers / 2)],
                        g);
  }
  draw_peers(rng, is_root, cell.spec.graft_kills, "--departures",
             [&](PeerId p, std::size_t) { system.depart_at(rng.uniform(3.2, 4.8), p); });
  cell.kills = cell.spec.graft_kills;

  return [&graph](groups::PubSubSystem& system, CellResult& cell) {
    auto& manager = system.manager();
    const std::size_t groups = cell.spec.params.group_count;
    if (cell.spec.loss == 0.0 && cell.spec.graft_kills == 0) {
      const auto shape = [](const groups::GroupTree& gt) {
        std::vector<std::pair<PeerId, PeerId>> edges;
        for (const PeerId p : gt.tree.nodes())
          if (p != gt.tree.root()) edges.emplace_back(gt.tree.parent(p), p);
        std::sort(edges.begin(), edges.end());
        return std::make_pair(edges, gt.subscribers.sorted());
      };
      cell.fresh_build_ok = true;
      for (std::size_t g = 0; g < groups; ++g) {
        const groups::GroupTree* gt = manager.cached_tree(g);
        const auto fresh =
            groups::build_group_tree(graph, manager.root_of(g), manager.subscribers_of(g));
        cell.fresh_build_ok = cell.fresh_build_ok && gt != nullptr && shape(*gt) == shape(fresh);
      }
    }
    // tree() performs the rebuild an abort deferred, after the stats grab.
    for (std::size_t g = 0; g < groups; ++g) {
      const groups::GroupTree* gt = manager.tree(g);
      if (gt == nullptr) continue;
      for (PeerId p = 0; p < graph.size(); ++p)
        if (manager.alive(p) && manager.is_subscribed(g, p) &&
            !(gt->is_subscriber(p) && gt->tree.reached(p)))
          cell.attached_ok = false;
    }
  };
}

/// The root-failover workload (--root-kill): per group two warm-up waves,
/// a killed wave whose best relay dies mid-flight and whose root dies
/// holding a pending batch, then post-kill publishes that reveal the gap.
/// The finish measures the mean time from a root's death to its group's
/// first delivery of a seq newer than the killed wave.
Finish schedule_root_kill(const overlay::OverlayGraph& graph, groups::PubSubSystem& system,
                          CellResult& cell) {
  const ScenarioParams& params = cell.spec.params;
  auto spared = std::make_shared<std::vector<bool>>(graph.size(), false);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    (*spared)[system.manager().root_of(g)] = true;
    const PeerId r = system.manager().replica_candidate(g);
    if (r != overlay::kInvalidPeer) (*spared)[r] = true;
  }
  // Replica candidates never subscribe (a promotion must not make a member
  // its group's root); members join the spared set after every draw.
  util::Rng rng(params.seed ^ 0x6661696c6f766572ULL);  // failover stream
  const auto members = join_groups(system, rng, *spared, params);
  for (const auto& group_members : members)
    for (const PeerId p : group_members) (*spared)[p] = true;

  // The wave leaves the root one batch window after its publish; the root
  // dies late enough for the pending publish's replica sync to land first.
  const double wave_start_delay = params.config.batch_window;
  const double kRootKillDelay = 0.04;
  auto death_at = std::make_shared<std::vector<double>>(params.group_count, -1.0);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    const PeerId root = system.manager().root_of(g);
    const double kill_time = 10.0 + 2.0 * static_cast<double>(g);
    system.publish_at(2.0, root, g);
    system.publish_at(2.3, root, g);
    system.publish_at(kill_time, root, g);  // the killed wave
    system.publish_at(kill_time + wave_start_delay + 0.01, root, g);  // dies pending
    if (cell.spec.root_kill) {
      groups::schedule_root_kill(
          system, g, kill_time, *spared,
          [&cell, death_at, g, kill_time, wave_start_delay, kRootKillDelay](
              PeerId, PeerId, std::size_t severed) {
            ++cell.kills;
            cell.severed += severed;
            (*death_at)[g] = kill_time + wave_start_delay + kRootKillDelay;
          },
          wave_start_delay, kRootKillDelay);
    }
    system.publish_at(kill_time + 1.0, members[g][0], g);
    system.publish_at(kill_time + 1.3, members[g][0], g);
  }

  return [spared, death_at](groups::PubSubSystem&, CellResult& cell) {
    // The killed wave is seq 2 (two single-publish warm-up batches precede
    // it), so a delivery of seq > 2 after the death is resumed service.
    constexpr std::uint64_t kKilledSeq = 2;
    const std::vector<double>& death = *death_at;
    std::vector<double> first_after(death.size(), -1.0);  // >= 0 only where death >= 0
    for (const Delivery& d : cell.delivered)  // arrival order
      if (d.group < death.size() && death[d.group] >= 0.0 && d.seq > kKilledSeq &&
          d.time > death[d.group] && first_after[d.group] < 0.0)
        first_after[d.group] = d.time - death[d.group];
    std::vector<double> resumed;
    for (const double t : first_after)
      if (t >= 0.0) resumed.push_back(t);
    if (!resumed.empty())
      cell.first_post_kill = std::accumulate(resumed.begin(), resumed.end(), 0.0) /
                             static_cast<double>(resumed.size());
  };
}

/// The hot-group workload (--hot-group): one group, every peer outside
/// `excluded` subscribed (every 8th late, after the publish phase, so
/// grafts carry real descents), bursts from 16 strided publishers, then
/// three waves reaching the late joiners.
Schedule schedule_hot_group(const std::vector<bool>& excluded) {
  return [&excluded](const overlay::OverlayGraph& graph, groups::PubSubSystem& system,
                     CellResult& cell) -> Finish {
    const groups::GroupId g = 0;
    util::Rng rng(cell.spec.params.seed ^ 0x686f7467727075ULL);  // hot-group stream
    std::vector<PeerId> early;
    std::size_t eligible = 0;
    for (PeerId p = 0; p < graph.size(); ++p) {
      if (excluded[p]) continue;
      if (eligible++ % 8 == 7) {
        system.subscribe_at(10.0 + rng.uniform(0.0, 0.5), p, g);
      } else {
        early.push_back(p);
        system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
      }
    }
    std::vector<PeerId> publishers;
    const std::size_t want = std::min<std::size_t>(16, early.size());
    for (std::size_t i = 0; i < want; ++i) publishers.push_back(early[i * early.size() / want]);
    system.publish_at(2.0, publishers[0], g);  // warm: pays the lazy build
    publish_bursts(system, rng, g, publishers, cell.spec.params);
    for (std::size_t i = 0; i < 3; ++i)  // post-graft waves
      system.publish_at(12.0 + static_cast<double>(i), publishers[i % publishers.size()], g);
    return nullptr;
  };
}

// ------------------------------------------------------------ reporting ----

struct Json { std::string text; };  // a raw JSON fragment
/// A cell value: a number, a flag, plain text, or raw JSON (JSON only).
using Value = std::variant<double, bool, std::string, Json>;
using S = groups::GroupStats;

struct Metric {
  std::string name;
  int decimals;  // table precision
  std::function<Value(C)> get;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

obs::LoadSummary load_of(C c, bool send) {
  return obs::summarize_load(send ? c.net.sent_by_node : c.net.received_by_node);
}

/// Per-peer (sent + received) envelopes.
std::vector<std::uint64_t> node_load(C c) {
  std::vector<std::uint64_t> load = c.net.sent_by_node;
  load.resize(std::max(load.size(), c.net.received_by_node.size()), 0);
  for (std::size_t p = 0; p < c.net.received_by_node.size(); ++p)
    load[p] += c.net.received_by_node[p];
  return load;
}

/// The busiest slot root's (sent + received) load, what sharding flattens.
std::uint64_t hot_root_load(C c) {
  const auto load = node_load(c);
  std::uint64_t hot = 0;
  for (const PeerId root : c.slot_roots) hot = std::max(hot, root < load.size() ? load[root] : 0);
  return hot;
}

/// Every value a cell reports, by name, in JSON order. Each cell's JSON
/// carries all of them, so every mode shares one cell schema; each mode's
/// table picks its columns from here by name.
const std::vector<Metric>& metrics() {
  static const std::vector<Metric> catalogue = [] {
    std::vector<Metric> m;
    const auto num = [&m](std::string name, int decimals, std::function<double(C)> get) {
      m.push_back({std::move(name), decimals, [get](C c) -> Value { return get(c); }});
    };
    const auto val = [&m](std::string name, std::function<Value(C)> get) {
      m.push_back({std::move(name), 0, std::move(get)});
    };
    val("cell", [](C c) { return c.spec.name; });
    num("seed", 0, [](C c) { return c.spec.params.seed; });
    num("qos", 0, [](C c) { return static_cast<int>(c.spec.qos); });
    num("loss", 2, [](C c) { return c.spec.loss; });
    num("replicas", 0, [](C c) { return c.spec.params.config.groups.root_replicas; });
    num("batch_window", 3, [](C c) { return c.spec.params.config.batch_window; });
    num("max_batch", 0, [](C c) { return c.spec.params.config.max_batch; });
    num("pub_burst", 0, [](C c) { return c.spec.params.pub_burst; });
    val("warm_failover", [](C c) { return c.spec.warm_failover; });
    val("kill", [](C c) { return c.spec.root_kill; });
    num("delivery_ratio", 5, [](C c) { return c.total.delivery_ratio(); });
#define COUNTER(field) {#field, &S::field}
    const std::pair<const char*, std::uint64_t S::*> counters[] = {
        COUNTER(publishes), COUNTER(deliveries), COUNTER(expected_deliveries),
        COUNTER(duplicate_deliveries), COUNTER(payload_messages), COUNTER(ack_messages),
        COUNTER(retransmissions), COUNTER(abandoned_hops), COUNTER(nacks_sent),
        COUNTER(nack_deferrals), COUNTER(repairs_served), COUNTER(repair_misses),
        COUNTER(repair_escalations), COUNTER(gap_seqs_detected), COUNTER(gap_seqs_repaired),
        COUNTER(gap_seqs_abandoned), COUNTER(retained_evictions), COUNTER(pre_window_deliveries),
        COUNTER(batch_flushes_window), COUNTER(batch_flushes_full), COUNTER(envelopes_saved),
        COUNTER(batch_publishes_lost), COUNTER(control_messages), COUNTER(stranded_messages),
        COUNTER(tree_builds), COUNTER(build_messages), COUNTER(cache_hits), COUNTER(repairs),
        COUNTER(repair_messages), COUNTER(repair_failures), COUNTER(stranded_subscribers),
        COUNTER(subscribes), COUNTER(grafts), COUNTER(graft_messages), COUNTER(graft_hops),
        COUNTER(graft_retries), COUNTER(graft_aborts), COUNTER(graft_resubscribes),
        COUNTER(stranded_rescues), COUNTER(graft_prefix_batches), COUNTER(graft_prefix_merged),
        COUNTER(root_migrations), COUNTER(warm_promotions), COUNTER(pending_publishes_inherited),
        COUNTER(replica_sync_envelopes), COUNTER(replica_sync_retries),
        COUNTER(migration_envelopes), COUNTER(heartbeats_sent), COUNTER(seq_lease_requests),
        COUNTER(seq_leases_granted), COUNTER(seq_grants_lost), COUNTER(shard_waves),
        COUNTER(shard_handoffs), COUNTER(publisher_batches), COUNTER(publisher_envelopes_saved)};
#undef COUNTER
    for (const auto& [name, field] : counters)
      num(name, 0, [field](C c) { return c.total.*field; });
    num("payload+ack", 0, [](C c) { return c.total.payload_messages + c.total.ack_messages; });
    num("waves", 0, [](C c) { return c.total.batch_flushes_window + c.total.batch_flushes_full; });
    num("mean_batch_occupancy", 2, [](C c) { return c.total.mean_batch_occupancy(); });
    num("mean_gap_latency", 4, [](C c) { return c.total.mean_gap_latency(); });
    num("maintenance_per_publish", 2, [](C c) { return c.total.maintenance_per_publish(); });
    num("payload_per_publish", 2,
        [](C c) { return ratio(c.total.payload_messages, c.total.publishes); });
    num("retx_per_publish", 2,
        [](C c) { return ratio(c.total.retransmissions, c.total.publishes); });
    num("hops_per_graft", 2, [](C c) { return ratio(c.total.graft_hops, c.total.grafts); });
    num("control_envelopes", 0, [](C c) { return c.net.control_envelopes; });
    num("net_graft_hops", 0, [](C c) { return c.net.graft_hops; });
    num("dropped", 0, [](C c) { return c.net.dropped; });
    num("retransmitted", 0, [](C c) { return c.net.retransmitted; });
    num("net_abandoned_hops", 0, [](C c) { return c.net.abandoned_hops; });
    for (const auto& [prefix, h] : {std::pair{"delivery", &S::delivery_latency},
                                    {"gap", &S::gap_repair_latency}, {"graft", &S::graft_latency}})
      for (const auto& [suffix, q] :
           {std::pair{"_p50", &obs::Histogram::p50}, {"_p90", &obs::Histogram::p90},
            {"_p99", &obs::Histogram::p99}, {"_max", &obs::Histogram::max}})
        num(std::string(prefix) + suffix, 4, [h, q](C c) { return ((c.total.*h).*q)(); });
    num("send_load_max", 0, [](C c) { return load_of(c, true).max; });
    num("send_load_p99", 0, [](C c) { return load_of(c, true).p99; });
    num("recv_load_max", 0, [](C c) { return load_of(c, false).max; });
    num("recv_load_p99", 0, [](C c) { return load_of(c, false).p99; });
    num("total_load_max", 0, [](C c) { return obs::summarize_load(node_load(c)).max; });
    num("total_load_p99", 0, [](C c) { return obs::summarize_load(node_load(c)).p99; });
    num("hot_root_load", 0, hot_root_load);
    num("departures", 0, [](C c) { return c.departures; });
    num("kills", 0, [](C c) { return c.kills; });
    num("severed_subscribers", 0, [](C c) { return c.severed; });
    num("retained_peak", 0, [](C c) { return c.retained_peak; });
    num("inflight_leaked", 0, [](C c) { return c.inflight_grafts; });
    num("time_to_first_post_kill_delivery", 4, [](C c) { return c.first_post_kill; });
    val("matches_fresh_build", [](C c) { return c.fresh_build_ok; });
    val("attached_ok", [](C c) { return c.attached_ok; });
    val("delivered_identical", [](C c) { return c.identical; });
    num("delivered_keys", 0, [](C c) { return c.delivered_keys; });
    val("delivered_digest", [](C c) { return c.digest; });
    num("sim_events", 0, [](C c) { return c.events; });
    num("run_secs", 3, [](C c) { return c.run_secs; });
    num("publishes_per_sec", 1, [](C c) { return ratio(c.total.publishes, c.run_secs); });
    num("overlay_secs", 3, [](C c) { return c.overlay_secs; });
    val("slot_roots", [](C c) {
      std::string roots = "[";
      for (const PeerId p : c.slot_roots)
        roots.append(roots.size() > 1 ? "," : "").append(std::to_string(p));
      return Json{roots + "]"};
    });
    val("total_load", [](C c) { return Json{obs::to_json(obs::summarize_load(node_load(c)))}; });
    val("delivery_latency", [](C c) { return Json{c.total.delivery_latency.to_json()}; });
    val("gap_repair_latency", [](C c) { return Json{c.total.gap_repair_latency.to_json()}; });
    val("graft_latency", [](C c) { return Json{c.total.graft_latency.to_json()}; });
    val("net", [](C c) { return Json{obs::to_json(c.net)}; });
    return m;
  }();
  return catalogue;
}

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(10);
  if (value == std::floor(value) && std::fabs(value) < 1e15) out << static_cast<long long>(value);
  else out << value;
  return out.str();
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string cell_json(C cell) {
  std::string out;
  for (const Metric& m : metrics()) {
    const Value value = m.get(cell);
    out.append(out.empty() ? "{" : ",").append(quoted(m.name)).append(":");
    if (const auto* d = std::get_if<double>(&value)) out += json_number(*d);
    else if (const auto* b = std::get_if<bool>(&value)) out += *b ? "true" : "false";
    else if (const auto* t = std::get_if<std::string>(&value)) out += quoted(*t);
    else out += std::get<Json>(value).text;
  }
  return out + "}";
}

/// One row per cell, one column per entry of `columns`: a metric name, or
/// "header=name" to print it under another header. No columns means every
/// metric a table can print, as metric/value rows of a single cell.
util::Table cell_table(const std::vector<CellResult>& cells,
                       const std::vector<std::string_view>& columns) {
  std::vector<std::string> headers;
  std::vector<const Metric*> shown;
  for (const std::string_view column : columns) {
    const auto eq = column.find('=');
    headers.emplace_back(column.substr(0, eq));
    const std::string_view name = eq == std::string_view::npos ? column : column.substr(eq + 1);
    const auto m = std::find_if(metrics().begin(), metrics().end(),
                                [name](const Metric& metric) { return metric.name == name; });
    if (m == metrics().end()) throw std::logic_error("no metric named " + std::string(name));
    shown.push_back(&*m);
  }
  for (const Metric& m : metrics())
    if (columns.empty() && !std::holds_alternative<Json>(m.get(cells.front()))) {
      headers.push_back(m.name);
      shown.push_back(&m);
    }
  const auto add = [](util::Table& table, const Metric& m, C cell) {
    const Value value = m.get(cell);
    if (const auto* d = std::get_if<double>(&value)) table.add_number(*d, m.decimals);
    else if (const auto* b = std::get_if<bool>(&value)) table.add_number(*b ? 1 : 0, 0);
    else table.add_cell(std::get<std::string>(value));
  };
  const bool single = columns.empty();
  util::Table table(single ? std::vector<std::string>{"metric", "value"} : headers);
  for (std::size_t i = 0; single && i < shown.size(); ++i)
    add(table.begin_row().add_cell(headers[i]), *shown[i], cells.front());
  for (std::size_t r = 0; !single && r < cells.size(); ++r) {
    table.begin_row();
    for (const Metric* m : shown) add(table, *m, cells[r]);
  }
  return table;
}

struct Gate {
  const char* key;   // JSON "gate_<key>"
  std::string text;  // the acceptance line
  bool ok;
};

/// A mode's gates, plus mode-level JSON values next to its cells.
struct Verdict {
  std::vector<Gate> gates;
  std::vector<std::pair<const char*, std::string>> summary = {};
};

struct Output {
  bool csv = false;
  std::string json_path;
};

void write_file(const std::string& path, const std::string& body, const char* what) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("cannot write ") + what + " file: " + path);
  out << body << "\n";
}

std::string params_json(const ScenarioParams& params) {
  const groups::PubSubConfig& config = params.config;
  std::ostringstream o;
  o.precision(10);
  o << "{\"peers\":" << params.peers << ",\"dims\":" << params.dims
    << ",\"groups\":" << params.group_count << ",\"subscribers\":" << params.subscribers
    << ",\"publishes\":" << params.publishes << ",\"departures\":" << params.departures
    << ",\"midwave\":" << params.midwave << ",\"pub_burst\":" << params.pub_burst
    << ",\"batch_window\":" << config.batch_window << ",\"max_batch\":" << config.max_batch
    << ",\"replicas\":" << config.groups.root_replicas
    << ",\"publisher_batch_window\":" << config.publisher_batch_window
    << ",\"graft_prefix_batch\":" << (config.graft_prefix_batch ? "true" : "false")
    << ",\"retention\":" << config.groups.retention_window << ",\"seed\":" << params.seed << "}";
  return o.str();
}

/// GEOMCAST_GIT_SHA, _COMPILER and _BUILD_TYPE are defined by CMake at
/// configure time.
std::string provenance_json() {
  return "{\"git_sha\":" + quoted(GEOMCAST_GIT_SHA) + ",\"compiler\":" +
         quoted(GEOMCAST_COMPILER) + ",\"build_type\":" + quoted(GEOMCAST_BUILD_TYPE) +
         ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency()) + "}";
}

/// Writes the mode's JSON (when asked), prints its table and acceptance
/// lines, and returns the exit code: 0 when every gate passes, else 2.
int report(const char* mode, const std::string& heading, const ScenarioParams& params,
           const std::vector<CellResult>& cells, const std::vector<std::string_view>& columns,
           const Verdict& verdict, const Output& out) {
  const bool all_ok = std::all_of(verdict.gates.begin(), verdict.gates.end(),
                                  [](const Gate& gate) { return gate.ok; });
  if (!out.json_path.empty()) {
    std::string json = "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": " + quoted(mode) +
                       ",\n  \"provenance\": " + provenance_json() +
                       ",\n  \"params\": " + params_json(params);
    for (const auto& [key, value] : verdict.summary) json += ",\n  " + quoted(key) + ": " + value;
    json += ",\n  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i)
      json.append(i > 0 ? ",\n    " : "\n    ").append(cell_json(cells[i]));
    json += "\n  ]";
    for (const Gate& gate : verdict.gates)
      json += ",\n  \"gate_" + std::string(gate.key) + "\": " + (gate.ok ? "true" : "false");
    write_file(out.json_path, json + "\n}", "--json");
  }
  const util::Table table = cell_table(cells, columns);
  if (out.csv) {
    table.print_csv(std::cout);  // gate failures go to stderr below
  } else {
    std::cout << "=== " << heading << ": " << params.group_count << " groups x "
              << params.subscribers << " subscribers on " << params.peers
              << " peers (D=" << params.dims << "), seed=" << params.seed << " ===\n\n";
    table.print(std::cout);
    std::cout << "\n";
    for (const Gate& gate : verdict.gates)
      std::cout << "acceptance: " << gate.text << ": " << (gate.ok ? "PASS" : "FAIL") << "\n";
  }
  for (const Gate& gate : verdict.gates)
    if (!gate.ok)
      std::cerr << "pubsub_throughput: " << mode << " gate failed: " << gate.key << "\n";
  return all_ok ? 0 : 2;
}

// ---------------------------------------------------------------- modes ----

/// cells_for(overlay, params) for each of three pinned seeds, own overlay each.
template <class CellsFor>
std::vector<CellResult> per_pinned_seed(const ScenarioParams& params, CellsFor cells_for) {
  std::vector<CellResult> cells;
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams seeded = params;
    seeded.seed = seed;
    for (CellResult& cell : cells_for(overlay_for(params, seed), seeded))
      cells.push_back(std::move(cell));
  }
  return cells;
}

/// Default: one standard cell at --qos/--loss, optionally traced and sampled.
int run_single(const Overlay& overlay, const ScenarioParams& params, QoS qos, double loss,
               const std::string& trace_path, const std::string& snapshot_path,
               double snapshot_interval, const Output& out) {
  std::optional<obs::TraceSink> sink;
  if (!trace_path.empty()) sink.emplace(1u << 20);  // ~1M events: a full-size run
  const CellSpec spec{.params = params, .qos = qos, .loss = loss, .trace = sink ? &*sink : nullptr,
                      .snapshot = !snapshot_path.empty(), .snapshot_interval = snapshot_interval};
  const std::vector<CellResult> cells{run_cell(overlay, spec, schedule_standard)};
  const CellResult& cell = cells.front();
  if (sink) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) throw std::runtime_error("cannot write --trace file: " + trace_path);
    obs::write_chrome_trace(trace_out, sink->events());
    std::cerr << "pubsub_throughput: wrote " << sink->size() << " trace events ("
              << sink->dropped() << " dropped) to " << trace_path << "\n";
  }
  if (spec.snapshot) write_file(snapshot_path, cell.snapshot_json, "--snapshot");
  const double flooding = static_cast<double>(params.peers - 1);
  const Verdict verdict{{
      {"delivery_ratio", "delivery_ratio >= 0.99 at zero loss",
       loss > 0.0 || cell.total.delivery_ratio() >= 0.99},
      {"pruned_beats_flooding", "payload per publish below full dissemination (N-1 msgs)",
       ratio(cell.total.payload_messages, cell.total.publishes) < flooding},
  }};
  return report("single", "pub/sub throughput", params, cells, {}, verdict, out);
}

/// --sweep: QoS 0/1/2 at each loss in {0, 0.05, 0.15}, with --midwave
/// forwarder kills (default 4) instead of random churn.
int run_sweep(const Overlay& overlay, const ScenarioParams& params, const Output& out) {
  std::vector<CellResult> cells;
  for (const double loss : {0.0, 0.05, 0.15})
    for (const QoS qos : kRungs)
      cells.push_back(
          run_cell(overlay, {.params = params, .qos = qos, .loss = loss}, schedule_standard));
  const std::size_t window = params.config.groups.retention_window;
  double at5[3] = {};  // delivery ratio per rung at 5% loss
  bool qos1_ok = true, retention_ok = true;
  for (C c : cells) {
    if (c.spec.loss == 0.05) at5[static_cast<int>(c.spec.qos)] = c.total.delivery_ratio();
    // QoS 1 is blind to severed subtrees by design; at 15% loss that mixes in.
    if (c.spec.qos == QoS::kAcked && c.spec.loss <= 0.05)
      qos1_ok = qos1_ok && c.total.delivery_ratio() >= 0.99;
    // Peak within the window, and no entries leaked across buffers.
    if (c.spec.qos == QoS::kEndToEnd)
      retention_ok = retention_ok && c.retained_peak <= window &&
                     c.retained_entries <= c.retained_buffers * window;
  }
  const Verdict verdict{{
      {"qos1_per_hop", "QoS 1 delivery_ratio >= 0.99 at loss points <= 5%", qos1_ok},
      {"qos0_below_qos1", "at 5% loss QoS 0 visibly below QoS 1",
       at5[1] >= 0.99 && at5[0] < at5[1] - 0.01},
      {"qos2_end_to_end", "at 5% loss with mid-wave kills QoS 2 >= 0.9999, QoS 1 below",
       at5[2] >= 0.9999 && at5[1] < 0.9999},
      {"retention_bounded", "retained-buffer peak and entries within the window", retention_ok},
  }};
  return report("sweep", "QoS x loss sweep with mid-wave kills", params, cells,
                {"loss", "qos", "kills", "severed=severed_subscribers", "publishes",
                 "delivery_ratio", "retx_per_publish", "duplicates=duplicate_deliveries",
                 "abandoned_hops", "payload_per_publish", "ack_msgs=ack_messages",
                 "nacks=nacks_sent", "repairs=repairs_served", "escalations=repair_escalations",
                 "gaps_abandoned=gap_seqs_abandoned", "mean_gap_latency", "dropped", "run_secs"},
                verdict, out);
}

/// --batch-compare: bursts at every QoS rung, unbatched vs batched, no churn.
int run_batch_compare(const Overlay& overlay, ScenarioParams params, const Output& out) {
  params.departures = 0;
  params.midwave = 0;
  if (params.pub_burst <= 1) params.pub_burst = 8;
  if (params.config.batch_window <= 0.0) params.config.batch_window = 0.1;
  ScenarioParams unbatched = params;
  unbatched.config.batch_window = 0.0;
  std::vector<CellResult> cells;
  for (const QoS qos : kRungs) {
    CellResult base = run_cell(overlay, {.params = unbatched, .qos = qos}, schedule_standard);
    CellResult coalesced = run_cell(overlay, {.params = params, .qos = qos}, schedule_standard);
    base.identical = coalesced.identical = same_delivered(base, coalesced);
    cells.push_back(std::move(base));
    cells.push_back(std::move(coalesced));
  }
  const auto envelopes = [](C c) { return c.total.payload_messages + c.total.ack_messages; };
  const double reduction = ratio(static_cast<double>(envelopes(cells[2])),
                                 static_cast<double>(envelopes(cells[3])));  // the QoS 1 pair
  const bool identical_ok =
      std::all_of(cells.begin(), cells.end(), [](C c) { return c.identical; });
  const Verdict verdict{
      {{"identical", "delivered sets bit-identical at QoS 0/1/2", identical_ok},
       {"reduction_ge_3x", "payload+ack envelopes reduced >= 3x at QoS 1", reduction >= 3.0}},
      {{"delivered_sets_identical", identical_ok ? "true" : "false"},
       {"payload_ack_reduction_qos1", json_number(reduction)}}};
  return report("batch_compare", "batch compare, unbatched vs batched bursts", params, cells,
                {"qos", "batch_window", "publishes", "delivery_ratio",
                 "payload_msgs=payload_messages", "ack_msgs=ack_messages", "payload+ack",
                 "nacks=nacks_sent", "retx=retransmissions", "waves",
                 "occupancy=mean_batch_occupancy", "envelopes_saved",
                 "identical_set=delivered_identical", "run_secs"},
                verdict, out);
}

/// --graft-cost: per pinned seed, routed grafts at zero loss and again at
/// 5% loss with mid-graft kills.
int run_graft_cost(ScenarioParams params, const Output& out) {
  // The graft workload runs on the library's defaults (no batching), as in
  // every earlier measurement, with the flags' ack timeout and retries.
  groups::PubSubConfig defaults;
  defaults.reliability = params.config.reliability;
  params.config = defaults;
  const std::size_t churn_kills = std::max<std::size_t>(params.departures / 4, 2);
  const auto cells = per_pinned_seed(params, [&](const Overlay& overlay, const ScenarioParams& p) {
    return std::vector<CellResult>{
        run_cell(overlay, {.name = "routed", .params = p, .qos = QoS::kAcked}, schedule_grafts),
        run_cell(overlay,
                 {.name = "routed+churn", .params = p, .qos = QoS::kAcked, .loss = 0.05,
                  .graft_kills = churn_kills},
                 schedule_grafts)};
  });
  bool fresh_ok = true, visible_ok = true, attached_ok = true, leak_ok = true;
  for (C c : cells) {
    const bool routed = c.spec.loss == 0.0;  // routed+churn runs at 5% loss
    fresh_ok = fresh_ok && (!routed || (c.fresh_build_ok && c.total.grafts > 0));
    visible_ok = visible_ok && c.net.control_envelopes > 0 &&
                 (!routed || (c.total.graft_hops > 0 && c.net.graft_hops == c.total.graft_hops));
    attached_ok = attached_ok && c.attached_ok;
    leak_ok = leak_ok && c.inflight_grafts == 0;
  }
  const Verdict verdict{{
      {"fresh_build", "zero-loss trees equal a fresh build over the membership", fresh_ok},
      {"cost_visible", "graft hops and control envelopes visible in NetworkStats", visible_ok},
      {"all_attached", "surviving subscribers attached under 5% loss + kills", attached_ok},
      {"no_leaked_cursors", "no leaked in-flight graft cursors", leak_ok},
  }};
  return report("graft_cost", "graft cost, late half grafted", params, cells,
                {"seed", "mode=cell", "loss", "kills", "subscribes", "grafts",
                 "graft_msgs=graft_messages", "graft_hops", "hops_per_graft",
                 "retries=graft_retries", "aborts=graft_aborts", "resubs=graft_resubscribes",
                 "rescues=stranded_rescues", "control_env=control_envelopes", "delivery_ratio",
                 "fresh_build=matches_fresh_build", "attached=attached_ok", "run_secs"},
                verdict, out);
}

/// --latency: per pinned seed, every QoS rung at loss {0, 0.05}, churn off.
int run_latency(ScenarioParams params, const Output& out) {
  params.departures = 0;
  params.midwave = 0;
  const auto cells = per_pinned_seed(params, [](const Overlay& overlay, const ScenarioParams& p) {
    std::vector<CellResult> seeded;
    for (const double loss : {0.0, 0.05})
      for (const QoS qos : kRungs)
        seeded.push_back(
            run_cell(overlay, {.params = p, .qos = qos, .loss = loss}, schedule_standard));
    return seeded;
  });
  bool shape_ok = true, counts_ok = true, load_ok = true;
  for (C c : cells) {
    const auto& h = c.total.delivery_latency;
    shape_ok = shape_ok && h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max();
    counts_ok = counts_ok && h.count() > 0 && h.p50() > 0.0 && h.count() == c.total.deliveries;
    const auto send = load_of(c, true), recv = load_of(c, false);
    load_ok = load_ok && send.max >= send.p99 && recv.max >= recv.p99 && send.max > 0;
  }
  const Verdict verdict{{
      {"quantiles_ordered", "p50 <= p90 <= p99 <= max in every cell", shape_ok},
      {"histogram_counts_deliveries", "histogram count == deliveries, p50 > 0", counts_ok},
      {"load_summary_consistent", "per-peer load max >= p99, max > 0", load_ok},
  }};
  return report("latency", "publish->delivery latency, churn off", params, cells,
                {"seed", "loss", "qos", "publishes", "deliveries", "delivery_ratio",
                 "delivery_p50", "delivery_p90", "delivery_p99", "delivery_max", "gap_p50",
                 "gap_p99", "send_load_max", "send_load_p99", "recv_load_max", "recv_load_p99",
                 "run_secs"},
                verdict, out);
}

/// --root-kill: per pinned seed, cold vs warm failover under root kills,
/// plus a no-kill control pair.
int run_root_kill(ScenarioParams params, const Output& out) {
  params.departures = 0;
  params.midwave = 0;
  if (params.config.batch_window <= 0.0) params.config.batch_window = 0.05;
  if (params.config.max_batch <= 1) params.config.max_batch = 16;
  params.config.publisher_batch_window = 0.0;  // root-side batching only
  params.config.graft_prefix_batch = false;
  auto cells = per_pinned_seed(params, [](const Overlay& overlay, const ScenarioParams& p) {
    const auto run = [&](const char* name, bool warm, bool kill) {
      return run_cell(overlay,
                      {.name = name, .params = p, .qos = QoS::kEndToEnd, .warm_failover = warm,
                       .root_kill = kill},
                      schedule_root_kill);
    };
    std::vector<CellResult> seeded{run("cold+kill", false, true), run("warm+kill", true, true),
                                   run("cold", false, false), run("warm", true, false)};
    seeded[2].identical = seeded[3].identical = same_delivered(seeded[2], seeded[3]);
    return seeded;
  });
  bool kills_ok = true, cold_ok = true, warm_ok = true, ttf_ok = true, identity_ok = true;
  for (std::size_t i = 0; i < cells.size(); i += 4) {
    const CellResult &cold = cells[i], &warm = cells[i + 1], &base_cold = cells[i + 2],
                     &base_warm = cells[i + 3];
    kills_ok = kills_ok && cold.kills > 0 && cold.kills == warm.kills &&
               cold.severed == warm.severed && cold.total.publishes == warm.total.publishes &&
               warm.total.root_migrations == cold.total.root_migrations;
    // Cold: the new root's empty RetainedBuffer abandons the severed repairs.
    cold_ok = cold_ok && cold.total.gap_seqs_abandoned > 0 &&
              cold.total.deliveries < cold.total.expected_deliveries &&
              cold.total.batch_publishes_lost > 0 &&
              cold.total.pending_publishes_inherited == 0 &&
              cold.total.replica_sync_envelopes == 0 && cold.total.migration_envelopes == 0;
    // Warm: >= 1 promotion per kill (groups may share a root).
    warm_ok = warm_ok && warm.total.deliveries == warm.total.expected_deliveries &&
              warm.total.gap_seqs_abandoned == 0 && warm.total.batch_publishes_lost == 0 &&
              warm.total.pending_publishes_inherited > 0 &&
              warm.total.warm_promotions >= warm.kills &&
              warm.total.replica_sync_envelopes > 0 && warm.total.migration_envelopes > 0;
    ttf_ok = ttf_ok && warm.first_post_kill >= 0.0 && cold.first_post_kill >= 0.0 &&
             warm.first_post_kill < cold.first_post_kill;
    // With nobody dying, warm replication is pure extra traffic.
    identity_ok = identity_ok && base_cold.identical &&
                  base_warm.total.replica_sync_envelopes > 0 &&
                  base_cold.total.replica_sync_envelopes == 0;
  }
  const Verdict verdict{{
      {"kills_consistent", "cold and warm cells kill identical victims", kills_ok},
      {"cold_dip", "cold rebuild dips (abandons, ratio < 1, batch lost)", cold_ok},
      {"warm_zero_dip", "warm failover erases the dip, handoff priced", warm_ok},
      {"warm_faster_first_delivery", "warm resumes deliveries faster after the kill", ttf_ok},
      {"no_kill_identical", "no-kill delivered sets bit-identical warm vs cold", identity_ok},
  }};
  return report("root_kill", "root kill, cold rebuild vs warm failover", params, cells,
                {"seed", "cell", "kills", "severed=severed_subscribers", "publishes",
                 "delivery_ratio", "gaps_abandoned=gap_seqs_abandoned",
                 "batch_lost=batch_publishes_lost", "inherited=pending_publishes_inherited",
                 "promotions=warm_promotions", "repl_sync=replica_sync_envelopes",
                 "migr_env=migration_envelopes",
                 "first_delivery=time_to_first_post_kill_delivery", "run_secs"},
                verdict, out);
}

/// --hot-group: one hot group swept over root_replicas (default {1, 2, 4})
/// at every QoS rung; R = 1 is the oracle.
int run_hot_group(ScenarioParams params, const Output& out, std::vector<std::size_t> axis) {
  std::sort(axis.begin(), axis.end());
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
  if (axis.empty() || axis.front() != 1) axis.insert(axis.begin(), 1);
  params.group_count = 1;
  const Overlay overlay = overlay_for(params, params.seed);
  // Membership is the same in every cell: no slot root of ANY R on the axis
  // subscribes or publishes (anchors are immutable and there is no churn,
  // so a throwaway system per R names them exactly).
  std::vector<bool> excluded(overlay.graph.size(), false);
  std::vector<std::vector<PeerId>> slot_roots;
  for (const std::size_t r : axis) {
    groups::PubSubConfig probe;
    probe.seed = params.seed;
    probe.groups.root_replicas = r;
    groups::PubSubSystem system(overlay.graph, probe);
    auto& roots = slot_roots.emplace_back();
    for (std::uint32_t s = 0; s < r; ++s)
      excluded[roots.emplace_back(system.manager().slot_root(0, s))] = true;
  }
  const Schedule schedule = schedule_hot_group(excluded);
  std::vector<CellResult> cells;
  for (std::size_t i = 0; i < axis.size(); ++i)
    for (const QoS qos : kRungs) {
      ScenarioParams replicated = params;
      replicated.config.groups.root_replicas = axis[i];
      cells.push_back(run_cell(overlay, {.params = replicated, .qos = qos}, schedule));
      cells.back().slot_roots = slot_roots[i];
    }
  for (std::size_t i = 0; i < cells.size(); ++i)  // cells[i % 3]: R = 1, same rung
    cells[i].identical = same_delivered(cells[i], cells[i % std::size(kRungs)]);
  std::vector<std::uint64_t> hot;  // QoS 1 hot-root load along the axis
  std::string axis_json, hot_json;
  for (C c : cells)
    if (c.spec.qos == QoS::kAcked) {
      const std::string r = std::to_string(c.spec.params.config.groups.root_replicas);
      const char* sep = hot.empty() ? "" : ",";
      hot.push_back(hot_root_load(c));
      axis_json.append(sep).append(r);
      hot_json.append(sep).append("\"" + r + "\":" + std::to_string(hot.back()));
    }
  const bool flatten_gated = hot.size() > 1 && hot.back() > 0 && params.peers >= 1000;
  const double flatten = hot.size() > 1 ? ratio(hot.front(), hot.back()) : 0.0;
  const Verdict verdict{
      {{"delivered_identical", "delivered sets bit-identical to R=1 at every QoS rung",
        std::all_of(cells.begin(), cells.end(), [](C c) { return c.identical; })},
       {"hot_root_monotonic", "QoS 1 hot-root load non-increasing along the axis",
        std::is_sorted(hot.rbegin(), hot.rend())},
       {"hot_root_flatten_1_8x",
        std::string("QoS 1 hot-root load drops >= 1.8x at the axis maximum") +
            (flatten_gated ? "" : " (not gated below 1000 peers)"),
        !flatten_gated || flatten >= 1.8}},
      {{"replica_axis", "[" + axis_json + "]"},
       {"hot_root_load_qos1", "{" + hot_json + "}"},
       {"load_flatten_ratio", json_number(flatten)},
       {"flatten_gated", flatten_gated ? "true" : "false"}}};
  return report("hot_group", "hot group (all eligible peers join), replicas {" + axis_json + "}",
                params, cells,
                {"replicas", "qos", "publishes", "delivery_ratio",
                 "control_env=control_envelopes", "graft_hops", "seq_leases=seq_leases_granted",
                 "shard_waves", "handoffs=shard_handoffs", "send_max=send_load_max",
                 "total_max=total_load_max", "total_p99=total_load_p99", "hot_root_load",
                 "identical=delivered_identical", "run_secs"},
                verdict, out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    ScenarioParams params;
    params.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    params.dims = static_cast<std::size_t>(flags.get_int("dims", 3));
    params.group_count = static_cast<std::size_t>(flags.get_int("groups", 32));
    params.subscribers = static_cast<std::size_t>(flags.get_int("subscribers", 32));
    params.publishes = static_cast<std::size_t>(flags.get_int("publishes", 8));
    params.departures = static_cast<std::size_t>(flags.get_int("departures", 24));
    groups::PubSubConfig& config = params.config;
    config.reliability.ack_timeout = flags.get_double("ack-timeout", 0.05);
    config.reliability.max_retries = static_cast<std::size_t>(flags.get_int("retries", 5));
    config.groups.retention_window = static_cast<std::size_t>(flags.get_int("retention", 64));
    config.batch_window = flags.get_double("batch-window", 0.0);
    config.max_batch = static_cast<std::size_t>(flags.get_int("max-batch", 16));
    params.pub_burst = static_cast<std::size_t>(flags.get_int("pub-burst", 1));
    config.publisher_batch_window = flags.get_double("publisher-batch-window", 0.0);
    config.graft_prefix_batch = flags.get_bool("graft-prefix-batch", false);
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const double loss = flags.get_double("loss", 0.0);
    const std::int64_t qos_level = flags.get_int("qos", 0);
    if (qos_level < 0 || qos_level > 2) throw std::invalid_argument("--qos must be 0, 1 or 2");
    const Output out{flags.get_bool("csv", false), flags.get_string("json", "")};
    const bool sweep = flags.get_bool("sweep", false);
    const bool batch_compare = flags.get_bool("batch-compare", false);
    const bool graft_cost = flags.get_bool("graft-cost", false);
    const bool latency = flags.get_bool("latency", false);
    const bool root_kill = flags.get_bool("root-kill", false);
    const bool hot_group = flags.get_bool("hot-group", false);
    const std::string trace_path = flags.get_string("trace", "");
    const std::string snapshot_path = flags.get_string("snapshot", "");
    const double snapshot_interval = flags.get_double("snapshot-interval", 0.5);
    // The sweep gates on subtree repair, so its departures are mid-wave
    // forwarder kills rather than random churn.
    params.midwave = static_cast<std::size_t>(flags.get_int("midwave", sweep ? 4 : 0));
    if (sweep) params.departures = 0;
    if (flags.get_bool("quick", false)) {
      params.peers = 200;
      params.group_count = 8;
      params.departures = sweep ? 0 : 6;
      if (batch_compare) params.publishes = std::max<std::size_t>(params.publishes, 16);
      // One kill: two severed subtrees of 200 peers sink QoS 1 below 0.99.
      if (sweep && !flags.has("midwave")) params.midwave = 1;
      // Root kills need unsubscribed relays near every root.
      if (root_kill && !flags.has("subscribers"))
        params.subscribers = std::min<std::size_t>(params.subscribers, 12);
    }
    if (params.subscribers == 0) throw std::invalid_argument("--subscribers must be >= 1");
    // Hot-group defaults: bursts coalesced at both ends, prefix-batched grafts.
    std::vector<std::size_t> replica_axis;
    if (hot_group) {
      if (!flags.has("publishes")) params.publishes = 64;
      if (!flags.has("pub-burst")) params.pub_burst = 8;
      if (!flags.has("batch-window")) config.batch_window = 0.05;
      if (!flags.has("publisher-batch-window")) config.publisher_batch_window = 0.02;
      if (!flags.has("graft-prefix-batch")) config.graft_prefix_batch = true;
      for (const std::int64_t r : flags.get_int_list("replicas", {1, 2, 4})) {
        if (r < 1) throw std::invalid_argument("--replicas entries must be >= 1");
        replica_axis.push_back(static_cast<std::size_t>(r));
      }
    }
    // Any flag no mode has read by now (a typo, a retired mode) is an error.
    flags.reject_unread();
    if (hot_group) return run_hot_group(params, out, std::move(replica_axis));
    if (graft_cost) return run_graft_cost(params, out);
    if (latency) return run_latency(params, out);
    if (root_kill) return run_root_kill(params, out);
    const Overlay overlay = overlay_for(params, params.seed);
    if (batch_compare) return run_batch_compare(overlay, params, out);
    if (sweep) return run_sweep(overlay, params, out);
    return run_single(overlay, params, static_cast<QoS>(qos_level), loss, trace_path,
                      snapshot_path, snapshot_interval, out);
  } catch (const std::exception& error) {
    std::cerr << "pubsub_throughput: " << error.what() << '\n';
    return 1;
  }
}
