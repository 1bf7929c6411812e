#include "workload.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "groups/group_manager.hpp"
#include "util/rng.hpp"

namespace geomcast::perfbench {

namespace {

constexpr std::size_t kDims = 3;  // peer coordinates in [0, 100]^3

groups::PubSubConfig base_config(multicast::QoS qos, double loss, double batch_window) {
  groups::PubSubConfig config;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.loss.drop_probability = loss;
  config.batch_window = batch_window;
  config.groups.retention_window = 64;
  return config;
}

// Why each workload exists (also recorded in BENCHMARK.json):
//  * fanout-1k: the data plane does the work — event dispatch, per-hop
//    retransmits under 5% loss, QoS 2 windows and NACK repair. Overlay and
//    tree builds are negligible.
//  * sweep-100k: cost grows with peer count — the grid-kNN overlay build and
//    O(peers) per-group tree state dominate; few events run.
//  * churn-2k: the tree layer again, but incremental (grafts, prune
//    cascades, rebuilds after repairs) plus the warm-failover replica plane.
// perfbench/METRICS.md gives the reasons for the instance counts and sizes.
Workload fanout(bool small) {
  Workload w;
  w.name = "fanout-1k";
  w.peers = small ? 200 : 1000;
  w.groups = small ? 8 : 16;
  w.subscribers = small ? 16 : 64;
  w.publishes = small ? 16 : 128;
  w.departures = small ? 4 : 8;
  w.config = base_config(multicast::QoS::kEndToEnd, 0.05, 0.0);
  w.instances = small ? 2 : 8;
  return w;
}

Workload sweep(bool small) {
  Workload w;
  w.name = "sweep-100k";
  w.peers = small ? 5000 : 100000;
  w.knn_k = 16;
  w.groups = small ? 8 : 64;
  w.subscribers = small ? 32 : 64;
  w.local_members = true;
  w.publishes = 8;
  w.burst = 8;
  w.departures = small ? 6 : 24;
  w.config = base_config(multicast::QoS::kAcked, 0.0, 0.1);
  // run() streams through dense per-peer arrays: it follows the kernel
  // only part of the way (perfbench/METRICS.md).
  w.kernel_elasticity = 0.5;
  // Three instances, not four, so that the ~5 s overlay builds leave room
  // for about twenty repetitions of run() in a 30 s run.
  w.instances = small ? 2 : 3;
  return w;
}

Workload churn(bool small) {
  Workload w;
  w.name = "churn-2k";
  w.peers = small ? 300 : 2000;
  // Twelve groups of 512 toggles rather than six of 1024: a group's
  // stranding is heavy-tailed, and pooling more groups steadies
  // ops_failed_share (perfbench/METRICS.md).
  w.groups = small ? 4 : 12;
  w.subscribers = small ? 16 : 64;
  w.publishes = small ? 8 : 32;
  w.toggles = small ? 64 : 512;
  w.departures = small ? 6 : 24;
  w.root_kills = 1;
  w.horizon = 19.0;
  w.config = base_config(multicast::QoS::kAcked, 0.0, 0.1);
  w.config.warm_failover = true;
  // Tree upkeep follows the kernel only part of the way (METRICS.md).
  w.kernel_elasticity = 0.7;
  w.instances = small ? 2 : 24;
  return w;
}

/// Picks uniformly from `pool` a peer whose previous operation on this group
/// lies at least `spacing` before `time`, so two operations of one peer never
/// race each other to the root. kInvalidPeer when none qualifies within a
/// bounded number of draws.
overlay::PeerId draw_spaced(util::Rng& rng, const std::vector<overlay::PeerId>& pool,
                            const std::vector<double>& last_op, double time,
                            double spacing) {
  if (pool.empty()) return overlay::kInvalidPeer;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const overlay::PeerId p = pool[rng.next_below(pool.size())];
    if (last_op[p] <= time - spacing) return p;
  }
  return overlay::kInvalidPeer;
}

void swap_remove(std::vector<overlay::PeerId>& pool, std::vector<std::size_t>& index,
                 overlay::PeerId p) {
  const std::size_t i = index[p];
  pool[i] = pool.back();
  index[pool[i]] = i;
  pool.pop_back();
}

void push_indexed(std::vector<overlay::PeerId>& pool, std::vector<std::size_t>& index,
                  overlay::PeerId p) {
  index[p] = pool.size();
  pool.push_back(p);
}

}  // namespace

Workload make_workload(const std::string& name, bool small) {
  if (name == "fanout-1k") return fanout(small);
  if (name == "sweep-100k") return sweep(small);
  if (name == "churn-2k") return churn(small);
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t Schedule::control_ops() const {
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < roots.size(); ++g)
    total += subscribes[g] + unsubscribes[g] + publishes[g];
  return total;
}

std::vector<geometry::Point> make_points(const Workload& w, std::uint64_t seed) {
  util::Rng rng(seed);
  return geometry::random_points(rng, w.peers, kDims, 100.0);
}

Schedule make_schedule(const Workload& w, const overlay::OverlayGraph& graph,
                       std::uint64_t seed) {
  const std::size_t n = graph.size();
  Schedule s;
  s.subscribes.assign(w.groups, 0);
  s.unsubscribes.assign(w.groups, 0);
  s.publishes.assign(w.groups, 0);
  {
    groups::GroupManager planner(graph, w.config.groups);
    for (std::size_t g = 0; g < w.groups; ++g) s.roots.push_back(planner.root_of(g));
  }
  // Roots take no part in membership or churn, so a workload measures group
  // service; root_kills alone exercise failover.
  std::vector<bool> is_root(n, false);
  for (const overlay::PeerId r : s.roots) is_root[r] = true;
  std::vector<overlay::PeerId> non_roots;
  for (overlay::PeerId p = 0; p < n; ++p)
    if (!is_root[p]) non_roots.push_back(p);
  if (non_roots.size() < w.subscribers + w.departures)
    throw std::invalid_argument(w.name + ": too few peers for its membership");

  util::Rng rng(seed ^ 0x736368656475ULL);
  std::vector<std::vector<overlay::PeerId>> members(w.groups);
  for (std::size_t g = 0; g < w.groups; ++g) {
    if (w.local_members) {
      std::vector<std::pair<double, overlay::PeerId>> by_dist;
      by_dist.reserve(non_roots.size());
      const geometry::Point& root = graph.point(s.roots[g]);
      for (const overlay::PeerId p : non_roots)
        by_dist.emplace_back(geometry::l2_distance_sq(graph.point(p), root), p);
      std::partial_sort(by_dist.begin(),
                        by_dist.begin() + static_cast<std::ptrdiff_t>(w.subscribers),
                        by_dist.end());
      for (std::size_t i = 0; i < w.subscribers; ++i) members[g].push_back(by_dist[i].second);
    } else {
      std::vector<bool> chosen(n, false);
      while (members[g].size() < w.subscribers) {
        const overlay::PeerId p = non_roots[rng.next_below(non_roots.size())];
        if (chosen[p]) continue;
        chosen[p] = true;
        members[g].push_back(p);
      }
    }
    for (const overlay::PeerId p : members[g]) {
      s.ops.push_back({rng.uniform(0.0, 1.0), OpKind::kSubscribe, p, g});
      ++s.subscribes[g];
    }
  }

  for (std::size_t g = 0; g < w.groups; ++g) {
    s.ops.push_back({2.0, OpKind::kPublish, members[g][0], g});
    ++s.publishes[g];
    for (std::size_t i = 1; i < w.publishes;) {
      const overlay::PeerId publisher = members[g][rng.next_below(members[g].size())];
      const double when = rng.uniform(3.0, w.horizon);
      const std::size_t count = std::min(w.burst, w.publishes - i);
      for (std::size_t j = 0; j < count; ++j)
        s.ops.push_back({when, OpKind::kPublish, publisher, g});
      s.publishes[g] += count;
      i += count;
    }
  }

  // Toggles: unsubscribe a member with probability m / (m + m0), else
  // subscribe a non-member (m members now, m0 initially), so membership
  // reverts to its initial size while the cached tree takes a steady
  // stream of grafts and prunes.
  if (w.toggles > 0) {
    constexpr double kSpacing = 1.0;
    std::vector<double> last_op(n);
    std::vector<std::size_t> in_index(n), out_index(n);
    for (std::size_t g = 0; g < w.groups; ++g) {
      std::vector<overlay::PeerId> in, out;
      std::vector<bool> member(n, false);
      for (const overlay::PeerId p : members[g]) member[p] = true;
      std::fill(last_op.begin(), last_op.end(), -std::numeric_limits<double>::infinity());
      for (const overlay::PeerId p : non_roots) {
        if (member[p]) {
          push_indexed(in, in_index, p);
          last_op[p] = 1.0;
        } else {
          push_indexed(out, out_index, p);
        }
      }
      std::vector<double> times(w.toggles);
      for (double& t : times) t = rng.uniform(3.0, w.horizon);
      std::sort(times.begin(), times.end());
      for (const double t : times) {
        const bool leave =
            rng.uniform(0.0, 1.0) * static_cast<double>(in.size() + w.subscribers) <
            static_cast<double>(in.size());
        const overlay::PeerId p = draw_spaced(rng, leave ? in : out, last_op, t, kSpacing);
        if (p == overlay::kInvalidPeer) continue;
        last_op[p] = t;
        if (leave) {
          swap_remove(in, in_index, p);
          push_indexed(out, out_index, p);
          s.ops.push_back({t, OpKind::kUnsubscribe, p, g});
          ++s.unsubscribes[g];
        } else {
          swap_remove(out, out_index, p);
          push_indexed(in, in_index, p);
          s.ops.push_back({t, OpKind::kSubscribe, p, g});
          ++s.subscribes[g];
        }
      }
    }
  }

  std::vector<bool> doomed(n, false);
  for (std::size_t d = 0; d < w.departures;) {
    const overlay::PeerId p = non_roots[rng.next_below(non_roots.size())];
    if (doomed[p]) continue;
    doomed[p] = true;
    s.ops.push_back({rng.uniform(3.0, w.horizon), OpKind::kDepart, p, 0});
    ++d;
  }
  for (std::size_t g = 0; g < std::min(w.root_kills, w.groups); ++g) {
    const overlay::PeerId root = s.roots[g];
    if (doomed[root]) continue;  // one peer can be root of several groups
    doomed[root] = true;
    s.ops.push_back({rng.uniform(4.0, w.horizon - 2.0), OpKind::kDepart, root, 0});
  }
  return s;
}

}  // namespace geomcast::perfbench
