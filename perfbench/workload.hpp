// Benchmark workloads: each one is a name, a size, a PubSubConfig and a
// schedule generator. Everything here is input generation — a pure function
// of (workload, seed, overlay) — and runs outside every timed region. The
// system under test receives only the peer coordinates, the config, and the
// schedule of subscribe / unsubscribe / publish / depart operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.hpp"
#include "groups/pubsub.hpp"
#include "overlay/graph.hpp"

namespace geomcast::perfbench {

enum class OpKind : std::uint8_t { kSubscribe, kUnsubscribe, kPublish, kDepart };

struct Op {
  double time = 0.0;
  OpKind kind = OpKind::kSubscribe;
  overlay::PeerId peer = overlay::kInvalidPeer;
  groups::GroupId group = 0;  // unused for kDepart
};

struct Workload {
  std::string name;
  std::size_t peers = 0;
  /// 0: full-knowledge overlay (build_equilibrium); k > 0: grid-kNN local
  /// knowledge with k candidates per peer (build_equilibrium_local).
  std::size_t knn_k = 0;
  std::size_t groups = 0;
  /// Initial members per group, subscribing in (0, 1).
  std::size_t subscribers = 0;
  /// True: each group's members are the non-root peers nearest its root
  /// (control traffic stays in the neighbourhood, as a local-knowledge
  /// overlay needs); false: drawn uniformly.
  bool local_members = false;
  /// Publishes per group: one warm publish at t = 2, the rest in bursts of
  /// `burst` from one publisher at one instant, spread over [3, horizon).
  std::size_t publishes = 0;
  std::size_t burst = 1;
  /// Subscribe/unsubscribe toggles per group over [3, horizon).
  std::size_t toggles = 0;
  std::size_t departures = 0;  // random non-root peers over [3, horizon)
  std::size_t root_kills = 0;  // group roots departed mid-run
  double horizon = 9.0;
  groups::PubSubConfig config;
  /// How closely this workload's host times follow the reference kernel
  /// (perfbench/main.cpp) as the host's speed drifts: the slope of log time
  /// against log kernel time, measured across busy and quiet hosts. Host
  /// times are reported as raw * (reference / kernel)^kernel_elasticity.
  double kernel_elasticity = 1.0;
  /// Independent scenarios (own seed, coordinates and schedule) per run.
  /// Simulated metrics pool their counts, so the spread across seeds
  /// shrinks with the instance count.
  std::size_t instances = 1;
};

/// The named workloads; `small` gives the reduced-size variants the
/// self-test runs. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, bool small);

struct Schedule {
  std::vector<Op> ops;
  /// Per-group scheduled counts, the denominators of ops_failed_share.
  std::vector<std::uint64_t> subscribes, unsubscribes, publishes;
  /// Each group's rendezvous root on the fresh overlay.
  std::vector<overlay::PeerId> roots;
  [[nodiscard]] std::uint64_t control_ops() const;
};

[[nodiscard]] std::vector<geometry::Point> make_points(const Workload& w,
                                                       std::uint64_t seed);

/// Draws the schedule. Needs the overlay only to find each group's
/// rendezvous root and, for local members, its neighbourhood.
[[nodiscard]] Schedule make_schedule(const Workload& w, const overlay::OverlayGraph& graph,
                                     std::uint64_t seed);

}  // namespace geomcast::perfbench
