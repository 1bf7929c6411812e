// Uniform bucket grid over a point set, searched in rings of growing
// Chebyshev cell distance. Shared by the grid-kNN knowledge sets
// (overlay/grid_knn) and the groups layer's rendezvous lookup
// (GroupManager::nearest_to): both find the nearest peers to a point by
// visiting its neighbourhood instead of every peer.
//
// Certification rule for callers: after the rings 0..r around a point's
// cell have been visited, every unvisited point lies at least r cell widths
// (r * min_width) away along some axis, i.e. at L-inf distance >= that
// gap — and so at L1 or L2 distance >= it too. It decides when to stop
// walking rings.
//
// Pruning rule (grid_knn): inside a visited ring, a bucket may be skipped
// when a lower bound on the distance of every point in it is strictly
// greater than the current k-th best. grid_knn takes that bound from the
// bucket's own points (their bounding box), not from the nominal cell
// extent, so floating-point binning at cell borders cannot break it; the
// strict comparison keeps every point that could tie.
//
// The ring walk keeps its counters in fixed kMaxDims arrays: a ring visit
// or a nearest_l1 lookup allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <span>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/point.hpp"
#include "overlay/peer.hpp"

namespace geomcast::overlay {

/// Uniform bucket grid over the point set's bounding box: m cells per
/// axis, m chosen for a small constant expected occupancy.
struct BucketGrid {
  /// Cell coordinates of a point, one per axis (the first `dims` are used).
  using Cell = std::array<std::size_t, geometry::kMaxDims>;

  std::size_t dims = 0;
  std::size_t m = 1;               // cells per axis
  double min_width = 1.0;          // narrowest cell extent across axes
  std::vector<double> lo, hi;      // per-axis box minimum / maximum
  std::vector<double> width;       // per-axis cell extent (> 0)
  // Buckets in compressed rows: bucket b (row-major over m^dims cells)
  // holds ids[start[b] .. start[b+1]), ascending.
  std::vector<std::size_t> start;
  std::vector<PeerId> ids;

  /// Buckets `points` by id (ascending within each bucket). An empty point
  /// set yields an empty grid (dims == 0, no cells).
  explicit BucketGrid(const std::vector<geometry::Point>& points);

  [[nodiscard]] std::size_t axis_cell(const geometry::Point& p, std::size_t a) const {
    const auto c = static_cast<std::ptrdiff_t>((p[a] - lo[a]) / width[a]);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(m) - 1));
  }

  [[nodiscard]] Cell cell_of(const geometry::Point& p) const {
    Cell cell{};
    for (std::size_t a = 0; a < dims; ++a) cell[a] = axis_cell(p, a);
    return cell;
  }

  [[nodiscard]] std::size_t bucket_of(const geometry::Point& p) const {
    std::size_t idx = 0;
    for (std::size_t a = 0; a < dims; ++a) idx = idx * m + axis_cell(p, a);
    return idx;
  }

  [[nodiscard]] std::span<const PeerId> bucket(std::size_t b) const {
    return {ids.data() + start[b], start[b + 1] - start[b]};
  }

  /// The id nearest `target` under L1 among those `usable(id)` accepts,
  /// ties to the lowest id; kInvalidPeer when none is usable. `points` must
  /// be the set the grid was built over. Rings are visited outward until
  /// the certification rule rules out every unvisited point; one cell width
  /// of slack absorbs floating-point binning at cell borders, and the
  /// strict comparison leaves no room for an unvisited tie.
  template <typename Usable>
  [[nodiscard]] PeerId nearest_l1(const std::vector<geometry::Point>& points,
                                  const geometry::Point& target, Usable&& usable) const {
    PeerId best = kInvalidPeer;
    double best_dist = 0.0;
    const Cell center = cell_of(target);
    for (std::size_t r = 0; r < m; ++r) {
      for_ring(center, r, [&](std::size_t b) {
        for (const PeerId p : bucket(b)) {
          if (!usable(p)) continue;
          const double dist = geometry::l1_distance(points[p], target);
          if (best == kInvalidPeer || dist < best_dist || (dist == best_dist && p < best)) {
            best = p;
            best_dist = dist;
          }
        }
      });
      if (best != kInvalidPeer && r > 0 && best_dist < static_cast<double>(r - 1) * min_width)
        break;
    }
    return best;
  }

  /// Visits the index of every bucket whose cell coordinates lie at
  /// Chebyshev distance exactly `r` from `center` (distance 0 = the center
  /// cell itself), in row-major order. Offsets are clamped to the grid, so
  /// only in-grid cells are enumerated.
  template <typename Fn>
  void for_ring(const Cell& center, std::size_t r, Fn&& fn) const {
    const auto radius = static_cast<std::ptrdiff_t>(r);
    const auto last = static_cast<std::ptrdiff_t>(m) - 1;
    std::array<std::ptrdiff_t, geometry::kMaxDims> from{}, to{}, offset{};
    for (std::size_t a = 0; a < dims; ++a) {
      const auto c = static_cast<std::ptrdiff_t>(center[a]);
      from[a] = std::max(-radius, -c);
      to[a] = std::min(radius, last - c);
      offset[a] = from[a];
    }
    while (true) {
      bool on_ring = false;
      std::size_t idx = 0;
      for (std::size_t a = 0; a < dims; ++a) {
        on_ring = on_ring || std::abs(offset[a]) == radius;
        idx = idx * m +
              static_cast<std::size_t>(static_cast<std::ptrdiff_t>(center[a]) + offset[a]);
      }
      if (on_ring) fn(idx);
      // Mixed-radix increment over the clamped box [from, to].
      std::size_t a = dims;
      while (true) {
        if (a == 0) return;  // wrapped the whole counter
        --a;
        if (++offset[a] <= to[a]) break;
        offset[a] = from[a];
      }
    }
  }
};

}  // namespace geomcast::overlay
