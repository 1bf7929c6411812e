// Uniform bucket grid over a point set, searched in rings of growing
// Chebyshev cell distance. Shared by the grid-kNN knowledge sets
// (overlay/grid_knn) and the groups layer's rendezvous lookup
// (GroupManager::nearest_to): both find the nearest peers to a point by
// visiting its neighbourhood instead of every peer.
//
// Certification rule for callers: after the rings 0..r around a point's
// cell have been visited, every unvisited point lies at least r cell widths
// (r * min_width) away along some axis, i.e. at L-inf distance >= that
// gap — and so at L1 or L2 distance >= it too.
#pragma once

#include <algorithm>
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
    std::vector<std::size_t> center(dims);
    for (std::size_t a = 0; a < dims; ++a) center[a] = axis_cell(target, a);
    for (std::size_t r = 0; r < m; ++r) {
      for_ring(center, r, [&](std::span<const PeerId> cell) {
        for (const PeerId p : cell) {
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

  /// Visits every bucket whose cell coordinates lie at Chebyshev distance
  /// exactly `r` from `center` (distance 0 = the center cell itself), as a
  /// std::span<const PeerId>.
  template <typename Fn>
  void for_ring(const std::vector<std::size_t>& center, std::size_t r, Fn&& fn) const {
    std::vector<std::ptrdiff_t> offset(dims, -static_cast<std::ptrdiff_t>(r));
    const auto radius = static_cast<std::ptrdiff_t>(r);
    while (true) {
      std::ptrdiff_t linf = 0;
      bool in_grid = true;
      std::size_t idx = 0;
      for (std::size_t a = 0; a < dims && in_grid; ++a) {
        linf = std::max(linf, std::abs(offset[a]));
        const auto c = static_cast<std::ptrdiff_t>(center[a]) + offset[a];
        if (c < 0 || c >= static_cast<std::ptrdiff_t>(m))
          in_grid = false;
        else
          idx = idx * m + static_cast<std::size_t>(c);
      }
      if (in_grid && linf == radius) fn(bucket(idx));
      // Mixed-radix increment over [-r, r]^dims.
      std::size_t a = dims;
      while (a > 0) {
        --a;
        if (++offset[a] <= radius) break;
        offset[a] = -radius;
        if (a == 0) return;
      }
      if (a == 0 && offset[0] == -radius) return;  // wrapped the whole counter
    }
  }
};

}  // namespace geomcast::overlay
