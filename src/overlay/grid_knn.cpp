#include "overlay/grid_knn.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/distance.hpp"
#include "overlay/bucket_grid.hpp"

namespace geomcast::overlay {

std::vector<std::vector<PeerId>> grid_knn(const std::vector<geometry::Point>& points,
                                          std::size_t k) {
  const std::size_t n = points.size();
  if (n == 0) return {};
  if (k == 0) throw std::invalid_argument("grid_knn: k must be >= 1");
  const BucketGrid grid(points);

  std::vector<std::vector<PeerId>> result(n);
  std::vector<std::pair<double, PeerId>> found;  // (squared distance, id)
  std::vector<std::size_t> center(grid.dims);
  for (PeerId p = 0; p < n; ++p) {
    found.clear();
    for (std::size_t a = 0; a < grid.dims; ++a)
      center[a] = grid.axis_cell(points[p], a);
    for (std::size_t r = 0; r <= grid.m; ++r) {
      grid.for_ring(center, r, [&](std::span<const PeerId> cell) {
        for (const PeerId q : cell) {
          if (q == p) continue;
          found.emplace_back(geometry::l2_distance_sq(points[p], points[q]), q);
        }
      });
      // Certification: every unseen point sits in a cell at Chebyshev
      // cell-distance >= r+1, hence at least r whole cells — r*min_width
      // of coordinate gap — away along some axis. Once the kth-best
      // candidate is closer than that, no later ring can displace it.
      if (found.size() >= k) {
        std::nth_element(found.begin(), found.begin() + (k - 1), found.end());
        const double bound = static_cast<double>(r) * grid.min_width;
        if (found[k - 1].first <= bound * bound) break;
      }
    }
    std::sort(found.begin(), found.end());
    if (found.size() > k) found.resize(k);
    result[p].reserve(found.size());
    for (const auto& [d, q] : found) result[p].push_back(q);
  }
  return result;
}

OverlayGraph build_equilibrium_local(const std::vector<geometry::Point>& points,
                                     const NeighborSelector& selector, std::size_t k) {
  const std::size_t n = points.size();
  std::vector<std::vector<PeerId>> out(n);
  if (n <= 1) return OverlayGraph(points, std::move(out));
  const auto knowledge = grid_knn(points, k);
  std::vector<Candidate> candidates;
  for (PeerId p = 0; p < n; ++p) {
    candidates.clear();
    candidates.reserve(knowledge[p].size());
    for (const PeerId q : knowledge[p]) candidates.push_back({q, points[q]});
    out[p] = selector.select(points[p], candidates);
  }
  return OverlayGraph(points, std::move(out));
}

}  // namespace geomcast::overlay
