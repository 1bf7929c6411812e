#include "overlay/bucket_grid.hpp"

#include <cmath>
#include <limits>

namespace geomcast::overlay {

BucketGrid::BucketGrid(const std::vector<geometry::Point>& points) {
  if (points.empty()) return;
  dims = points.front().dims();
  const std::size_t n = points.size();
  // ~2 points per cell keeps ring scans short without blowing up the
  // cell count; one cell per axis would degenerate to brute force.
  const double per_axis =
      std::pow(static_cast<double>(n) / 2.0, 1.0 / static_cast<double>(dims));
  m = std::max<std::size_t>(1, static_cast<std::size_t>(per_axis));
  // Guard the bucket count: m^dims cells must stay O(n).
  while (m > 1 && std::pow(static_cast<double>(m), static_cast<double>(dims)) >
                      2.0 * static_cast<double>(n))
    --m;

  lo.assign(dims, std::numeric_limits<double>::infinity());
  hi.assign(dims, -std::numeric_limits<double>::infinity());
  for (const auto& p : points)
    for (std::size_t a = 0; a < dims; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  width.resize(dims);
  min_width = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < dims; ++a) {
    const double extent = hi[a] - lo[a];
    width[a] = extent > 0.0 ? extent / static_cast<double>(m) : 1.0;
    min_width = std::min(min_width, width[a]);
  }

  std::size_t bucket_count = 1;
  for (std::size_t a = 0; a < dims; ++a) bucket_count *= m;
  // Counting sort by bucket; filling in id order keeps each bucket ascending.
  std::vector<std::size_t> of(n);
  start.assign(bucket_count + 1, 0);
  for (PeerId p = 0; p < n; ++p) ++start[(of[p] = bucket_of(points[p])) + 1];
  for (std::size_t b = 0; b < bucket_count; ++b) start[b + 1] += start[b];
  ids.resize(n);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (PeerId p = 0; p < n; ++p) ids[fill[of[p]]++] = p;
}

}  // namespace geomcast::overlay
