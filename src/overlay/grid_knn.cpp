#include "overlay/grid_knn.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "overlay/bucket_grid.hpp"

namespace geomcast::overlay {

std::vector<std::vector<PeerId>> grid_knn(const std::vector<geometry::Point>& points,
                                          std::size_t k) {
  const std::size_t n = points.size();
  if (n == 0) return {};
  if (k == 0) throw std::invalid_argument("grid_knn: k must be >= 1");
  const BucketGrid grid(points);
  const std::size_t dims = grid.dims;
  const std::size_t buckets = grid.start.size() - 1;

  // Bucket-ordered flat coordinates: slot s holds points[grid.ids[s]], so a
  // bucket scan reads one contiguous run of doubles.
  std::vector<double> coords(n * dims);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t a = 0; a < dims; ++a) coords[s * dims + a] = points[grid.ids[s]][a];

  // Per-bucket bounding boxes of the bucket's own points: box[2*dims*b + a]
  // is the lowest coordinate on axis a, box[2*dims*b + dims + a] the highest.
  std::vector<double> box(2 * dims * buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    if (grid.start[b] == grid.start[b + 1]) continue;
    double* lo = &box[2 * dims * b];
    double* hi = lo + dims;
    std::copy_n(&coords[grid.start[b] * dims], dims, lo);
    std::copy_n(&coords[grid.start[b] * dims], dims, hi);
    for (std::size_t s = grid.start[b] + 1; s < grid.start[b + 1]; ++s)
      for (std::size_t a = 0; a < dims; ++a) {
        lo[a] = std::min(lo[a], coords[s * dims + a]);
        hi[a] = std::max(hi[a], coords[s * dims + a]);
      }
  }

  std::vector<std::vector<PeerId>> result(n);
  // The best candidates so far as (squared distance, id), ascending, at
  // most k of them — the same total order the final list is sorted by.
  std::vector<std::pair<double, PeerId>> best;
  best.reserve(std::min(k, n));
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  // Queries run in bucket order so consecutive ones revisit the same,
  // cache-warm neighbourhood; each writes only its own result[p].
  for (std::size_t slot = 0; slot < n; ++slot) {
    const PeerId p = grid.ids[slot];
    const double* q = &coords[slot * dims];
    best.clear();
    double kth = kUnbounded;  // squared distance of the k-th best, once there are k
    const BucketGrid::Cell center = grid.cell_of(points[p]);
    for (std::size_t r = 0; r < grid.m; ++r) {
      grid.for_ring(center, r, [&](std::size_t b) {
        if (grid.start[b] == grid.start[b + 1]) return;
        // Pruning: skip the bucket when even its box is strictly farther
        // than the k-th best. Sound because the bound is computed like
        // geometry::l2_distance_sq — per-axis difference, square, and a sum
        // in axis order starting from 0.0 — and every one of those steps is
        // monotone under round-to-nearest for non-negative operands: for a
        // point x in the box and q below it on axis a, lo[a] <= x[a] gives
        // fl(lo[a] - q[a]) <= fl(x[a] - q[a]), squaring and adding keep that
        // order, and an axis q lies within contributes 0. So the box bound
        // never exceeds the computed distance of any point in the bucket,
        // and `>` (not `>=`) keeps every point that could tie the k-th best
        // and win on id.
        const double* lo = &box[2 * dims * b];
        const double* hi = lo + dims;
        double bound = 0.0;
        for (std::size_t a = 0; a < dims; ++a) {
          // lo - q and q - hi are never both positive; both are <= 0 when
          // q[a] lies within the box.
          const double gap = std::max(0.0, std::max(lo[a] - q[a], q[a] - hi[a]));
          bound += gap * gap;
        }
        if (bound > kth) return;
        for (std::size_t s = grid.start[b]; s < grid.start[b + 1]; ++s) {
          const PeerId id = grid.ids[s];
          if (id == p) continue;
          // Same summation order as geometry::l2_distance_sq(points[p],
          // points[id]), so the doubles — and the ties — match bit for bit.
          const double* x = &coords[s * dims];
          double dist = 0.0;
          for (std::size_t a = 0; a < dims; ++a) {
            const double d = q[a] - x[a];
            dist += d * d;
          }
          const std::pair<double, PeerId> candidate{dist, id};
          if (best.size() == k) {
            if (!(candidate < best.back())) continue;
            best.pop_back();
          }
          best.insert(std::upper_bound(best.begin(), best.end(), candidate), candidate);
          if (best.size() == k) kth = best.back().first;
        }
      });
      // Certification: every unseen point sits in a cell at Chebyshev
      // cell-distance >= r+1, hence at least r whole cells — r*min_width
      // of coordinate gap — away along some axis. Once the kth-best
      // candidate is closer than that, no later ring can displace it.
      // Pruned buckets hold no point that beats the k-th best, so `best`
      // is exactly the top k of every point in rings 0..r.
      const double gap = static_cast<double>(r) * grid.min_width;
      if (best.size() == k && kth <= gap * gap) break;
    }
    result[p].reserve(best.size());
    for (const auto& [d, id] : best) result[p].push_back(id);
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
