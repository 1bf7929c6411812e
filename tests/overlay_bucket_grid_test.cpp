#include "overlay/bucket_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

/// The reference the ring search must reproduce: a linear scan in id order
/// keeping the first strict L1 minimum, i.e. ties go to the lowest id.
PeerId brute_nearest_l1(const std::vector<geometry::Point>& points,
                        const geometry::Point& target, const std::vector<bool>& alive,
                        const std::vector<PeerId>& exclude) {
  PeerId best = kInvalidPeer;
  double best_dist = 0.0;
  for (PeerId p = 0; p < points.size(); ++p) {
    if (!alive[p] || std::find(exclude.begin(), exclude.end(), p) != exclude.end()) continue;
    const double dist = geometry::l1_distance(points[p], target);
    if (best == kInvalidPeer || dist < best_dist) {
      best = p;
      best_dist = dist;
    }
  }
  return best;
}

TEST(BucketGridTest, BucketsPartitionIdsAscending) {
  util::Rng rng(7);
  const auto points = geometry::random_points(rng, 500, 3, 100.0);
  const BucketGrid grid(points);
  std::vector<PeerId> seen;
  for (std::size_t b = 0; b + 1 < grid.start.size(); ++b) {
    const auto bucket = grid.bucket(b);
    EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end())) << "bucket " << b;
    for (const PeerId p : bucket) {
      EXPECT_EQ(grid.bucket_of(points[p]), b) << "peer " << p;
      seen.push_back(p);
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), points.size());
  for (PeerId p = 0; p < seen.size(); ++p) EXPECT_EQ(seen[p], p);
}

TEST(BucketGridTest, NearestL1MatchesBruteForceScan) {
  std::size_t checked = 0;
  for (const std::size_t dims : {2u, 3u}) {
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
      util::Rng rng(seed);
      auto points = geometry::random_points(rng, 400, dims, 100.0);
      if (seed % 2 == 0) {
        // Integer lattice: distinct points at exactly equal L1 distance
        // land in different buckets, so the tie-break cannot lean on the
        // scan order.
        for (auto& point : points)
          for (std::size_t a = 0; a < dims; ++a) point[a] = std::floor(point[a] / 10.0);
      }
      // Duplicate coordinates: a quarter of the peers sit exactly on an
      // earlier peer, so exact ties must fall to the lowest id.
      for (PeerId p = 300; p < points.size(); ++p)
        points[p] = points[rng.next_below(300)];
      const BucketGrid grid(points);
      for (const double density : {1.0, 0.3, 0.02}) {
        for (int trial = 0; trial < 60; ++trial) {
          std::vector<bool> alive(points.size());
          for (PeerId p = 0; p < points.size(); ++p)
            alive[p] = rng.uniform(0.0, 1.0) < density;
          std::vector<PeerId> exclude;
          const std::size_t excluded = rng.next_below(6);
          for (std::size_t i = 0; i < excluded; ++i)
            exclude.push_back(static_cast<PeerId>(rng.next_below(points.size())));
          // Targets inside the box, on a peer (zero-distance ties with its
          // duplicates; every other time that peer itself is excluded), or
          // outside the box (clamped to the edge cells).
          geometry::Point target(dims);
          const int kind = trial % 3;
          if (kind == 1) {
            const auto on = static_cast<PeerId>(rng.next_below(points.size()));
            target = points[on];
            if (trial % 2 == 0) exclude.push_back(on);
          } else {
            // Inside the box, or outside it; on the lattice, whole numbers.
            for (std::size_t a = 0; a < dims; ++a) {
              const double at =
                  kind == 0 ? rng.uniform(0.0, 100.0) : rng.uniform(-50.0, 150.0);
              target[a] = seed % 2 == 0 ? std::floor(at / 10.0) : at;
            }
          }
          const PeerId want = brute_nearest_l1(points, target, alive, exclude);
          const PeerId got = grid.nearest_l1(points, target, [&](PeerId p) {
            return alive[p] && std::find(exclude.begin(), exclude.end(), p) == exclude.end();
          });
          ASSERT_EQ(got, want) << "dims " << dims << " seed " << seed << " density "
                               << density << " trial " << trial;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 4u * 3u * 60u);
}

TEST(BucketGridTest, NearestL1WithNothingUsable) {
  util::Rng rng(21);
  const auto points = geometry::random_points(rng, 50, 2, 10.0);
  const BucketGrid grid(points);
  EXPECT_EQ(grid.nearest_l1(points, points[3], [](PeerId) { return false; }), kInvalidPeer);
  EXPECT_EQ(grid.nearest_l1(points, points[3], [](PeerId p) { return p == 49; }), 49u);
}

TEST(BucketGridTest, EmptyPointSet) {
  const BucketGrid grid(std::vector<geometry::Point>{});
  EXPECT_EQ(grid.dims, 0u);
  EXPECT_TRUE(grid.ids.empty());
}

}  // namespace
}  // namespace geomcast::overlay
