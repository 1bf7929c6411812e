#include "overlay/grid_knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/graph_metrics.hpp"
#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "overlay/bucket_grid.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/k_closest.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

std::vector<std::vector<PeerId>> brute_knn(const std::vector<geometry::Point>& points,
                                           std::size_t k) {
  std::vector<std::vector<PeerId>> result(points.size());
  std::vector<std::pair<double, PeerId>> by_dist;
  for (PeerId p = 0; p < points.size(); ++p) {
    by_dist.clear();
    for (PeerId q = 0; q < points.size(); ++q)
      if (q != p) by_dist.emplace_back(geometry::l2_distance_sq(points[p], points[q]), q);
    const std::size_t keep = std::min(k, by_dist.size());
    std::partial_sort(by_dist.begin(), by_dist.begin() + keep, by_dist.end());
    by_dist.resize(keep);
    for (const auto& [d, q] : by_dist) result[p].push_back(q);
  }
  return result;
}

TEST(GridKnnTest, MatchesBruteForceAcrossDimsAndSeeds) {
  for (const std::size_t dims : {2u, 3u}) {
    for (const std::uint64_t seed : {51u, 52u, 53u}) {
      util::Rng rng(seed);
      const auto points = geometry::random_points(rng, 300, dims, 100.0);
      for (const std::size_t k : {1u, 8u, 16u})
        EXPECT_EQ(grid_knn(points, k), brute_knn(points, k))
            << "dims " << dims << " seed " << seed << " k " << k;
    }
  }
}

/// grid_knn at every k in `ks` against one brute-force pass at the largest:
/// the oracle's lists are sorted, so each smaller k is a prefix.
void expect_matches_brute(const std::vector<geometry::Point>& points,
                          std::initializer_list<std::size_t> ks, const std::string& label) {
  const auto want = brute_knn(points, std::max(ks));
  for (const std::size_t k : ks) {
    const auto got = grid_knn(points, k);
    ASSERT_EQ(got.size(), points.size()) << label;
    for (PeerId p = 0; p < points.size(); ++p) {
      const std::vector<PeerId> prefix(
          want[p].begin(), want[p].begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(k, want[p].size())));
      ASSERT_EQ(got[p], prefix) << label << " k " << k << " peer " << p;
    }
  }
}

// Thousands of points make a grid of ~45 (2-D), ~12 (3-D) and ~4 (5-D)
// cells per axis, so the ring walk and the bucket pruning both engage;
// k = 64 reaches well past the first ring.
TEST(GridKnnTest, MatchesBruteForceAtScale) {
  for (const std::size_t dims : {2u, 3u, 5u}) {
    util::Rng rng(60 + dims);
    const auto points = geometry::random_points(rng, 4000, dims, 1000.0);
    expect_matches_brute(points, {1, 16, 64}, "dims " + std::to_string(dims));
  }
}

// Integer coordinates on a box whose extent is exactly 2m (m = cells per
// axis for 4000 points), so every cell is two units wide and a point on an
// even coordinate sits exactly on a cell border; the lattice also makes
// equal distances (ties by id) common.
TEST(GridKnnTest, MatchesBruteForceOnCellBorders) {
  for (const auto& [dims, m] : {std::pair<std::size_t, std::int64_t>{2, 44}, {3, 12}}) {
    util::Rng rng(70 + dims);
    std::vector<geometry::Point> points(4000, geometry::Point(dims));
    for (auto& point : points)
      for (std::size_t a = 0; a < dims; ++a)
        point[a] = static_cast<double>(rng.uniform_int(0, 2 * m));
    for (std::size_t a = 0; a < dims; ++a) {
      points[0][a] = 0.0;
      points[1][a] = static_cast<double>(2 * m);
    }
    const BucketGrid grid(points);
    ASSERT_EQ(grid.m, static_cast<std::size_t>(m));
    for (std::size_t a = 0; a < dims; ++a) ASSERT_EQ(grid.width[a], 2.0);
    expect_matches_brute(points, {1, 16, 64}, "lattice dims " + std::to_string(dims));
  }
}

// An axis with no extent takes the width = 1.0 fallback, which also sets
// min_width and hence the certification gap. Once with wide real axes
// (min_width = 1.0 from the fallback) and once with narrow ones
// (min_width below 1.0 from the real axes).
TEST(GridKnnTest, MatchesBruteForceWithFlatAxis) {
  for (const double extent : {1000.0, 0.5}) {
    util::Rng rng(80);
    auto points = geometry::random_points(rng, 3000, 3, extent);
    for (auto& point : points) point[1] = 7.0;
    const BucketGrid grid(points);
    ASSERT_EQ(grid.width[1], 1.0);
    expect_matches_brute(points, {1, 16, 64}, "extent " + std::to_string(extent));
  }
}

// A dense cluster plus far outliers: nearly every cell is empty, the
// cluster shares one bucket, and the outliers' neighbours lie many rings
// out.
TEST(GridKnnTest, MatchesBruteForceClusterWithOutliers) {
  for (const std::size_t dims : {2u, 3u}) {
    util::Rng rng(90 + dims);
    auto points = geometry::random_points(rng, 3900, dims, 1.0);
    const auto outliers = geometry::random_points(rng, 100, dims, 1.0e6);
    points.insert(points.end(), outliers.begin(), outliers.end());
    expect_matches_brute(points, {1, 16, 64}, "cluster dims " + std::to_string(dims));
  }
}

// k >= n-1: every list is all other peers, by (distance, id).
TEST(GridKnnTest, MatchesBruteForceWhenKCoversEveryone) {
  util::Rng rng(95);
  const auto points = geometry::random_points(rng, 200, 3, 100.0);
  for (const std::size_t k : {199u, 200u, 500u}) {
    const auto got = grid_knn(points, k);
    EXPECT_EQ(got, brute_knn(points, k)) << "k " << k;
    for (const auto& list : got) EXPECT_EQ(list.size(), 199u);
  }
}

TEST(GridKnnTest, DegenerateInputs) {
  EXPECT_TRUE(grid_knn({}, 4).empty());
  const std::vector<geometry::Point> one{geometry::Point({1.0, 2.0})};
  const auto single = grid_knn(one, 4);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].empty());
}

TEST(GridKnnTest, DuplicatePointsTieBreakById) {
  // Four coincident points: every peer's neighbour list is the other three
  // ids in ascending order, regardless of bucket layout.
  const geometry::Point p({5.0, 5.0});
  const std::vector<geometry::Point> points{p, p, p, p};
  const auto knn = grid_knn(points, 3);
  ASSERT_EQ(knn.size(), 4u);
  EXPECT_EQ(knn[0], (std::vector<PeerId>{1, 2, 3}));
  EXPECT_EQ(knn[2], (std::vector<PeerId>{0, 1, 3}));
}

TEST(GridKnnTest, FullKnowledgeReproducesBuildEquilibrium) {
  // k >= n-1 degenerates to the paper's full-knowledge I(P); the local
  // builder must then agree bit-for-bit with build_equilibrium because
  // selectors are order-independent over their candidate set.
  util::Rng rng(54);
  const auto points = geometry::random_points(rng, 250, 2, 100.0);
  const EmptyRectSelector empty_rect;
  const KClosestSelector k_closest(5);
  for (const NeighborSelector* selector :
       std::initializer_list<const NeighborSelector*>{&empty_rect, &k_closest})
    EXPECT_EQ(build_equilibrium_local(points, *selector, points.size() - 1),
              build_equilibrium(points, *selector))
        << selector->name();
}

TEST(GridKnnTest, LocalKnowledgeOverlayIsConnectedAtModestK) {
  // The 100k simulator-core sweep rides this builder; connectivity at small
  // k is what makes the multicast trees reach every subscriber.
  for (const std::uint64_t seed : {55u, 56u}) {
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, 500, 2, 100.0);
    const auto graph = build_equilibrium_local(points, EmptyRectSelector{}, 16);
    EXPECT_EQ(graph.size(), points.size());
    EXPECT_TRUE(analysis::is_connected(graph)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace geomcast::overlay
