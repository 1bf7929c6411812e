// Grid-accelerated k-nearest-neighbour knowledge sets, and equilibrium
// construction over them.
//
// build_equilibrium runs every peer's selector over the FULL candidate
// set — the paper's full-knowledge I(P) — which is O(n^2) selector input
// and caps simulations around 10^4 peers. The 100k-peer simulator-core
// sweep needs an overlay in seconds, and the paper's own large-scale
// story is local knowledge anyway (§ incremental/gossip): a peer knows a
// neighbourhood, not the world. This module supplies that neighbourhood
// deterministically: I(P) = the k nearest peers under L2, found with a
// uniform bucket grid and an expanding-ring search — O(k) expected per
// query on uniform point sets, O(n·k) for the whole overlay.
//
// The search is exact and cell-pruned. Each query keeps a sorted top-k of
// (squared distance, id) and walks rings of buckets outward (overlay/
// bucket_grid's certification rule decides when to stop); inside a ring it
// skips every bucket whose points' bounding box is strictly farther than
// the current k-th best, and scans the rest from a bucket-ordered flat copy
// of the coordinates. For 3-D uniform points at k = 16 that is ~18 bucket
// scans and ~46 distance evaluations per query instead of all 153 buckets
// of rings 0-2 and ~250 distances; 100k peers take ~0.5 s on a 4-thread
// host (the unpruned scan took 2.3-2.8 s there). Pruning drops only points
// that cannot enter the top k, so the lists equal a brute-force scan's.
//
// Determinism: ties in distance are broken by peer id, so the candidate
// lists — and therefore the selector's output and every seeded experiment
// on top — are a pure function of (points, k). With k >= n-1 the
// knowledge set degenerates to full knowledge and build_equilibrium_local
// reproduces build_equilibrium bit-for-bit (pinned by the unit test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "overlay/graph.hpp"
#include "overlay/selector.hpp"

namespace geomcast::overlay {

/// The k nearest peers to each peer (self excluded), sorted by
/// (L2 distance, id) ascending. Returns fewer than k entries only when
/// the point set is smaller than k+1.
[[nodiscard]] std::vector<std::vector<PeerId>> grid_knn(
    const std::vector<geometry::Point>& points, std::size_t k);

/// build_equilibrium with grid-kNN knowledge sets: each peer's selector
/// sees its k nearest peers instead of everyone. Single-threaded — at
/// O(n·k) the build is seconds even at 100k peers, and thread-count
/// independence is free when there are no threads.
[[nodiscard]] OverlayGraph build_equilibrium_local(
    const std::vector<geometry::Point>& points, const NeighborSelector& selector,
    std::size_t k);

}  // namespace geomcast::overlay
