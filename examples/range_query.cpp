// Geo-targeted publish — the range-zone extension of the §2 algorithm.
//
// A publisher wants to reach only the peers whose virtual coordinates fall
// inside a target hyper-rectangle (think: all caches responsible for one
// region of a keyspace, or all sensors in one corridor of the field). The
// §2 recursion already partitions space into responsibility zones; pruning
// branches whose zone misses the target turns the N-1-message broadcast
// into a range multicast that touches only the target peers plus a short
// relay chain from the publisher.
//
// Run:  ./range_query [--peers=500] [--seed=13] [--lo=20] [--hi=45]
#include <iostream>
#include <stdexcept>

#include "geometry/random_points.hpp"
#include "multicast/range_multicast.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  const util::Flags flags(argc, argv);
  const auto peers = static_cast<std::size_t>(flags.get_int("peers", 500));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 13));
  const double lo = flags.get_double("lo", 200.0);
  const double hi = flags.get_double("hi", 450.0);
  try {
    flags.reject_unread();
  } catch (const std::invalid_argument& error) {
    std::cerr << "range_query: " << error.what() << '\n';
    return 1;
  }

  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, peers, 2);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});

  const auto target = geometry::Rect::cube(2, lo, hi);
  std::cout << "overlay: " << peers << " peers; target region " << target.to_string()
            << " holds " << multicast::peers_inside(graph, target) << " peers\n\n";

  // Publish from three corners of the coordinate space: the relay chain
  // length depends on how far the publisher sits from the region.
  for (overlay::PeerId root : {overlay::PeerId{0}, overlay::PeerId{1},
                               static_cast<overlay::PeerId>(peers / 2)}) {
    const auto result = multicast::build_range_multicast(graph, root, target);
    const bool publisher_inside = target.contains_interior(graph.point(root));
    std::cout << "publisher " << root << " at " << graph.point(root).to_string()
              << (publisher_inside ? " (inside target)" : " (outside target)") << ":\n"
              << "  delivered " << result.delivered << ", relays " << result.relays
              << ", messages " << result.request_messages << " (full broadcast would be "
              << peers - 1 << ")\n";
  }

  std::cout << "\nEvery target peer is reached with zero duplicates; only branches\n"
               "whose responsibility zone intersects the target are explored.\n";
  return 0;
}
