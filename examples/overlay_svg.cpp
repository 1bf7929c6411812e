// Renders a D=2 overlay and one multicast tree as an SVG file — a visual
// sanity check of the empty-rectangle topology and the §2 zone recursion
// (the figure the brief announcement never had room for).
//
//   * grey segments: overlay edges (empty-rectangle rule);
//   * blue segments: multicast tree edges, width decreasing with depth;
//   * red dot: the initiator.
//
// Run:  ./overlay_svg [--peers=120] [--seed=9] [--root=0] [--out=overlay.svg]
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

constexpr double kCanvas = 800.0;
constexpr double kMargin = 20.0;

double scale(double coordinate) {
  return kMargin + coordinate / geomcast::geometry::kDefaultVmax * (kCanvas - 2 * kMargin);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace geomcast;
  const util::Flags flags(argc, argv);
  const auto peers = static_cast<std::size_t>(flags.get_int("peers", 120));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 9));
  const auto root = static_cast<overlay::PeerId>(flags.get_int("root", 0));
  const auto path = flags.get_string("out", "overlay.svg");
  try {
    flags.reject_unread();
  } catch (const std::invalid_argument& error) {
    std::cerr << "overlay_svg: " << error.what() << '\n';
    return 1;
  }

  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, peers, 2);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const auto result = multicast::build_multicast_tree(graph, root);
  const auto depths = result.tree.depths();
  const auto max_depth = result.tree.max_root_to_leaf_path();

  std::ofstream svg(path);
  if (!svg) {
    std::cerr << "overlay_svg: cannot write " << path << '\n';
    return 1;
  }
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='" << kCanvas << "' height='"
      << kCanvas << "' viewBox='0 0 " << kCanvas << " " << kCanvas << "'>\n"
      << "<rect width='100%' height='100%' fill='white'/>\n";

  // Overlay edges underneath.
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    for (overlay::PeerId q : graph.neighbors(p)) {
      if (q < p) continue;
      svg << "<line x1='" << scale(points[p][0]) << "' y1='" << scale(points[p][1])
          << "' x2='" << scale(points[q][0]) << "' y2='" << scale(points[q][1])
          << "' stroke='#cccccc' stroke-width='0.6'/>\n";
    }
  }
  // Tree edges on top, thicker near the root.
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    if (p == root || !result.tree.reached(p)) continue;
    const auto parent = result.tree.parent(p);
    const double width =
        3.0 - 2.0 * static_cast<double>(depths[p]) / static_cast<double>(max_depth ? max_depth : 1);
    svg << "<line x1='" << scale(points[parent][0]) << "' y1='" << scale(points[parent][1])
        << "' x2='" << scale(points[p][0]) << "' y2='" << scale(points[p][1])
        << "' stroke='#2266cc' stroke-width='" << width << "'/>\n";
  }
  // Peers; the initiator in red.
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    svg << "<circle cx='" << scale(points[p][0]) << "' cy='" << scale(points[p][1])
        << "' r='" << (p == root ? 6.0 : 2.5) << "' fill='"
        << (p == root ? "#cc2222" : "#333333") << "'/>\n";
  }
  svg << "</svg>\n";
  svg.close();

  std::cout << "wrote " << path << ": " << peers << " peers, " << graph.edge_count()
            << " overlay edges, tree depth " << max_depth << ", "
            << result.request_messages << " construction messages\n";
  return 0;
}
