// Extension bench (DESIGN.md future-work direction, aligned with the
// paper's reference [2] on multidimensional range search): cost of the
// range-zone multicast as the target rectangle shrinks.
//
// For each target edge length (fraction of VMAX), average over random
// target placements and publishers: peers inside the target, peers
// delivered (must match), relay peers, and request messages — against the
// N-1 cost of a full broadcast.
//
// Flags: --peers=N --dims=D --trials=T --seed=S --csv --quick
#include <iostream>

#include "geometry/random_points.hpp"
#include "multicast/range_multicast.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    const auto peers = static_cast<std::size_t>(
        flags.get_int("peers", flags.get_bool("quick", false) ? 300 : 1000));
    const auto dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    const auto trials = static_cast<std::size_t>(flags.get_int("trials", 50));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unread();

    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, peers, dims);
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});

    util::Table table({"target_edge_frac", "avg_targets", "avg_delivered", "avg_relays",
                       "avg_messages", "full_broadcast", "coverage_ok"});
    for (const double fraction : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
      const double edge = fraction * geometry::kDefaultVmax;
      util::RunningStats targets, delivered, relays, messages;
      bool coverage_ok = true;
      util::Rng trial_rng = rng.derive(static_cast<std::uint64_t>(fraction * 1000));
      for (std::size_t t = 0; t < trials; ++t) {
        geometry::Rect target(dims);
        for (std::size_t d = 0; d < dims; ++d) {
          const double lo = trial_rng.uniform(0.0, geometry::kDefaultVmax - edge);
          target.set_lo(d, lo);
          target.set_hi(d, lo + edge);
        }
        const auto root = static_cast<overlay::PeerId>(trial_rng.next_below(peers));
        const auto result = multicast::build_range_multicast(graph, root, target);
        const auto inside = multicast::peers_inside(graph, target);
        coverage_ok = coverage_ok && result.delivered == inside &&
                      result.duplicate_deliveries == 0;
        targets.add(static_cast<double>(inside));
        delivered.add(static_cast<double>(result.delivered));
        relays.add(static_cast<double>(result.relays));
        messages.add(static_cast<double>(result.request_messages));
      }
      table.begin_row()
          .add_number(fraction, 2)
          .add_number(targets.mean(), 1)
          .add_number(delivered.mean(), 1)
          .add_number(relays.mean(), 1)
          .add_number(messages.mean(), 1)
          .add_integer(static_cast<long long>(peers - 1))
          .add_cell(coverage_ok ? "yes" : "NO");
    }

    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Extension: range-zone multicast cost vs target size ===\n"
                << "N=" << peers << ", D=" << dims << ", " << trials
                << " random targets+publishers per row, seed=" << seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nReading: avg_delivered == avg_targets with coverage_ok=yes (the\n"
                   "pruned recursion never misses a target peer); messages shrink\n"
                   "toward the target population as the region shrinks, versus the\n"
                   "constant N-1 of a full broadcast.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "range_multicast_cost: " << error.what() << '\n';
    return 1;
  }
}
