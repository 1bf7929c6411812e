// Reproduces Figure 1 (d): diameter of the §3 stability-optimised multicast
// tree as K varies from 1 to 50, for D = 2..10, N = 1000. The overlay is
// the Orthogonal Hyperplanes(K) topology; x(P,1) = T(P); every peer prefers
// the neighbour with the largest departure time.
//
// Paper shape: diameter is largest at K = 1 and decreases as K grows;
// higher D gives smaller diameters (more orthants => more neighbours =>
// shallower trees). The single_tree / monotone_T columns assert the §3
// structural claims on every row.
//
// Flags: --peers=N --dims=2,...,10 --k-min --k-max --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::StabilitySweepConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.k_min = static_cast<std::size_t>(flags.get_int("k-min", 1));
    config.k_max = static_cast<std::size_t>(flags.get_int("k-max", 50));
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5, 6, 7, 8, 9, 10}))
      config.dims.push_back(static_cast<std::size_t>(d));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.k_max = 8;
      config.dims = {2, 5, 10};
    }
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unread();

    const auto rows = analysis::run_stability_sweep(config);
    const auto table = analysis::stability_table(rows, /*diameter_panel=*/true);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(d): stable-tree diameter vs K ===\n"
                << "N=" << config.peers << ", Orthogonal Hyperplanes(K), preferred = max-T"
                << ", seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nPaper shape check: diameter decreases with K, largest at K=1;\n"
                   "higher D => smaller diameter; single_tree and monotone_T must be\n"
                   "'yes' on every row (the §3 claims).\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fig1d_stable_diameter: " << error.what() << '\n';
    return 1;
  }
}
