// Reproduces Figure 1 (b): maximum and average (over all N initiating
// peers) of the longest root-to-leaf path of the space-partitioning
// multicast tree, for D = 2..5, N = 1000 — the paper initiates one
// construction from every peer and reports the per-session longest path.
//
// The `max_children` column checks the in-text claim that the multicast
// tree degree is bounded by the 2^D orthant regions; `invalid` counts
// validator failures (must be 0: N-1 messages, full coverage, disjoint
// zones).
//
// Flags: --peers=N --dims=2,3,4,5 --roots=R (0 = all) --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::Fig1bConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.roots = static_cast<std::size_t>(flags.get_int("roots", 0));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.roots = 50;
    }
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5}))
      config.dims.push_back(static_cast<std::size_t>(d));
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unread();

    const auto rows = analysis::run_fig1b(config);
    const auto table = analysis::fig1b_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(b): longest root-to-leaf multicast path vs dimension ===\n"
                << "N=" << config.peers << ", one session per root ("
                << (config.roots == 0 ? std::string("all peers")
                                      : std::to_string(config.roots) + " roots")
                << "), median-L1 pick, seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nPaper shape check: avg-max < max; paths grow modestly with D;\n"
                   "max_children <= 2^D; invalid must be 0 everywhere.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fig1b_multicast_path: " << error.what() << '\n';
    return 1;
  }
}
