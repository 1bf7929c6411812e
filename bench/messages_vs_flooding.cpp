// Ablation A1 (DESIGN.md): message cost of constructing one multicast tree.
// The §2 scheme sends exactly N-1 request messages (verified per row); the
// flooding baseline on the same overlay costs 2E - (N-1) — the quantitative
// version of the paper's "send many messages for constructing the tree"
// motivation.
//
// Flags: --peers=N --dims=2,3,4,5 --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::MessageComparisonConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    if (flags.get_bool("quick", false)) config.peers = 200;
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5}))
      config.dims.push_back(static_cast<std::size_t>(d));
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unread();

    const auto rows = analysis::run_message_comparison(config);
    const auto table = analysis::message_comparison_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== A1: construction message cost, space partition vs flooding ===\n"
                << "N=" << config.peers << ", empty-rectangle overlay, seed=" << config.seed
                << "\n\n";
      table.print(std::cout);
      std::cout << "\nClaim check: space_partition_msgs == N-1 on every row; the\n"
                   "flooding overhead factor grows with D (denser overlays).\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "messages_vs_flooding: " << error.what() << '\n';
    return 1;
  }
}
