// Cloud-lease scenario — the paper's first motivation for §3: "the nodes
// are applications running on virtual machines which are leased for fixed
// periods of time", so every node knows exactly when it will leave.
//
// A fleet of VMs with staggered lease expirations forms an Orthogonal-
// Hyperplanes(K) overlay with x(P,1) = lease expiry. We build the
// stability-optimised dissemination tree, then play the lease expirations
// forward and compare against a lease-oblivious random spanning tree:
// the stable tree never strands a VM, the baseline orphans whole subtrees.
//
// Run:  ./cloud_leases [--vms=400] [--dims=3] [--k=3] [--seed=11]
#include <iostream>
#include <stdexcept>

#include "analysis/graph_metrics.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/hyperplane_k.hpp"
#include "stability/churn.hpp"
#include "stability/lifetime.hpp"
#include "stability/random_parent.hpp"
#include "stability/stable_tree.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  const util::Flags flags(argc, argv);
  const auto vms = static_cast<std::size_t>(flags.get_int("vms", 400));
  const auto dims = static_cast<std::size_t>(flags.get_int("dims", 3));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 3));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  try {
    flags.reject_unread();
  } catch (const std::invalid_argument& error) {
    std::cerr << "cloud_leases: " << error.what() << '\n';
    return 1;
  }

  // Leases expire uniformly over the next 1000 minutes; the expiry time is
  // each VM's first virtual coordinate, the rest encode rack/zone locality.
  util::Rng rng(seed);
  std::vector<double> lease_expiry;
  const auto points = stability::lifetime_points(rng, vms, dims, 1000.0, lease_expiry);

  const auto selector = overlay::HyperplaneKSelector::orthogonal(dims, k);
  const auto graph = overlay::build_equilibrium(points, selector);
  std::cout << "fleet: " << vms << " VMs, D=" << dims << " (dim 1 = lease expiry), K=" << k
            << ", overlay avg degree " << analysis::degree_stats(graph).avg << "\n\n";

  // §3 tree: every VM forwards updates toward the VM whose lease lasts
  // longest among its neighbours.
  const auto stable = stability::build_stable_tree(graph, lease_expiry);
  std::cout << "stable tree: " << (stable.is_single_tree() ? "single tree" : "FOREST")
            << ", rooted at VM with latest expiry, diameter "
            << stability::tree_diameter(stable) << ", max degree " << stable.max_degree()
            << "\n";

  const auto stable_churn = stability::simulate_departures(stable.parent, lease_expiry);
  std::cout << "  lease expirations: " << stable_churn.departures << ", disruptive: "
            << stable_churn.disruptive_departures << ", VMs stranded: "
            << stable_churn.total_orphaned << "\n\n";

  // Lease-oblivious baseline on the same overlay.
  util::Rng tree_rng = rng.derive(1);
  const auto random_parent = stability::build_random_spanning_tree(graph, tree_rng);
  const auto random_churn = stability::simulate_departures(random_parent, lease_expiry);
  const auto repaired =
      stability::simulate_departures_with_repair(graph, random_parent, lease_expiry);
  std::cout << "random spanning tree (lease-oblivious baseline):\n"
            << "  disruptive expirations: " << random_churn.disruptive_departures
            << ", VMs stranded: " << random_churn.total_orphaned
            << ", worst single event: " << random_churn.max_orphaned_at_once << "\n"
            << "  with on-line repair: " << repaired.reattached << " reattached, "
            << repaired.repair_failures << " unrecoverable\n\n";

  const bool ok = stable_churn.departures_always_leaves();
  std::cout << (ok ? "OK: no lease expiration ever disconnected the stable tree.\n"
                   : "FAILURE: stable tree lost VMs!\n");
  return ok ? 0 : 1;
}
