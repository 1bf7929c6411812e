// The multicast tree produced by a construction run: parent/children links
// over the peer set, plus the basic shape metrics the paper reports
// (longest root-to-leaf path, per-peer tree degree).
//
// Storage is one node entry per reached peer, found through a peer->slot
// hash index (overlay::PeerMap): a group tree spanning m of n peers costs
// O(m) memory and O(m) to copy, and removing a leaf frees its entry.
// Unreached peers have no entry; the accessors answer for them as if they
// did (no parent, no children).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "overlay/peer.hpp"
#include "overlay/peer_map.hpp"

namespace geomcast::multicast {

using overlay::PeerId;
using overlay::kInvalidPeer;

class MulticastTree {
 public:
  MulticastTree() = default;
  MulticastTree(std::size_t peer_count, PeerId root);

  [[nodiscard]] std::size_t peer_count() const noexcept { return peer_count_; }
  [[nodiscard]] PeerId root() const noexcept { return root_; }

  /// Links `child` under `parent`; both must be in range, `child` must not
  /// already have a parent (throws std::logic_error — a duplicate delivery
  /// is a protocol bug the validator reports separately).
  void add_edge(PeerId parent, PeerId child);

  /// Detaches `leaf` (must be reached, childless, and not the root) and
  /// frees its entry. Used by the groups subsystem to cascade relay-only
  /// branches away after an unsubscribe.
  void remove_leaf(PeerId leaf);

  /// Moves `child` (with its whole subtree) under `new_parent`, which must
  /// be reached and must not lie inside `child`'s subtree (a cycle would
  /// silently detach the subtree from the root — checked, throws).
  /// Used by churn repair.
  void reattach(PeerId child, PeerId new_parent);

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (every peer is in its own subtree). Walks parent links upward.
  [[nodiscard]] bool in_subtree(PeerId ancestor, PeerId descendant) const;

  // Peer-indexed accessors throw std::out_of_range past peer_count().
  [[nodiscard]] bool reached(PeerId p) const { return node(p) != nullptr; }
  [[nodiscard]] std::size_t reached_count() const noexcept { return nodes_.size(); }
  /// kInvalidPeer for the root and for unreached peers.
  [[nodiscard]] PeerId parent(PeerId p) const {
    const Node* n = node(p);
    return n != nullptr ? n->parent : kInvalidPeer;
  }
  [[nodiscard]] const std::vector<PeerId>& children(PeerId p) const {
    const Node* n = node(p);
    return n != nullptr ? n->children : kNoChildren;
  }
  /// The reached peers, one per stored entry (dense order, not ascending).
  [[nodiscard]] const std::vector<PeerId>& nodes() const noexcept { return nodes_.keys(); }
  /// Number of tree edges (= messages sent by the space-partition scheme).
  [[nodiscard]] std::size_t edge_count() const noexcept { return nodes_.size() - 1; }

  /// Tree degree: children + 1 for the parent link (root has no parent).
  [[nodiscard]] std::size_t tree_degree(PeerId p) const;

  /// Depth of every reached peer (root = 0); kUnreachedDepth otherwise.
  static constexpr std::size_t kUnreachedDepth = static_cast<std::size_t>(-1);
  [[nodiscard]] std::vector<std::size_t> depths() const;

  /// Longest root-to-leaf path, in edges (the paper's Fig 1b metric).
  [[nodiscard]] std::size_t max_root_to_leaf_path() const;

  /// Maximum tree degree over reached peers (paper: bounded by 2^D children
  /// for the orthogonal-region construction).
  [[nodiscard]] std::size_t max_tree_degree() const;
  [[nodiscard]] std::size_t max_children() const;

 private:
  struct Node {
    PeerId parent = kInvalidPeer;
    std::vector<PeerId> children;
  };
  static const std::vector<PeerId> kNoChildren;

  [[nodiscard]] const Node* node(PeerId p) const {
    if (p >= peer_count_) throw std::out_of_range("MulticastTree: peer out of range");
    return nodes_.find(p);
  }
  /// The node of `p`, which must be reached.
  [[nodiscard]] Node& at(PeerId p) { return *nodes_.find(p); }
  void unlink(PeerId child);

  PeerId root_ = kInvalidPeer;
  std::size_t peer_count_ = 0;
  overlay::PeerMap<Node> nodes_;
};

}  // namespace geomcast::multicast
