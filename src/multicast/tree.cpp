#include "multicast/tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace geomcast::multicast {

const std::vector<PeerId> MulticastTree::kNoChildren;

MulticastTree::MulticastTree(std::size_t peer_count, PeerId root)
    : root_(root), peer_count_(peer_count) {
  if (root >= peer_count) throw std::invalid_argument("MulticastTree: root out of range");
  nodes_.assign(root, Node{});
}

void MulticastTree::add_edge(PeerId parent, PeerId child) {
  if (parent >= peer_count_ || child >= peer_count_)
    throw std::invalid_argument("MulticastTree::add_edge: peer out of range");
  if (child == root_) throw std::logic_error("MulticastTree::add_edge: root cannot be a child");
  if (nodes_.contains(child))
    throw std::logic_error("MulticastTree::add_edge: child already attached");
  if (!nodes_.contains(parent))
    throw std::logic_error("MulticastTree::add_edge: parent not reached yet");
  nodes_.assign(child, Node{parent, {}});
  at(parent).children.push_back(child);  // after the insert: it may move nodes
}

void MulticastTree::unlink(PeerId child) {
  auto& siblings = at(at(child).parent).children;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), child), siblings.end());
}

void MulticastTree::remove_leaf(PeerId leaf) {
  if (leaf >= peer_count_)
    throw std::invalid_argument("MulticastTree::remove_leaf: peer out of range");
  if (leaf == root_) throw std::logic_error("MulticastTree::remove_leaf: cannot remove root");
  if (!nodes_.contains(leaf))
    throw std::logic_error("MulticastTree::remove_leaf: peer not attached");
  if (!at(leaf).children.empty())
    throw std::logic_error("MulticastTree::remove_leaf: peer has children");
  unlink(leaf);
  nodes_.erase(leaf);
}

void MulticastTree::reattach(PeerId child, PeerId new_parent) {
  if (child >= peer_count_ || new_parent >= peer_count_)
    throw std::invalid_argument("MulticastTree::reattach: peer out of range");
  if (child == root_) throw std::logic_error("MulticastTree::reattach: cannot move root");
  if (!nodes_.contains(child))
    throw std::logic_error("MulticastTree::reattach: child not attached");
  if (!nodes_.contains(new_parent))
    throw std::logic_error("MulticastTree::reattach: new parent not reached");
  if (in_subtree(child, new_parent))
    throw std::logic_error("MulticastTree::reattach: new parent inside child's subtree");
  unlink(child);
  at(child).parent = new_parent;
  at(new_parent).children.push_back(child);
}

bool MulticastTree::in_subtree(PeerId ancestor, PeerId descendant) const {
  PeerId p = descendant;
  while (p != kInvalidPeer) {
    if (p == ancestor) return true;
    if (p == root_) return false;
    p = parent(p);
  }
  return false;
}

std::size_t MulticastTree::tree_degree(PeerId p) const {
  const Node* n = node(p);
  if (n == nullptr) return 0;
  return n->children.size() + (p == root_ ? 0 : 1);
}

std::vector<std::size_t> MulticastTree::depths() const {
  std::vector<std::size_t> depth(peer_count_, kUnreachedDepth);
  if (root_ == kInvalidPeer) return depth;
  depth[root_] = 0;
  // Children edges always point from already-reached parents, so a BFS over
  // the children lists visits peers in non-decreasing depth.
  std::vector<PeerId> frontier{root_};
  std::vector<PeerId> next;
  while (!frontier.empty()) {
    next.clear();
    for (PeerId p : frontier) {
      for (PeerId c : children(p)) {
        depth[c] = depth[p] + 1;
        next.push_back(c);
      }
    }
    frontier.swap(next);
  }
  return depth;
}

std::size_t MulticastTree::max_root_to_leaf_path() const {
  std::size_t best = 0;
  for (std::size_t d : depths())
    if (d != kUnreachedDepth) best = std::max(best, d);
  return best;
}

std::size_t MulticastTree::max_tree_degree() const {
  std::size_t best = 0;
  for (PeerId p : nodes()) best = std::max(best, tree_degree(p));
  return best;
}

std::size_t MulticastTree::max_children() const {
  std::size_t best = 0;
  for (const Node& n : nodes_.values()) best = std::max(best, n.children.size());
  return best;
}

}  // namespace geomcast::multicast
