// Member-sized tables keyed by peer id.
//
// A structure that touches m of an overlay's n peers (a group tree, a
// group's membership) should cost O(m) memory and O(m) work to copy, not an
// n-sized array. PeerSet is an open-addressing hash index (linear probing,
// power-of-two table, Fibonacci hashing) over a dense key array; PeerMap
// adds a value array aligned with the keys.
//
// Iteration order is the dense key order: insertion order, except that an
// erase moves the last key into the vacated position. It depends only on
// the sequence of inserts and erases, never on hash values, so it is
// deterministic — but it is not ascending. Callers whose results depend on
// visiting order sort the keys first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "overlay/peer.hpp"

namespace geomcast::overlay {

class PeerSet {
 public:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  /// The members in dense order (see the file comment).
  [[nodiscard]] const std::vector<PeerId>& keys() const noexcept { return keys_; }
  /// The members, ascending.
  [[nodiscard]] std::vector<PeerId> sorted() const;

  /// Dense position of `p`, or kAbsent.
  [[nodiscard]] std::size_t position(PeerId p) const noexcept {
    if (table_.empty()) return kAbsent;
    for (std::size_t b = home(p);; b = (b + 1) & mask()) {
      const std::uint32_t entry = table_[b];
      if (entry == 0) return kAbsent;
      if (keys_[entry - 1] == p) return entry - 1;
    }
  }
  [[nodiscard]] bool contains(PeerId p) const noexcept { return position(p) != kAbsent; }

  /// Appends `p` at position size(); false (and no change) when present.
  bool insert(PeerId p);
  /// Removes `p`, moving the last key into its position; false when absent.
  bool erase(PeerId p);
  void clear() noexcept;

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return table_.size() - 1; }
  [[nodiscard]] std::size_t home(PeerId p) const noexcept {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }
  /// Bucket holding `p` (which must be present).
  [[nodiscard]] std::size_t bucket_of(PeerId p) const noexcept;
  void rehash(std::size_t buckets);

  std::vector<PeerId> keys_;
  std::vector<std::uint32_t> table_;  // dense position + 1; 0 marks an empty bucket
  unsigned shift_ = 64;               // 64 - log2(table_.size())
};

template <typename V>
class PeerMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }
  [[nodiscard]] const std::vector<PeerId>& keys() const noexcept { return index_.keys(); }
  /// Values aligned with keys().
  [[nodiscard]] const std::vector<V>& values() const noexcept { return values_; }

  [[nodiscard]] bool contains(PeerId p) const noexcept { return index_.contains(p); }
  [[nodiscard]] V* find(PeerId p) noexcept {
    const std::size_t i = index_.position(p);
    return i == PeerSet::kAbsent ? nullptr : &values_[i];
  }
  [[nodiscard]] const V* find(PeerId p) const noexcept {
    const std::size_t i = index_.position(p);
    return i == PeerSet::kAbsent ? nullptr : &values_[i];
  }

  /// Sets `p`'s value, inserting it when absent.
  V& assign(PeerId p, V value) {
    if (V* held = find(p)) return *held = std::move(value);
    index_.insert(p);
    return values_.emplace_back(std::move(value));
  }
  /// Removes `p` (mirroring PeerSet's swap with the last entry); false when
  /// absent.
  bool erase(PeerId p) {
    const std::size_t i = index_.position(p);
    if (i == PeerSet::kAbsent) return false;
    index_.erase(p);
    if (i + 1 != values_.size()) values_[i] = std::move(values_.back());
    values_.pop_back();
    return true;
  }

 private:
  PeerSet index_;
  std::vector<V> values_;
};

}  // namespace geomcast::overlay
