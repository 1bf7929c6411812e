#include "overlay/peer_map.hpp"

#include <algorithm>
#include <bit>

namespace geomcast::overlay {

std::vector<PeerId> PeerSet::sorted() const {
  std::vector<PeerId> ids = keys_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t PeerSet::bucket_of(PeerId p) const noexcept {
  std::size_t b = home(p);
  while (keys_[table_[b] - 1] != p) b = (b + 1) & mask();
  return b;
}

void PeerSet::rehash(std::size_t buckets) {
  table_.assign(buckets, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    std::size_t b = home(keys_[i]);
    while (table_[b] != 0) b = (b + 1) & mask();
    table_[b] = static_cast<std::uint32_t>(i + 1);
  }
}

bool PeerSet::insert(PeerId p) {
  if (contains(p)) return false;
  keys_.push_back(p);
  // Load factor <= 1/2 keeps linear-probing chains short.
  if (2 * keys_.size() > table_.size()) {
    rehash(std::max<std::size_t>(16, 2 * table_.size()));
    return true;
  }
  std::size_t b = home(p);
  while (table_[b] != 0) b = (b + 1) & mask();
  table_[b] = static_cast<std::uint32_t>(keys_.size());
  return true;
}

bool PeerSet::erase(PeerId p) {
  const std::size_t i = position(p);
  if (i == kAbsent) return false;
  // Backward-shift deletion: pull every later entry of the probe run that
  // may legally sit in the hole, so lookups never need tombstones.
  std::size_t hole = bucket_of(p);
  table_[hole] = 0;
  for (std::size_t b = (hole + 1) & mask(); table_[b] != 0; b = (b + 1) & mask()) {
    const std::size_t want = home(keys_[table_[b] - 1]);
    if (((b - want) & mask()) >= ((b - hole) & mask())) {
      table_[hole] = table_[b];
      table_[b] = 0;
      hole = b;
    }
  }
  // Keep the key array dense: the last key takes the vacated position.
  const std::size_t last = keys_.size() - 1;
  if (i != last) {
    table_[bucket_of(keys_[last])] = static_cast<std::uint32_t>(i + 1);
    keys_[i] = keys_[last];
  }
  keys_.pop_back();
  return true;
}

void PeerSet::clear() noexcept {
  keys_.clear();
  std::fill(table_.begin(), table_.end(), 0u);
}

}  // namespace geomcast::overlay
