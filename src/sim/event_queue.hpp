// Deterministic event queue: events fire in (time, id) order, where the
// id is the insertion sequence, so simultaneous events run in the order
// they were scheduled and every run of a seeded simulation is bit-for-bit
// identical.
//
// The queue is a hierarchical timer wheel tuned for the short-horizon
// timers that dominate simulation workloads (per-hop latency, retransmit,
// gap and batch timers). Rung 0 is a ring of fine buckets (kWheelTick
// wide), rung 1 a ring of coarse buckets (one rung-0 span wide each), and
// a compacted binary heap is the long-horizon overflow rung. An insert is
// an O(1) bucket append; pops sort one small bucket at a time by
// (time, id), which yields the global (time, id) order because buckets
// partition the time axis monotonically. Coarse buckets cascade into rung
// 0 when the fine cursor crosses their boundary, and overflow entries
// drain into the wheel the moment the cascade cursor reaches their coarse
// bucket. Each ring keeps an occupancy bitmap (one bit per bucket, set iff
// the bucket stores entries), so sparse workloads — a few thousand events
// spread over a long horizon — skip runs of empty buckets with a word
// scan instead of visiting each bucket.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace geomcast::sim {

using EventId = std::uint64_t;

/// Raw scheduled-callback signature: the fast path for high-frequency
/// event producers. The (fn, ctx, arg) triple is stored as-is — no type
/// erasure, no allocation — so `ctx` must outlive the event (or the event
/// must be cancelled first).
using RawFn = void (*)(void* ctx, std::uint64_t arg);

class EventQueue {
 public:
  EventQueue();

  /// Schedules `action` at absolute time `when`; returns a handle usable
  /// with cancel(). `when` must be >= the last popped time (no scheduling
  /// into the past). Events at equal times pop in id (insertion) order.
  EventId schedule(SimTime when, std::function<void()> action);

  /// Raw-callback overload: identical semantics and pop order, but the
  /// callback is stored as a POD (fn, ctx, arg) triple — the allocation-
  /// and type-erasure-free path for the two producers that dominate event
  /// traffic (envelope delivery, per-hop ack timers).
  EventId schedule(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);

  /// Cancels a pending event; returns false if it already ran, was already
  /// cancelled, or never existed. Lazy removal: the stored entry stays
  /// until its bucket (or the overflow heap's front) is consumed — but once stale
  /// entries outnumber live ones (every acked hop cancels its retransmit
  /// timer, so under reliable traffic most of the queue is corpses), the
  /// storage is compacted in one O(n) pass instead of surfacing each
  /// corpse individually.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return ids_.size(); }
  /// Storage slots currently held, cancelled corpses included — pending()
  /// plus the stale entries compaction has not yet reclaimed (observability
  /// for the compaction tests/bench; always < 2 * pending() + a small floor
  /// after any cancel, by the compaction invariant), summed over all three
  /// rungs.
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return fine_count_ + coarse_count_ + heap_.size();
  }
  /// Time of the earliest pending event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] SimTime last_popped_time() const noexcept { return last_popped_; }

  /// Pops and runs the earliest pending event. Returns false if nothing ran
  /// (queue empty). Cancelled entries are skipped transparently. When
  /// `now_out` is non-null the event's time is written there before its
  /// action runs — the driver's clock advances in the same call, saving a
  /// separate next_time() peek per event on the hot loop.
  bool run_next(SimTime* now_out = nullptr);

  // Wheel geometry, exposed for the unit tests that pin rung-boundary and
  // overflow-drain behaviour.
  static constexpr double kWheelTick = 0.0005;     // rung-0 bucket width (s)
  static constexpr std::size_t kFineBuckets = 2048;    // rung-0 ring size
  static constexpr std::size_t kCoarseBuckets = 4096;  // rung-1 ring size

 private:
  /// What the rungs store and sort: 16 trivially-copyable bytes. The
  /// action lives in the id-indexed slot table instead, so bucket sorts,
  /// heap sift-ups and cascades shuffle PODs — no std::function move (an
  /// indirect _M_manager call) per element hop. The id doubles as the pop
  /// tie-break at equal times.
  struct Entry {
    SimTime when;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t pos = 0;   // consumed prefix
    bool sorted = true;    // [pos, end) in (when, id) order
  };

  /// Event ids are dense and monotonically increasing, so a flat vector
  /// with a sliding base replaces an unordered_map: no per-event node
  /// allocation on the schedule/cancel hot path. A slot is a raw
  /// (fn, ctx, arg) triple — 24 trivially-copyable bytes — so growth
  /// reallocation and prefix trims are memmoves, a pop is a POD copy, and
  /// invocation is one direct call through the stored pointer.
  /// std::function closures still work: they are boxed on the heap and run
  /// through a self-freeing thunk (cancel frees the box too). A live event
  /// is exactly one whose slot holds a non-null fn.
  class ActionTable {
   public:
    struct Slot {
      RawFn fn = nullptr;
      void* ctx = nullptr;
      std::uint64_t arg = 0;
    };

    ActionTable() = default;
    ActionTable(const ActionTable&) = delete;
    ActionTable& operator=(const ActionTable&) = delete;
    ~ActionTable() {
      for (const Slot& slot : slots_) release_box(slot);
    }

    EventId add(RawFn fn, void* ctx, std::uint64_t arg) {
      slots_.push_back(Slot{fn, ctx, arg});
      ++live_;
      return base_ + slots_.size() - 1;
    }
    EventId add(std::function<void()> action) {
      return add(&closure_thunk, new std::function<void()>(std::move(action)), 0);
    }
    /// Cancel: frees a boxed closure immediately (captures release).
    bool erase(EventId id) noexcept {
      if (id < base_) return false;
      const std::size_t off = id - base_;
      if (off >= slots_.size() || slots_[off].fn == nullptr) return false;
      release_box(slots_[off]);
      slots_[off].fn = nullptr;
      --live_;
      return true;
    }
    /// Pop: copies the slot out for invocation (the table may grow while
    /// the callback runs; a boxed closure frees itself after running).
    /// Caller guarantees the id is live.
    [[nodiscard]] Slot take(EventId id) noexcept {
      const Slot slot = slots_[id - base_];
      slots_[id - base_].fn = nullptr;
      --live_;
      return slot;
    }
    [[nodiscard]] bool contains(EventId id) const noexcept {
      return id >= base_ && id - base_ < slots_.size() &&
             slots_[id - base_].fn != nullptr;
    }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    /// Drops a large fully-dead prefix; amortised O(1) per event.
    void trim();

   private:
    static void closure_thunk(void* ctx, std::uint64_t arg);
    static void release_box(const Slot& slot) noexcept {
      if (slot.fn == &closure_thunk)
        delete static_cast<std::function<void()>*>(slot.ctx);
    }

    std::vector<Slot> slots_;
    EventId base_ = 1;
    std::size_t live_ = 0;
  };

  [[nodiscard]] static std::uint64_t fine_index(SimTime when) noexcept {
    return static_cast<std::uint64_t>(when / kWheelTick);
  }

  void dispatch(const Entry& entry, SimTime* now_out);

  void wheel_insert(Entry entry);
  void wheel_place_fine(Entry entry) const;
  /// Locates the earliest live entry, advancing cursors / cascading /
  /// draining overflow as needed; nullptr when nothing is live. The entry
  /// stays stored; wheel_consume_front() removes it.
  [[nodiscard]] Entry* wheel_peek() const;
  Entry wheel_consume_front();
  /// Tears the whole wheel down and re-inserts every live entry — the cold
  /// path for a schedule that lands behind an already-cascaded boundary
  /// (only reachable by peeking far ahead with next_time() and then
  /// scheduling near the old clock).
  void wheel_rebuild(Entry extra);
  void wheel_compact();

  // Ring-occupancy bitmaps: bit set iff the bucket stores entries (dead
  // ones included — they still need visiting to be reclaimed). Lets peek
  // jump over empty-bucket runs with a word scan; maintained at the three
  // places a bucket can empty (drain, consume, compact) plus rebuild.
  void fine_bit(std::uint64_t slot, bool set) const noexcept {
    if (set)
      fine_bits_[slot >> 6] |= 1ULL << (slot & 63);
    else
      fine_bits_[slot >> 6] &= ~(1ULL << (slot & 63));
  }
  void coarse_bit(std::uint64_t slot, bool set) const noexcept {
    if (set)
      coarse_bits_[slot >> 6] |= 1ULL << (slot & 63);
    else
      coarse_bits_[slot >> 6] &= ~(1ULL << (slot & 63));
  }

  ActionTable ids_;
  SimTime last_popped_ = kTimeZero;
  std::uint64_t pops_ = 0;

  // The overflow rung: a min-heap per Later via std::*_heap.
  mutable std::vector<Entry> heap_;

  // Wheel state. Buckets are addressed by absolute index (floor(when /
  // width)) modulo ring size; `fine_cursor_` scans rung 0, and every
  // absolute fine index below `cascaded_` lives in rung 0. `coarse_cursor_`
  // is the next coarse bucket to cascade (cascaded_ == coarse_cursor_ *
  // kFineBuckets). peek() must advance this state from const accessors
  // (next_time()), hence mutable.
  mutable std::vector<Bucket> fine_;
  mutable std::vector<Bucket> coarse_;
  mutable std::vector<std::uint64_t> fine_bits_;
  mutable std::vector<std::uint64_t> coarse_bits_;
  mutable std::uint64_t fine_cursor_ = 0;
  mutable std::uint64_t coarse_cursor_ = 0;
  mutable std::size_t fine_count_ = 0;    // entries stored in rung 0
  mutable std::size_t coarse_count_ = 0;  // entries stored in rung 1
};

}  // namespace geomcast::sim
