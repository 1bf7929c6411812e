// The timer-wheel event queue must pop in exact (time, insertion-sequence)
// order. The reference is test-local: every schedule is recorded as a
// (when, insertion index) pair, and since nothing is ever scheduled before
// the last popped time, the expected pop order is simply the surviving
// pairs sorted. These tests drive the wheel through ties, cancels, mid-run
// rescheduling, rung boundaries and the overflow rung, plus the
// wheel-specific edge paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace geomcast::sim {
namespace {

using PopLog = std::vector<std::pair<SimTime, int>>;

/// Schedules through the queue and keeps the reference record: each event
/// logs its (when, insertion index) pair when it runs, then runs its
/// optional follow-up with that index.
class Recorder {
 public:
  explicit Recorder(EventQueue& queue) : queue_(queue) {}

  void schedule(SimTime when, std::function<void(std::size_t)> then = {}) {
    const std::size_t index = scheduled_.size();
    scheduled_.emplace_back(when, static_cast<int>(index));
    cancelled_.push_back(false);
    ran_.push_back(false);
    ids_.push_back(queue_.schedule(when, [this, when, index, then = std::move(then)] {
      popped_.emplace_back(when, static_cast<int>(index));
      ran_[index] = true;
      if (then) then(index);
    }));
  }
  /// Cancels the event with insertion index `index`; the queue's verdict
  /// must match whether the event was still pending.
  void cancel(std::size_t index) {
    const bool pending = !ran_[index] && !cancelled_[index];
    EXPECT_EQ(queue_.cancel(ids_[index]), pending) << "cancel of event " << index;
    if (pending) cancelled_[index] = true;
  }
  [[nodiscard]] std::size_t size() const { return scheduled_.size(); }
  [[nodiscard]] std::size_t live() const {
    std::size_t live = 0;
    for (std::size_t i = 0; i < size(); ++i) live += !ran_[i] && !cancelled_[i];
    return live;
  }
  [[nodiscard]] const PopLog& popped() const { return popped_; }
  /// The reference pop order: the surviving pairs, sorted.
  [[nodiscard]] PopLog expected() const {
    PopLog order;
    for (std::size_t i = 0; i < size(); ++i)
      if (!cancelled_[i]) order.push_back(scheduled_[i]);
    std::sort(order.begin(), order.end());
    return order;
  }

 private:
  EventQueue& queue_;
  PopLog scheduled_;
  std::vector<bool> cancelled_;
  std::vector<bool> ran_;
  std::vector<EventId> ids_;
  PopLog popped_;
};

TEST(SimTimerWheel, RandomizedPopOrderMatchesSortedReference) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    EventQueue wheel;
    Recorder rec(wheel);
    util::Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
      // Mix of sub-tick clusters (forces ties and shared buckets), the
      // rung-0/rung-1 span, and a tail beyond the coarse horizon.
      double when;
      const double roll = rng.next_double();
      if (roll < 0.5) {
        when = rng.uniform(0.0, 1.0);
      } else if (roll < 0.8) {
        when = rng.uniform(0.0, 120.0);
      } else if (roll < 0.9) {
        when = 0.25;  // exact ties: insertion order must break them
      } else {
        when = rng.uniform(4000.0, 20000.0);  // overflow rung
      }
      rec.schedule(when);
      // Cancel a random earlier event now and then (repeats included: a
      // second cancel must report false).
      if (i > 0 && rng.chance(0.3))
        rec.cancel(static_cast<std::size_t>(rng.next_below(rec.size())));
    }

    ASSERT_EQ(wheel.pending(), rec.live());
    SimTime last = 0.0;
    while (wheel.run_next()) {
      ASSERT_GE(wheel.last_popped_time(), last);
      last = wheel.last_popped_time();
      ASSERT_EQ(last, rec.popped().back().first);
    }
    EXPECT_EQ(rec.popped(), rec.expected());
    EXPECT_TRUE(wheel.empty());
  }
}

TEST(SimTimerWheel, TiesPopInInsertionOrder) {
  EventQueue wheel;
  PopLog log;
  // Same instant, scheduled out of a larger interleaving; insertion
  // sequence must decide.
  for (int i = 0; i < 8; ++i)
    wheel.schedule(3.125, [&log, i] { log.emplace_back(3.125, i); });
  while (wheel.run_next()) {
  }
  const PopLog expected = {{3.125, 0}, {3.125, 1}, {3.125, 2}, {3.125, 3},
                           {3.125, 4}, {3.125, 5}, {3.125, 6}, {3.125, 7}};
  EXPECT_EQ(log, expected);
}

TEST(SimTimerWheel, MidRunReschedulingMatchesSortedReference) {
  // Actions that schedule follow-ups (the retransmit-timer pattern) and
  // cancel a neighbour mid-run. Every follow-up lands at or after the
  // current time with a larger insertion index, so the sorted reference
  // still fixes the whole pop order.
  EventQueue wheel;
  Recorder rec(wheel);
  util::Rng rng(99);
  std::vector<int> depth_of;
  std::function<void(std::size_t)> grow = [&](std::size_t index) {
    if (depth_of[index] < 6) {
      depth_of.push_back(depth_of[index] + 1);
      rec.schedule(wheel.last_popped_time() + rng.uniform(0.001, 0.4), grow);
    }
    if (rng.chance(0.1) && index + 1 < rec.size()) rec.cancel(index + 1);
  };
  for (int i = 0; i < 64; ++i) {
    depth_of.push_back(0);
    rec.schedule(rng.uniform(0.0, 2.0), grow);
  }
  while (wheel.run_next()) {
  }
  EXPECT_EQ(rec.popped(), rec.expected());
  EXPECT_GT(rec.size(), 64u * 3);
}

TEST(SimTimerWheel, RungBoundariesMatchSortedReference) {
  // Times placed exactly on, and one ulp either side of, the rung-0 bucket
  // edges, the rung-0 span edges and the coarse horizon, scheduled in
  // reverse so the wheel has to sort and cascade every boundary.
  constexpr double kSpan0 = EventQueue::kWheelTick * EventQueue::kFineBuckets;
  const double horizon = kSpan0 * EventQueue::kCoarseBuckets;
  std::vector<double> edges;
  for (const double edge : {EventQueue::kWheelTick, 7 * EventQueue::kWheelTick, kSpan0,
                            2 * kSpan0, 100 * kSpan0, horizon, 2 * horizon}) {
    edges.push_back(std::nextafter(edge, 0.0));
    edges.push_back(edge);
    edges.push_back(std::nextafter(edge, std::numeric_limits<double>::infinity()));
  }
  EventQueue wheel;
  Recorder rec(wheel);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    rec.schedule(*it);
    rec.schedule(*it);  // a tie on every edge
  }
  while (wheel.run_next()) {
  }
  EXPECT_EQ(rec.popped(), rec.expected());
}

TEST(SimTimerWheel, OverflowRungDrainsThroughWheel) {
  // Events past the coarse horizon park in the overflow heap and must still
  // come out in global order once the cascade reaches them.
  constexpr double kSpan0 = EventQueue::kWheelTick * EventQueue::kFineBuckets;
  const double horizon = kSpan0 * EventQueue::kCoarseBuckets;
  EventQueue wheel;
  PopLog log;
  const std::vector<double> times = {horizon * 3.0, 0.5, horizon + 1.0,
                                     horizon + 1.0, kSpan0 * 2.0, horizon * 3.0};
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double when = times[i];
    wheel.schedule(when, [&log, when, i] { log.emplace_back(when, static_cast<int>(i)); });
  }
  while (wheel.run_next()) {
  }
  const PopLog expected = {{0.5, 1},
                           {kSpan0 * 2.0, 4},
                           {horizon + 1.0, 2},
                           {horizon + 1.0, 3},
                           {horizon * 3.0, 0},
                           {horizon * 3.0, 5}};
  EXPECT_EQ(log, expected);
}

TEST(SimTimerWheel, ScheduleBehindPeekedBoundaryStillPopsInOrder) {
  // next_time() advances the cascade cursor; a subsequent schedule near the
  // (much older) clock lands behind the boundary and must still pop first.
  EventQueue wheel;
  PopLog log;
  wheel.schedule(500.0, [&log] { log.emplace_back(500.0, 1); });
  EXPECT_DOUBLE_EQ(wheel.next_time(), 500.0);  // cascades far ahead
  wheel.schedule(0.25, [&log] { log.emplace_back(0.25, 0); });
  wheel.schedule(499.0, [&log] { log.emplace_back(499.0, 2); });
  EXPECT_DOUBLE_EQ(wheel.next_time(), 0.25);
  while (wheel.run_next()) {
  }
  const PopLog expected = {{0.25, 0}, {499.0, 2}, {500.0, 1}};
  EXPECT_EQ(log, expected);
}

TEST(SimTimerWheel, ScheduleBehindPeekedCursorInsideRungZero) {
  // A peek moves the fine cursor to the earliest bucket; a schedule into
  // an earlier bucket of the same cascaded range must pull the cursor
  // back instead of being found one ring revolution late.
  EventQueue wheel;
  Recorder rec(wheel);
  rec.schedule(0.5);
  EXPECT_DOUBLE_EQ(wheel.next_time(), 0.5);
  rec.schedule(0.3);
  rec.schedule(0.3 + EventQueue::kWheelTick * EventQueue::kFineBuckets);
  EXPECT_DOUBLE_EQ(wheel.next_time(), 0.3);
  while (wheel.run_next()) {
  }
  EXPECT_EQ(rec.popped(), rec.expected());
}

TEST(SimTimerWheel, CancelHeavyWheelIsCompacted) {
  EventQueue wheel;
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i)
    ids.push_back(wheel.schedule(0.001 * i, [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) wheel.cancel(ids[i]);
  EXPECT_EQ(wheel.pending(), 2048u);
  // Corpses never exceed half the stored entries (plus the small floor).
  EXPECT_LE(wheel.heap_size(), std::max<std::size_t>(2 * wheel.pending(), 64));
  std::size_t ran = 0;
  while (wheel.run_next()) ++ran;
  EXPECT_EQ(ran, 2048u);
}

TEST(SimTimerWheel, ErrorsOnEmptyPastAndUnknown) {
  EventQueue wheel;
  EXPECT_THROW(static_cast<void>(wheel.next_time()), std::logic_error);
  EXPECT_FALSE(wheel.run_next());
  EXPECT_THROW(wheel.schedule(1.0, nullptr), std::invalid_argument);
  wheel.schedule(1.0, [] {});
  EXPECT_TRUE(wheel.run_next());
  EXPECT_THROW(wheel.schedule(0.5, [] {}), std::invalid_argument);  // in the past
  EXPECT_FALSE(wheel.cancel(12345));
  EXPECT_TRUE(wheel.empty());
}

TEST(SimTimerWheel, ReschedulingAtLastPoppedTimeIsAllowed) {
  EventQueue wheel;
  PopLog log;
  wheel.schedule(1.0, [&] {
    log.emplace_back(1.0, 0);
    wheel.schedule(1.0, [&log] { log.emplace_back(1.0, 1); });  // same instant
  });
  while (wheel.run_next()) {
  }
  const PopLog expected = {{1.0, 0}, {1.0, 1}};
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace geomcast::sim
