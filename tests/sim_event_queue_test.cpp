#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace geomcast::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5.0, [&] { order.push_back(1); });
  queue.schedule(5.0, [&] { order.push_back(2); });
  queue.schedule(5.0, [&] { order.push_back(3); });
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.schedule(9.0, [] {});
  queue.schedule(4.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 4.0);
}

TEST(EventQueueTest, NextTimeOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW((void)queue.next_time(), std::logic_error);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const auto id = queue.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(queue.cancel(id));
  while (queue.run_next()) {}
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, CancelAfterRunFails) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(999));
  EXPECT_FALSE(queue.cancel(0));
}

TEST(EventQueueTest, ActionsCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) queue.schedule(queue.last_popped_time() + 1.0, chain);
  };
  queue.schedule(0.0, chain);
  while (queue.run_next()) {}
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(queue.last_popped_time(), 4.0);
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue queue;
  queue.schedule(10.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_THROW(queue.schedule(5.0, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, EmptyActionThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(EventQueueTest, PendingCountsLiveEventsOnly) {
  EventQueue queue;
  const auto a = queue.schedule(1.0, [] {});
  queue.schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_next();
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, CancelHeavyHeapIsCompacted) {
  // Every acked hop cancels its retransmit timer, so reliable traffic
  // cancels most of what it schedules; the queue must shed those corpses
  // instead of carrying them until they surface.
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(queue.schedule(1.0 + 0.001 * i, [] {}));
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (i % 8 != 0) queue.cancel(ids[i]);  // 7/8 cancelled
  EXPECT_EQ(queue.pending(), 128u);
  // Compaction invariant: stale entries never exceed live ones (plus the
  // small floor below which compaction does not bother).
  EXPECT_LE(queue.heap_size(), std::max<std::size_t>(2 * queue.pending(), 64));
  // The survivors still fire, in time order.
  std::size_t fired = 0;
  double last = 0.0;
  while (queue.run_next()) {
    ++fired;
    EXPECT_GE(queue.last_popped_time(), last);
    last = queue.last_popped_time();
  }
  EXPECT_EQ(fired, 128u);
}

TEST(EventQueueTest, CompactionPreservesTieBreakOrder) {
  // Simultaneous events must still run in scheduling order after the
  // queue was compacted around their cancelled neighbours.
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    const int tag = i;
    queue.schedule(1.0, [&order, tag] { order.push_back(tag); });
    doomed.push_back(queue.schedule(1.0, [] {}));
  }
  for (const EventId id : doomed) queue.cancel(id);
  while (queue.run_next()) {}
  ASSERT_EQ(order.size(), 200u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, CancelledHeadSkippedTransparently) {
  EventQueue queue;
  std::vector<int> order;
  const auto first = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.cancel(first);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{2}));
}

}  // namespace
}  // namespace geomcast::sim
