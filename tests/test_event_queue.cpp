#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace hp::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsPopInInsertionOrder) {
  EventQueue<std::string> q;
  q.push(1.0, "first");
  q.push(1.0, "second");
  q.push(1.0, "third");
  EXPECT_EQ(q.pop().payload, "first");
  EXPECT_EQ(q.pop().payload, "second");
  EXPECT_EQ(q.pop().payload, "third");
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue<int> q;
  q.push(5.0, 5);
  q.push(1.0, 1);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(2.0, 2);
  q.push(7.0, 7);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.pop().payload, 7);
}

TEST(EventQueue, TopDoesNotRemove) {
  EventQueue<int> q;
  q.push(1.0, 42);
  EXPECT_EQ(q.top().payload, 42);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().payload, 42);
}

TEST(EventQueue, ClearEmptiesAndResetsSequence) {
  EventQueue<int> q;
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(1.0, 10);
  q.push(1.0, 11);
  EXPECT_EQ(q.pop().payload, 10);  // stable order after clear
  EXPECT_EQ(q.pop().payload, 11);
}

TEST(EventQueue, EventCarriesTime) {
  EventQueue<int> q;
  q.push(2.5, 1);
  const auto e = q.pop();
  EXPECT_DOUBLE_EQ(e.time, 2.5);
}

TEST(EventQueue, ManyEventsSortedCorrectly) {
  EventQueue<int> q;
  for (int i = 0; i < 1000; ++i) q.push(static_cast<double>((i * 7919) % 997), i);
  double last = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, TimeIfBeforeProbesWithoutPopping) {
  EventQueue<int> q;
  EXPECT_FALSE(q.time_if_before(10.0).has_value());
  q.push(3.0, 1);
  ASSERT_TRUE(q.time_if_before(10.0).has_value());
  EXPECT_DOUBLE_EQ(*q.time_if_before(10.0), 3.0);
  EXPECT_FALSE(q.time_if_before(3.0).has_value());  // strict: before only
  EXPECT_EQ(q.size(), 1u);  // probing never pops
}

TEST(EventQueue, ClaimedSequenceOrdersAgainstPushes) {
  // A claimed number sits between the pushes around it: at equal times it
  // orders after the earlier push and before the later one, by (time, seq).
  EventQueue<int> q;
  q.push(1.0, 10);
  const std::uint64_t claimed = q.claim_seq();
  q.push(1.0, 11);
  q.push(0.5, 5);
  EXPECT_EQ(q.top().payload, 5);
  q.pop();
  ASSERT_EQ(q.top().time, 1.0);
  EXPECT_EQ(q.top().payload, 10);
  EXPECT_LT(q.top().seq, claimed);
  q.pop();
  EXPECT_EQ(q.top().payload, 11);
  EXPECT_GT(q.top().seq, claimed);
  // clear() resets the counter for claims as for pushes.
  q.clear();
  EXPECT_EQ(q.claim_seq(), 0u);
  q.push(2.0, 20);
  EXPECT_EQ(q.top().seq, 1u);
}

}  // namespace
}  // namespace hp::sim
