#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hp::sim
