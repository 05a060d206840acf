#include "server/timer_heap.h"

#include <gtest/gtest.h>

#include <vector>

namespace uots {
namespace {

TEST(TimerHeapTest, FiresInDeadlineOrder) {
  TimerHeap heap;
  std::vector<int> fired;
  heap.Add(300, [&] { fired.push_back(3); });
  heap.Add(100, [&] { fired.push_back(1); });
  heap.Add(200, [&] { fired.push_back(2); });

  EXPECT_EQ(heap.NextDeadlineNs(), 100);
  EXPECT_EQ(heap.RunExpired(250), 2);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(heap.NextDeadlineNs(), 300);
  EXPECT_EQ(heap.RunExpired(300), 1);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(heap.NextDeadlineNs(), -1);
  EXPECT_EQ(heap.pending(), 0u);
}

TEST(TimerHeapTest, EqualDeadlinesFireInInsertionOrder) {
  TimerHeap heap;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    heap.Add(100, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(heap.RunExpired(100), 5);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerHeapTest, CancelPreventsFiring) {
  TimerHeap heap;
  int fired = 0;
  const TimerHeap::TimerId a = heap.Add(100, [&] { ++fired; });
  const TimerHeap::TimerId b = heap.Add(200, [&] { ++fired; });
  EXPECT_TRUE(heap.Cancel(a));
  EXPECT_FALSE(heap.Cancel(a)) << "double cancel must report failure";
  EXPECT_EQ(heap.RunExpired(1000), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(heap.Cancel(b)) << "cancel after firing must report failure";
}

TEST(TimerHeapTest, CancelInvalidIdIsHarmless) {
  TimerHeap heap;
  EXPECT_FALSE(heap.Cancel(TimerHeap::kInvalidTimer));
  EXPECT_FALSE(heap.Cancel(12345));
}

TEST(TimerHeapTest, CallbackMayReArm) {
  TimerHeap heap;
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired < 3) heap.Add(fired * 100, tick);
  };
  heap.Add(50, tick);
  EXPECT_EQ(heap.RunExpired(50), 1);
  EXPECT_EQ(heap.RunExpired(100), 1);
  EXPECT_EQ(heap.RunExpired(200), 1);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(heap.pending(), 0u);
}

TEST(TimerHeapTest, CancelledTimersBehindAnEarlyLiveOneDoNotPileUp) {
  // The early timer stays at the heap top, so lazy deletion alone would
  // keep every cancelled node below it.
  TimerHeap heap;
  std::vector<int> fired;
  heap.Add(100, [&] { fired.push_back(0); });
  for (int i = 0; i < 1000; ++i) {
    const TimerHeap::TimerId id =
        heap.Add(1000 + i, [&] { fired.push_back(-1); });
    if (i % 250 == 0) continue;  // four later timers stay live
    EXPECT_TRUE(heap.Cancel(id));
    ASSERT_LE(heap.nodes(), 2 * heap.pending() + 1) << "after cancel " << i;
  }
  EXPECT_EQ(heap.pending(), 5u);
  EXPECT_EQ(heap.NextDeadlineNs(), 100);
  // The survivors still fire, in (deadline, creation) order.
  heap.Add(1000, [&] { fired.push_back(1); });  // ties the first survivor
  EXPECT_EQ(heap.RunExpired(5000), 6);
  EXPECT_EQ(fired, (std::vector<int>{0, -1, 1, -1, -1, -1}));
  EXPECT_EQ(heap.nodes(), 0u);
}

TEST(TimerHeapTest, PendingTracksLiveTimers) {
  TimerHeap heap;
  const TimerHeap::TimerId a = heap.Add(100, [] {});
  heap.Add(200, [] {});
  EXPECT_EQ(heap.pending(), 2u);
  heap.Cancel(a);
  EXPECT_EQ(heap.pending(), 1u);
  heap.RunExpired(1000);
  EXPECT_EQ(heap.pending(), 0u);
}

}  // namespace
}  // namespace uots
