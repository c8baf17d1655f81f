// Timer-wheel tests: direct unit coverage of the hashed hierarchical
// wheel (level rollover, far-future cascading, cancel during cascades,
// 100k-timer churn) plus the Simulation's ordering contract under a
// randomized spawn/cancel storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/timer_wheel.hpp"

namespace wav {
namespace {

using sim::TimerWheel;

/// Deadline landing in bucket `tick` with an intra-tick ns offset.
TimePoint at_tick(std::uint64_t tick, std::int64_t off_ns = 0) {
  return kSimStart +
         Duration{static_cast<std::int64_t>(tick << TimerWheel::kTickShift) + off_ns};
}

TEST(TimerWheel, TickOfMatchesShift) {
  EXPECT_EQ(TimerWheel::tick_of(at_tick(0)), 0u);
  EXPECT_EQ(TimerWheel::tick_of(at_tick(0, (1 << TimerWheel::kTickShift) - 1)), 0u);
  EXPECT_EQ(TimerWheel::tick_of(at_tick(1)), 1u);
  EXPECT_EQ(TimerWheel::tick_of(at_tick(12345, 999)), 12345u);
}

TEST(TimerWheel, SameDeadlineFifoWithinBucket) {
  TimerWheel wheel;
  wheel.insert(0, at_tick(10, 5), 1);
  wheel.insert(1, at_tick(10, 5), 2);
  wheel.insert(2, at_tick(10, 5), 3);
  EXPECT_EQ(wheel.size(), 3u);
  EXPECT_EQ(wheel.peek_min(), 0u);
  wheel.remove(1);  // cancel the middle of the chain
  EXPECT_EQ(wheel.peek_min(), 0u);
  wheel.extract(0);
  EXPECT_EQ(wheel.peek_min(), 2u);
  wheel.extract(2);
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.peek_min(), TimerWheel::kNil);
}

TEST(TimerWheel, RolloverAtLevelBoundaries) {
  // Deadlines straddling every level boundary (256, 2^16, 2^24 ticks)
  // and the 2^32-tick horizon beyond which timers park in the overflow
  // list; extraction must walk them in strict (deadline, seq) order with
  // the cursor rolling across blocks.
  TimerWheel wheel;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expect;  // (tick, idx)
  std::uint32_t idx = 0;
  std::uint64_t seq = 0;
  for (const std::uint64_t boundary :
       {std::uint64_t{256}, std::uint64_t{1} << 16, std::uint64_t{1} << 24,
        std::uint64_t{1} << 32}) {
    for (const std::int64_t d : {-2, -1, 0, 1, 2}) {
      const std::uint64_t t = boundary + static_cast<std::uint64_t>(d);
      wheel.insert(idx, at_tick(t), ++seq);
      expect.emplace_back(t, idx);
      ++idx;
    }
  }
  // The three deadlines at/past 2^32 ticks (~52 sim days) overflow.
  EXPECT_EQ(wheel.overflow_size(), 3u);
  EXPECT_EQ(wheel.size(), expect.size());

  std::sort(expect.begin(), expect.end());
  for (const auto& [tick, want] : expect) {
    const std::uint32_t got = wheel.peek_min();
    ASSERT_EQ(got, want) << "tick " << tick;
    wheel.extract(got);
    EXPECT_EQ(wheel.cursor_tick(), tick);
  }
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.overflow_size(), 0u);
}

TEST(TimerWheel, FarFutureCascadesDownLevels) {
  // A deadline parked three levels up must migrate down one level at a
  // time as nearer extractions drag the cursor into its block.
  TimerWheel wheel;
  const std::uint64_t far = (std::uint64_t{3} << 24) + (std::uint64_t{2} << 16) +
                            (std::uint64_t{5} << 8) + 7;
  wheel.insert(0, at_tick(far), 1);
  std::uint32_t idx = 1;
  std::uint64_t seq = 1;
  // Stepping stones: one extraction inside each successively closer block.
  for (const std::uint64_t t : {std::uint64_t{7}, (std::uint64_t{3} << 24) + 1,
                                (std::uint64_t{3} << 24) + (std::uint64_t{2} << 16) + 1,
                                far - 1}) {
    wheel.insert(idx++, at_tick(t), ++seq);
  }
  std::uint64_t prev = 0;
  while (wheel.size() > 1) {
    const std::uint32_t got = wheel.peek_min();
    ASSERT_NE(got, 0u) << "far timer fired too early";
    wheel.extract(got);
    EXPECT_GE(wheel.cursor_tick(), prev);
    prev = wheel.cursor_tick();
  }
  EXPECT_EQ(wheel.peek_min(), 0u);
  wheel.extract(0);
  EXPECT_EQ(wheel.cursor_tick(), far);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelInsideCascadingSlot) {
  TimerWheel wheel;
  // Timers 0 and 1 share a level-1 slot. Extracting 0 advances the
  // cursor into that block and cascades the slot, relocating 1 down to
  // level 0; a cancel must find it at its new home.
  wheel.insert(0, at_tick(300), 1);
  wheel.insert(1, at_tick(301), 2);
  wheel.insert(2, at_tick(5), 3);
  // And timer 3 sits in a farther level-1 slot that is never cascaded;
  // cancelling it while still parked upstairs must work too.
  wheel.insert(3, at_tick(700), 4);
  wheel.remove(3);
  EXPECT_EQ(wheel.size(), 3u);

  EXPECT_EQ(wheel.peek_min(), 2u);
  wheel.extract(2);
  EXPECT_EQ(wheel.peek_min(), 0u);
  wheel.extract(0);
  EXPECT_EQ(wheel.cursor_tick(), 300u);
  wheel.remove(1);  // relocated by the cascade; cancel at the new slot
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.peek_min(), TimerWheel::kNil);
}

TEST(TimerWheel, HundredThousandTimerChurnKeepsExactCounts) {
  TimerWheel wheel;
  Rng rng{20260809};
  constexpr std::uint32_t kTimers = 100'000;
  std::vector<std::pair<TimePoint, std::uint64_t>> live;  // (at, seq) by idx
  live.reserve(kTimers);
  for (std::uint32_t i = 0; i < kTimers; ++i) {
    const auto at =
        at_tick(rng.uniform_u64(0, std::uint64_t{1} << 26),
                static_cast<std::int64_t>(
                    rng.uniform_u64(0, (1u << TimerWheel::kTickShift) - 1)));
    wheel.insert(i, at, i + 1);
    live.emplace_back(at, i + 1);
  }
  EXPECT_EQ(wheel.size(), kTimers);

  std::size_t cancelled = 0;
  for (std::uint32_t i = 0; i < kTimers; i += 3) {
    wheel.remove(i);
    live[i].second = 0;  // mark dead
    ++cancelled;
  }
  ASSERT_EQ(wheel.size(), kTimers - cancelled);

  std::vector<std::pair<TimePoint, std::uint64_t>> expect;
  for (const auto& [at, seq] : live) {
    if (seq != 0) expect.emplace_back(at, seq);
  }
  std::sort(expect.begin(), expect.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first : a.second < b.second;
            });
  for (const auto& [at, seq] : expect) {
    const std::uint32_t got = wheel.peek_min();
    ASSERT_NE(got, TimerWheel::kNil);
    ASSERT_EQ(got, static_cast<std::uint32_t>(seq - 1));
    wheel.extract(got);
  }
  EXPECT_TRUE(wheel.empty());
}

// ---------------------------------------------------------------------------
// Ordering contract through the Simulation.

TEST(TimerWheelEquivalence, RandomizedSpawnCancelTreeMatchesHeap) {
  // A self-similar storm: each firing spawns children with rng-drawn
  // delays and cancels an earlier id. The firing log must match the
  // order a (deadline, seq) min-heap would give: fire times never
  // decrease, equal deadlines fire in scheduling order, and exactly the
  // uncancelled events fire.
  for (const std::uint64_t seed : {1ull, 7ull, 2026ull}) {
    sim::Simulation sim{seed};
    Rng rng{seed ^ 0x9E3779B97F4A7C15ull};
    constexpr int kMaxTags = 400;
    std::vector<sim::EventId> ids(kMaxTags);
    std::vector<std::int64_t> deadline_ns(kMaxTags);
    std::vector<bool> cancelled(kMaxTags, false);
    std::vector<int> fired;  // tags in firing order; tags rise in scheduling order
    int next_tag = 0;
    std::function<void(int)> spawn = [&](int depth) {
      if (next_tag >= kMaxTags) return;
      const int tag = next_tag++;
      const auto t = static_cast<std::size_t>(tag);
      // Whole-millisecond delays make equal deadlines common.
      const auto delay = milliseconds(static_cast<std::int64_t>(rng.uniform_u64(0, 500)));
      deadline_ns[t] = (sim.now() + delay - kSimStart).count();
      ids[t] = sim.schedule_after(delay, [&, tag, depth] {
        const auto ft = static_cast<std::size_t>(tag);
        EXPECT_EQ((sim.now() - kSimStart).count(), deadline_ns[ft]);
        fired.push_back(tag);
        if (depth < 3) {
          spawn(depth + 1);
          spawn(depth + 1);
        }
        const auto victim = static_cast<std::size_t>(tag / 2);
        if (sim.cancel(ids[victim])) cancelled[victim] = true;
      });
    };
    for (int i = 0; i < 20; ++i) spawn(0);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
    ASSERT_FALSE(fired.empty());

    int ties = 0;
    for (std::size_t k = 1; k < fired.size(); ++k) {
      const auto prev = static_cast<std::size_t>(fired[k - 1]);
      const auto cur = static_cast<std::size_t>(fired[k]);
      ASSERT_LE(deadline_ns[prev], deadline_ns[cur]) << "seed " << seed << " at " << k;
      if (deadline_ns[prev] == deadline_ns[cur]) {
        ++ties;
        EXPECT_LT(fired[k - 1], fired[k]) << "seed " << seed << " at " << k;
      }
    }
    EXPECT_GT(ties, 0) << "seed " << seed;
    std::vector<int> expect;
    for (int tag = 0; tag < next_tag; ++tag) {
      if (!cancelled[static_cast<std::size_t>(tag)]) expect.push_back(tag);
    }
    std::vector<int> fired_sorted = fired;
    std::sort(fired_sorted.begin(), fired_sorted.end());
    EXPECT_EQ(fired_sorted, expect) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wav
