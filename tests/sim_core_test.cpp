// Unit tests for the foundations: units, RNG, statistics, the event
// engine and its timers, the thread pool, and the text-table renderer.
#include <gtest/gtest.h>

#include <atomic>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/simulation.hpp"

namespace wav {
namespace {

TEST(Units, ConversionsAndArithmetic) {
  EXPECT_EQ(seconds(2), milliseconds(2000));
  EXPECT_EQ(milliseconds_f(1.5), microseconds(1500));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(250)), 0.25);

  const TimePoint t = kSimStart + seconds(3);
  EXPECT_EQ(t - kSimStart, seconds(3));
  EXPECT_LT(kSimStart, t);
  EXPECT_LT(t, kTimeInfinity);

  const BitRate r = megabits_per_sec(8);
  EXPECT_DOUBLE_EQ(r.bytes_per_sec(), 1e6);
  EXPECT_EQ(r.transmit_time(1'000'000), seconds(1));
  EXPECT_EQ(kUnlimitedRate.transmit_time(1 << 30), kZeroDuration);

  EXPECT_EQ(mebibytes(1).bytes, 1024ull * 1024);
  EXPECT_DOUBLE_EQ(rate_of(bytes(1'000'000), seconds(1)).bytes_per_sec(), 1e6);
}

TEST(Units, ToStringFormats) {
  EXPECT_EQ(to_string(milliseconds(1)), "1.000 ms");
  EXPECT_EQ(to_string(megabits_per_sec(12.5)), "12.50 Mbit/s");
  EXPECT_EQ(to_string(kibibytes(4)), "4.0 KiB");
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());

  Rng r{7};
  OnlineStats uniform;
  for (int i = 0; i < 20000; ++i) uniform.add(r.uniform());
  EXPECT_NEAR(uniform.mean(), 0.5, 0.01);
  EXPECT_GE(uniform.min(), 0.0);
  EXPECT_LT(uniform.max(), 1.0);

  OnlineStats normal;
  for (int i = 0; i < 20000; ++i) normal.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(normal.mean(), 10.0, 0.1);
  EXPECT_NEAR(normal.stddev(), 2.0, 0.1);

  // Bounded draws stay in range and cover it.
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_u64(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo && saw_hi);

  auto sample = r.sample_indices(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
}

TEST(Stats, WelfordAndPercentiles) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_DOUBLE_EQ(set.mean(), 50.5);
  EXPECT_DOUBLE_EQ(set.min(), 1);
  EXPECT_DOUBLE_EQ(set.max(), 100);
  EXPECT_DOUBLE_EQ(set.median(), 50);
  EXPECT_DOUBLE_EQ(set.percentile(95), 95);
  EXPECT_NEAR(set.stddev(), 29.0115, 0.001);

  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 2.0);
    all.add(i * 2.0);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Stats, IntervalSeriesBucketsRates) {
  IntervalSeries series{kSimStart, milliseconds(500)};
  series.add(kSimStart + milliseconds(100), 1000);  // bucket 0
  series.add(kSimStart + milliseconds(600), 500);   // bucket 1
  series.add(kSimStart + milliseconds(900), 500);   // bucket 1
  const auto rates = series.rate_series(kSimStart + milliseconds(1500));
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0].value, 2000);  // 1000 per 0.5 s
  EXPECT_DOUBLE_EQ(rates[1].value, 2000);
  EXPECT_DOUBLE_EQ(rates[2].value, 0);
}

TEST(Format, BracesAndOverflow) {
  EXPECT_EQ(format_str("a={} b={}", 1, "x"), "a=1 b=x");
  EXPECT_EQ(format_str("no placeholders", 1, 2), "no placeholders");
  EXPECT_EQ(format_str("{} and {} and {}", 1), "1 and {} and {}");
}

TEST(Simulation, OrderingAndCancellation) {
  sim::Simulation sim;
  std::vector<int> order;
  sim.schedule_after(milliseconds(20), [&] { order.push_back(2); });
  sim.schedule_after(milliseconds(10), [&] { order.push_back(1); });
  // Same-time events run FIFO.
  sim.schedule_after(milliseconds(30), [&] { order.push_back(3); });
  const auto cancelled = sim.schedule_after(milliseconds(30), [&] { order.push_back(99); });
  sim.schedule_after(milliseconds(30), [&] { order.push_back(4); });
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.cancel(cancelled));  // double-cancel reports false

  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), kSimStart + milliseconds(30));
}

TEST(Simulation, RunUntilAdvancesClockExactly) {
  sim::Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(5), [&] { ++fired; });
  sim.run_until(kSimStart + seconds(2));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), kSimStart + seconds(2));
  sim.run_until(kSimStart + seconds(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kSimStart + seconds(10));
}

TEST(Simulation, PeriodicTimerFiresAndStops) {
  sim::Simulation sim;
  int fired = 0;
  sim::PeriodicTimer timer{sim, seconds(1), [&] { ++fired; }};
  timer.start();
  sim.run_for(seconds(5) + milliseconds(500));
  EXPECT_EQ(fired, 5);
  timer.stop();
  sim.run_for(seconds(5));
  EXPECT_EQ(fired, 5);
}

TEST(Simulation, OneShotTimerRearms) {
  sim::Simulation sim;
  int fired = 0;
  sim::OneShotTimer timer{sim, [&] { ++fired; }};
  timer.arm(seconds(2));
  timer.arm(seconds(4));  // re-arm cancels the first deadline
  sim.run_for(seconds(3));
  EXPECT_EQ(fired, 0);
  sim.run_for(seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Simulation, StopInsideEvent) {
  sim::Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulation, CancelAfterExecuteReturnsFalse) {
  sim::Simulation sim;
  int fired = 0;
  const auto id = sim.schedule_after(milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);

  // Cancelling an already-executed event must be a no-op that reports
  // false; before the slab rewrite it returned true and left a permanent
  // tombstone that made pending_events() underflow.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);

  const auto id2 = sim.schedule_after(milliseconds(1), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(id2));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(id2));
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, StaleIdNeverCancelsReusedSlot) {
  sim::Simulation sim;
  const auto old_id = sim.schedule_after(milliseconds(1), [] {});
  sim.run();

  // The next schedule recycles old_id's slab slot; the stale handle must
  // not be able to cancel the new occupant.
  int fired = 0;
  const auto fresh = sim.schedule_after(milliseconds(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(old_id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(fresh.valid());
}

TEST(Simulation, CancelInsideCallback) {
  sim::Simulation sim;
  bool victim_fired = false;
  bool self_cancel = true;
  bool peer_cancel = false;
  const auto victim = sim.schedule_after(milliseconds(2), [&] { victim_fired = true; });
  sim::EventId self{};
  self = sim.schedule_after(milliseconds(1), [&] {
    // The running event has already been retired: cancelling your own id
    // from inside the callback reports false...
    self_cancel = sim.cancel(self);
    // ...while cancelling a still-pending peer works normally.
    peer_cancel = sim.cancel(victim);
  });
  sim.run();
  EXPECT_FALSE(self_cancel);
  EXPECT_TRUE(peer_cancel);
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, PendingEventsExactUnderChurn) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  std::vector<sim::EventId> ids;
  constexpr std::size_t kEvents = 1000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids.push_back(
        sim.schedule_after(microseconds(static_cast<std::int64_t>(i % 97)), [&] { ++fired; }));
  }
  EXPECT_EQ(sim.pending_events(), kEvents);

  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    EXPECT_TRUE(sim.cancel(ids[i]));
    ++cancelled;
  }
  EXPECT_EQ(sim.pending_events(), kEvents - cancelled);

  // Double-cancel: every repeat reports false and the count is unchanged.
  for (std::size_t i = 0; i < ids.size(); i += 3) EXPECT_FALSE(sim.cancel(ids[i]));
  EXPECT_EQ(sim.pending_events(), kEvents - cancelled);

  sim.run();
  EXPECT_EQ(fired, kEvents - cancelled);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Handles of executed events are all stale now.
  for (const auto id : ids) EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, OrderingPreservedUnderSlabReuse) {
  // Several rounds of schedule/cancel/run force slot recycling; firing
  // order must stay strictly (time, insertion) ordered throughout.
  sim::Simulation sim;
  for (int round = 0; round < 5; ++round) {
    std::vector<int> order;
    std::vector<sim::EventId> ids;
    const std::array<int, 8> delays{30, 10, 20, 10, 30, 20, 10, 5};
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const int tag = static_cast<int>(i);
      ids.push_back(sim.schedule_after(milliseconds(delays[i]),
                                       [&order, tag] { order.push_back(tag); }));
    }
    EXPECT_TRUE(sim.cancel(ids[3]));  // one of the 10 ms pair
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{7, 1, 6, 2, 5, 0, 4}));
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(Simulation, OneShotTimerRearmsInsideItsOwnCallback) {
  // The TCP RTO pattern: on_fire re-arms the same timer with backoff.
  // Regression lock for the cancel-then-schedule path — a stale
  // generation or heap_pos reused across the reentrant arm would either
  // drop a firing or fire twice.
  sim::Simulation sim;
  int fired = 0;
  sim::OneShotTimer* self = nullptr;
  sim::OneShotTimer timer{sim, [&] {
                            ++fired;
                            if (fired < 4) {
                              self->arm(milliseconds(10 << fired));
                              EXPECT_TRUE(self->armed());
                            }
                          }};
  self = &timer;
  timer.arm(milliseconds(10));
  sim.run();
  // Firings at 10, 10+20, 30+40, 70+80 ms: exactly four, then disarmed.
  EXPECT_EQ(fired, 4);
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.now(), kSimStart + milliseconds(150));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, OneShotTimerRearmCancelRearmInsideCallback) {
  // Arm / cancel / arm again inside the firing: only the last arm may
  // produce the next firing, and armed() must track it exactly.
  sim::Simulation sim;
  std::vector<std::int64_t> fire_ms;
  sim::OneShotTimer* self = nullptr;
  sim::OneShotTimer timer{sim, [&] {
                            fire_ms.push_back((sim.now() - kSimStart).count() / 1'000'000);
                            if (fire_ms.size() == 1) {
                              self->arm(milliseconds(50));
                              self->cancel();
                              EXPECT_FALSE(self->armed());
                              self->arm(milliseconds(30));
                            }
                          }};
  self = &timer;
  timer.arm(milliseconds(5));
  sim.run();
  EXPECT_EQ(fire_ms, (std::vector<std::int64_t>{5, 35}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, PeriodicTimerHoldsPeriodGridUnderLoad) {
  // Every firing must land exactly on start + k * period — anchored to
  // the period grid, not now() + period — even when each fire piles
  // same-timestamp work onto the queue.
  sim::Simulation sim;
  std::vector<TimePoint> fires;
  sim::PeriodicTimer timer{sim, milliseconds(7), [&] {
                             fires.push_back(sim.now());
                             for (int i = 0; i < 3; ++i) sim.schedule_after(kZeroDuration, [] {});
                           }};
  timer.start();
  sim.run_for(milliseconds(7 * 100));
  ASSERT_EQ(fires.size(), 100u);
  for (std::size_t k = 0; k < fires.size(); ++k) {
    EXPECT_EQ(fires[k], kSimStart + milliseconds(7 * (static_cast<std::int64_t>(k) + 1)));
  }
}

TEST(Simulation, CancelWhileDrainingFuzz) {
  // Seeded interleaving fuzz: randomized schedule_at/schedule_after
  // mixes with canceller events striking pending victims mid-drain,
  // exercising cancels of the earliest, the last and interior events and
  // wheel unlinks during cascades.
  Rng rng{0xC0FFEEu};
  for (int round = 0; round < 40; ++round) {
    sim::Simulation sim;
    const int n = 1 + static_cast<int>(rng.uniform_u64(0, 60));
    std::vector<sim::EventId> ids(static_cast<std::size_t>(n));
    std::vector<bool> cancelled(static_cast<std::size_t>(n), false);
    std::vector<int> fired;
    std::vector<std::int64_t> delay_us(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      delay_us[ui] = static_cast<std::int64_t>(rng.uniform_u64(0, 40));
      const auto cb = [&fired, i] { fired.push_back(i); };
      ids[ui] = rng.uniform() < 0.5
                    ? sim.schedule_after(microseconds(delay_us[ui]), cb)
                    : sim.schedule_at(sim.now() + microseconds(delay_us[ui]), cb);
    }
    const int strikes = static_cast<int>(rng.uniform_u64(0, 12));
    for (int s = 0; s < strikes; ++s) {
      const auto victim = static_cast<std::size_t>(rng.uniform_u64(0, static_cast<std::uint64_t>(n) - 1));
      const auto at_us = static_cast<std::int64_t>(rng.uniform_u64(0, 40));
      sim.schedule_after(microseconds(at_us), [&sim, &ids, &cancelled, victim] {
        if (sim.cancel(ids[victim])) cancelled[victim] = true;
      });
    }
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);

    // Exactly the uncancelled tags fired, in (deadline, insertion) order.
    std::vector<int> expect;
    for (int i = 0; i < n; ++i) {
      if (!cancelled[static_cast<std::size_t>(i)]) expect.push_back(i);
    }
    std::stable_sort(expect.begin(), expect.end(), [&](int a, int b) {
      return delay_us[static_cast<std::size_t>(a)] < delay_us[static_cast<std::size_t>(b)];
    });
    EXPECT_EQ(fired, expect) << "round " << round;
  }
}

TEST(Simulation, CancelOnlyEarliestLastAndInteriorEvents) {
  // Directed cancel cases: the only pending event, then the earliest,
  // the last scheduled and an interior event of a populated queue — each
  // followed by a drain that must stay ordered.
  sim::Simulation sim;

  // Only event.
  auto only = sim.schedule_at(sim.now() + milliseconds(1), [] {});
  EXPECT_TRUE(sim.cancel(only));
  EXPECT_EQ(sim.pending_events(), 0u);

  // The earliest, the last scheduled and an interior event of a
  // populated queue.
  std::vector<int> order;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 9; ++i) {
    ids.push_back(sim.schedule_at(sim.now() + milliseconds(i + 1),
                                  [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(sim.cancel(ids[0]));              // earliest
  EXPECT_TRUE(sim.cancel(ids.back()));          // last scheduled
  EXPECT_TRUE(sim.cancel(ids[4]));              // interior
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ThreadPool, RunsTasksAndParallelFor) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);

  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, IndependentSimulationsInParallel) {
  // The bench sweep pattern: each worker owns its own Simulation.
  ThreadPool pool{3};
  std::array<std::uint64_t, 6> events{};
  pool.parallel_for(events.size(), [&](std::size_t i) {
    sim::Simulation sim{i + 1};
    for (int n = 0; n < 1000; ++n) {
      sim.schedule_after(microseconds(n), [] {});
    }
    sim.run();
    events[i] = sim.events_executed();
  });
  for (const auto e : events) EXPECT_EQ(e, 1000u);
}

TEST(Table, RendersAlignedCells) {
  TextTable table{"title"};
  table.header({"a", "bbbb"});
  table.row({"1", "2"});
  table.row({"333", "4"});
  const std::string out = table.render();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(-7), "-7");
}

}  // namespace
}  // namespace wav
