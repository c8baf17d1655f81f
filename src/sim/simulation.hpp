// Deterministic discrete-event simulation engine.
//
// Everything in this repository — links, NAT boxes, protocol stacks, VM
// migration, workloads — runs as callbacks scheduled on one Simulation.
// Events fire in (time, insertion-sequence) order, which makes a run a
// pure function of (program, seed): the foundation for reproducible
// experiments and property tests.
//
// The event store is a slab of reusable slots filed on one hashed
// hierarchical timer wheel (sim/timer_wheel.hpp), which orders them by
// (deadline, seq) at full-nanosecond precision. `schedule_at` and
// `schedule_after` differ only in how they compute the deadline.
// Slots recycle, so scheduling allocates nothing in the steady state
// for a callback that fits the slot's inline buffer (event_callback.hpp);
// cancellation is an O(1) unlink, and pending_events() is exact — there
// are no tombstones to drift. EventIds carry a per-slot generation so a
// stale id (event already fired or cancelled, slot since reused) is
// always rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/event_callback.hpp"
#include "sim/timer_wheel.hpp"

namespace wav::sim {

/// Handle for cancelling a scheduled event. Id 0 is "invalid". The value
/// packs (slot generation << 32 | slot index) and is opaque to callers.
struct EventId {
  std::uint64_t value{0};
  [[nodiscard]] constexpr bool valid() const noexcept { return value != 0; }
  constexpr auto operator<=>(const EventId&) const = default;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedules `fn` at absolute time `at` (>= now; earlier times are
  /// clamped to now, i.e. "immediately after current event"). Accepts any
  /// void() callable; small captures are stored inline in the event slab.
  template <class F>
  EventId schedule_at(TimePoint at, F&& fn) {
    return schedule_impl(at, obs::kProfCategoryNone, EventCallback(std::forward<F>(fn)));
  }

  /// Schedules `fn` after a relative delay (negative clamps to zero).
  template <class F>
  EventId schedule_after(Duration delay, F&& fn) {
    if (delay < kZeroDuration) delay = kZeroDuration;
    return schedule_impl(now_ + delay, obs::kProfCategoryNone,
                         EventCallback(std::forward<F>(fn)));
  }

  /// Tagged variants: the category (from WAV_PROF_CATEGORY) rides in the
  /// event slot and roots the profiler's flamegraph for that event, so
  /// per-event-type cost attribution needs no per-callsite bookkeeping.
  /// Tags are profiler-only — scheduling order, ids and execution are
  /// identical to the untagged overloads.
  template <class F>
  EventId schedule_at(TimePoint at, obs::ProfCategoryId category, F&& fn) {
    return schedule_impl(at, category, EventCallback(std::forward<F>(fn)));
  }

  template <class F>
  EventId schedule_after(Duration delay, obs::ProfCategoryId category, F&& fn) {
    if (delay < kZeroDuration) delay = kZeroDuration;
    return schedule_impl(now_ + delay, category, EventCallback(std::forward<F>(fn)));
  }

  /// Cancels a pending event; returns false if it already ran, was
  /// cancelled, or the id is invalid. Ids of executed events are rejected
  /// by the slot generation check, so a cancel never leaks state.
  bool cancel(EventId id);

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs all events with time <= deadline, then advances the clock to
  /// exactly `deadline`. Returns false if stop() ended the run early.
  bool run_until(TimePoint deadline);

  /// Convenience: run_until(now + d).
  bool run_for(Duration d);

  /// Requests the current run()/run_until() loop to return after the
  /// in-flight event completes.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Number of events executed since construction (for tests/diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_counter_->value();
  }
  /// Exact count of scheduled-but-not-yet-fired events.
  [[nodiscard]] std::size_t pending_events() const noexcept { return wheel_.size(); }

  /// Per-simulation observability: every component instrumenting itself
  /// reaches its registry/tracer through the Simulation it runs on, so
  /// concurrent simulations (thread-pool benches) never share state.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return *tracer_; }
  /// Flow-level causal tracing (sampled flight recorder; obs/flow.hpp).
  [[nodiscard]] obs::FlowTracer& flows() noexcept { return *flows_; }

 private:
  /// One slab slot, queued on the wheel under the same index. Reused
  /// across events; `generation` distinguishes the incarnations so stale
  /// EventIds never alias a newer event, and a slot whose generation
  /// matches an id is queued (firing or cancelling bumps it).
  struct Slot {
    std::uint32_t generation{1};
    obs::ProfCategoryId category{obs::kProfCategoryNone};  // profiler tag
    EventCallback fn;
  };

  EventId schedule_impl(TimePoint at, obs::ProfCategoryId category, EventCallback fn);
  void release_slot(std::uint32_t idx);
  bool pop_and_run_next(TimePoint deadline);

  TimePoint now_{};
  Rng rng_;
  std::vector<Slot> slots_;               // slab; grows, never shrinks
  std::vector<std::uint32_t> free_slots_; // recycled slot indices
  TimerWheel wheel_;                      // (deadline, seq) of every queued slot
  std::uint64_t next_seq_{1};             // tiebreaker: FIFO among same-time events
  bool stopped_{false};

  // unique_ptr keeps handle addresses stable if Simulation ever moves.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlowTracer> flows_;
  obs::Counter* events_counter_{nullptr};
  obs::Gauge* queue_depth_gauge_{nullptr};
};

/// RAII periodic timer. Starts firing `period` after start() and keeps
/// rescheduling itself until stop() or destruction. Used for keepalive
/// pulses, measurement polls, dirty-page sampling, etc.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulation& sim, Duration period, std::function<void()> on_fire,
                obs::ProfCategoryId category = obs::kProfCategoryNone);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  /// Starts with the first firing after `initial_delay` instead of period.
  void start_after(Duration initial_delay);
  void stop();
  [[nodiscard]] bool running() const noexcept { return pending_.valid(); }

  void set_period(Duration period) noexcept { period_ = period; }

 private:
  void fire();

  Simulation& sim_;
  Duration period_;
  std::function<void()> on_fire_;
  obs::ProfCategoryId category_{obs::kProfCategoryNone};
  EventId pending_{};
  /// Deadline of the pending firing. The next firing is anchored to
  /// `next_at_ + period` (the period grid), never `now() + period`, so
  /// cadence cannot skew even if a fire path perturbs the clock.
  TimePoint next_at_{};
};

/// RAII one-shot timer that can be re-armed; used for protocol timeouts
/// (TCP RTO, NAT binding expiry, hole-punch retries).
class OneShotTimer {
 public:
  OneShotTimer(Simulation& sim, std::function<void()> on_fire,
               obs::ProfCategoryId category = obs::kProfCategoryNone);
  ~OneShotTimer();

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arms the timer `delay` from now; cancels any pending firing.
  void arm(Duration delay);
  void cancel();
  [[nodiscard]] bool armed() const noexcept { return pending_.valid(); }

 private:
  Simulation& sim_;
  std::function<void()> on_fire_;
  obs::ProfCategoryId category_{obs::kProfCategoryNone};
  EventId pending_{};
  /// Bumped by every arm(); the firing lambda captures its epoch and
  /// refuses to run if a re-arm (possibly from inside on_fire itself — the
  /// TCP RTO pattern) superseded it. Belt-and-braces on top of the
  /// generation-tagged cancel.
  std::uint64_t arm_epoch_{0};
};

}  // namespace wav::sim
