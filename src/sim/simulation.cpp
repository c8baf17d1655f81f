#include "sim/simulation.hpp"

#include <cassert>
#include <utility>

namespace wav::sim {

Simulation::Simulation(std::uint64_t seed)
    : rng_(seed),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      tracer_(std::make_unique<obs::Tracer>([this] { return now_; })),
      flows_(std::make_unique<obs::FlowTracer>(*metrics_, tracer_.get(),
                                               [this] { return now_; })) {
  events_counter_ = &metrics_->counter("sim.events_executed");
  queue_depth_gauge_ = &metrics_->gauge("sim.queue_depth");
}

EventId Simulation::schedule_impl(TimePoint at, obs::ProfCategoryId category,
                                  EventCallback fn) {
  if (at < now_) at = now_;
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[idx];
  slot.category = category;
  slot.fn = std::move(fn);
  wheel_.insert(idx, at, next_seq_++);
  return EventId{(static_cast<std::uint64_t>(slot.generation) << 32) | idx};
}

void Simulation::release_slot(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  // Bumping the generation invalidates every outstanding id for this
  // incarnation; 0 is skipped so a packed id can never equal the
  // "invalid" sentinel.
  if (++slot.generation == 0) slot.generation = 1;
  slot.fn.reset();
  free_slots_.push_back(idx);
}

bool Simulation::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || idx >= slots_.size() || slots_[idx].generation != gen) return false;
  wheel_.remove(idx);
  release_slot(idx);
  return true;
}

bool Simulation::pop_and_run_next(TimePoint deadline) {
  const std::uint32_t idx = wheel_.peek_min();
  if (idx == TimerWheel::kNil) return false;
  const TimePoint at = wheel_.deadline(idx);
  if (at > deadline) return false;
  assert(at >= now_ && "event queue must be monotonic");
  now_ = at;
  // Move the callback out and retire the slot before invoking, so the
  // callback can freely schedule (reusing this slot) or cancel; a cancel
  // of the in-flight event's own id correctly reports false.
  Slot& slot = slots_[idx];
  EventCallback fn = std::move(slot.fn);
  const obs::ProfCategoryId category = slot.category;
  wheel_.extract(idx);
  release_slot(idx);
  events_counter_->inc();
  queue_depth_gauge_->set(static_cast<double>(wheel_.size()));
  if (obs::Profiler::enabled()) {
    // Sampled wall-clock attribution rooted at the event's schedule-time
    // category. Purely observational: identical event order with the
    // profiler on or off (determinism contract, obs/profiler.hpp).
    const obs::ProfEventScope prof(category);
    fn();
  } else {
    fn();
  }
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(kTimeInfinity)) {
  }
}

bool Simulation::run_until(TimePoint deadline) {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(deadline)) {
  }
  if (!stopped_ && deadline > now_ && deadline < kTimeInfinity) now_ = deadline;
  return !stopped_;
}

bool Simulation::run_for(Duration d) { return run_until(now_ + d); }

PeriodicTimer::PeriodicTimer(Simulation& sim, Duration period,
                             std::function<void()> on_fire, obs::ProfCategoryId category)
    : sim_(sim), period_(period), on_fire_(std::move(on_fire)), category_(category) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Duration initial_delay) {
  stop();
  if (initial_delay < kZeroDuration) initial_delay = kZeroDuration;
  next_at_ = sim_.now() + initial_delay;
  pending_ = sim_.schedule_after(initial_delay, category_, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
}

void PeriodicTimer::fire() {
  pending_ = EventId{};
  // Reschedule before invoking so the callback may stop() the timer. The
  // next deadline is the previous one plus the period — the period grid —
  // not now() + period: the two only differ if the clock ever drifts past
  // the intended deadline, and anchoring to the grid keeps keepalive
  // cadence exact under load instead of compounding the skew.
  next_at_ = next_at_ + period_;
  Duration delay = next_at_ - sim_.now();
  if (delay < kZeroDuration) delay = kZeroDuration;
  pending_ = sim_.schedule_after(delay, category_, [this] { fire(); });
  on_fire_();
}

OneShotTimer::OneShotTimer(Simulation& sim, std::function<void()> on_fire,
                           obs::ProfCategoryId category)
    : sim_(sim), on_fire_(std::move(on_fire)), category_(category) {}

OneShotTimer::~OneShotTimer() { cancel(); }

void OneShotTimer::arm(Duration delay) {
  cancel();
  const std::uint64_t epoch = ++arm_epoch_;
  // The epoch guard makes reentrant re-arms (on_fire calling arm(), the
  // TCP RTO pattern) structurally safe: if this firing was superseded by
  // a newer arm() in any path the generation check doesn't cover, the
  // stale lambda refuses to clear `pending_` or fire.
  pending_ = sim_.schedule_after(delay, category_, [this, epoch] {
    if (epoch != arm_epoch_) return;
    pending_ = EventId{};
    on_fire_();
  });
}

void OneShotTimer::cancel() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
}

}  // namespace wav::sim
