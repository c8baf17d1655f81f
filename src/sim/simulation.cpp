#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
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
  if (const char* env = std::getenv("WAVNET_DISABLE_TIMER_WHEEL");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    timer_wheel_enabled_ = false;
  }
}

EventId Simulation::schedule_impl(TimePoint at, obs::ProfCategoryId category,
                                  EventCallback fn, bool relative) {
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
  slot.at = at;
  slot.seq = next_seq_++;
  slot.category = category;
  slot.fn = std::move(fn);
  if (relative && timer_wheel_enabled_) {
    slot.heap_pos = kInWheel;
    wheel_.insert(idx, at, slot.seq);
  } else {
    slot.heap_pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(idx);
    sift_up(heap_.size() - 1);
  }
  return EventId{(static_cast<std::uint64_t>(slot.generation) << 32) | idx};
}

void Simulation::release_slot(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  // Bumping the generation invalidates every outstanding id for this
  // incarnation; 0 is skipped so a packed id can never equal the
  // "invalid" sentinel.
  if (++slot.generation == 0) slot.generation = 1;
  slot.heap_pos = kNotInHeap;
  slot.fn.reset();
  free_slots_.push_back(idx);
}

bool Simulation::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || idx >= slots_.size()) return false;
  Slot& slot = slots_[idx];
  if (slot.generation != gen || slot.heap_pos == kNotInHeap) return false;
  if (slot.heap_pos == kInWheel) {
    wheel_.remove(idx);
  } else {
    heap_remove(slot.heap_pos);
  }
  release_slot(idx);
  return true;
}

void Simulation::sift_up(std::size_t pos) {
  const std::uint32_t idx = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(idx, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = idx;
  slots_[idx].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulation::sift_down(std::size_t pos) {
  const std::uint32_t idx = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], idx)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = idx;
  slots_[idx].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulation::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The relocated element may belong either direction from `pos`.
    sift_down(pos);
    sift_up(slots_[heap_[pos]].heap_pos);
  }
}

bool Simulation::pop_and_run_next(TimePoint deadline) {
  // Merge the two stores by global (time, seq) order: the next event is
  // the earlier of the heap root and the wheel minimum. `seq` values are
  // unique across both, so the merge is a strict total order and a run is
  // byte-identical however events are distributed between the stores.
  std::uint32_t idx = heap_.empty() ? kNotInHeap : heap_[0];
  bool from_wheel = false;
  if (const std::uint32_t widx = wheel_.peek_min(); widx != TimerWheel::kNil) {
    if (idx == kNotInHeap || earlier(widx, idx)) {
      idx = widx;
      from_wheel = true;
    }
  }
  if (idx == kNotInHeap) return false;
  Slot& slot = slots_[idx];
  if (slot.at > deadline) return false;
  assert(slot.at >= now_ && "event queue must be monotonic");
  now_ = slot.at;
  // Move the callback out and retire the slot before invoking, so the
  // callback can freely schedule (reusing this slot) or cancel; a cancel
  // of the in-flight event's own id correctly reports false.
  EventCallback fn = std::move(slot.fn);
  const obs::ProfCategoryId category = slot.category;
  if (from_wheel) {
    wheel_.extract(idx);
  } else {
    heap_remove(0);
  }
  release_slot(idx);
  events_counter_->inc();
  queue_depth_gauge_->set(static_cast<double>(heap_.size() + wheel_.size()));
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
  deadline_ = sim_.now() + delay;
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
