// Structured event tracing stamped with simulation time.
//
// The Tracer records instant events and complete spans into a bounded
// ring buffer (oldest events are overwritten under pressure), filtered by
// category. Exporters render Chrome trace_event JSON — loadable in
// chrome://tracing and Perfetto — and line-delimited JSON for ad-hoc
// tooling. Timestamps come from the owning Simulation's clock only, so
// identical seeds produce byte-identical exports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace wav::obs {

enum class Category : std::uint8_t {
  kSim = 0,
  kNat,
  kStun,
  kPunch,
  kCan,
  kSwitch,
  kTcp,
  kMigration,
  kOverlay,
  kChaos,
  kHealth,
  kRelay,  // relay ladder: fallback, allocation, failover, upgrade
  kFlow,   // flow tracing: sampled-flow lifecycle and drop attribution
};
inline constexpr std::size_t kCategoryCount = 13;

[[nodiscard]] const char* to_string(Category c) noexcept;

struct TraceEvent {
  TimePoint start{};
  Duration duration{kZeroDuration};
  Category category{Category::kSim};
  bool span{false};  // true: complete span ("X"), false: instant ("i")
  std::string name;
  std::string instance;  // rendered as the trace "thread"
  std::string args;      // JSON object body without braces, e.g. "\"peer\":3"
  std::uint64_t seq{0};
};

class Tracer {
 public:
  struct Config {
    std::size_t capacity{65536};
  };

  using ClockFn = std::function<TimePoint()>;

  explicit Tracer(ClockFn clock);
  Tracer(ClockFn clock, Config config);

  /// Master switch, off by default: a disabled tracer records nothing
  /// (cheap check). The exporters that write a trace turn it on.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void set_category_enabled(Category c, bool on) noexcept {
    categories_[static_cast<std::size_t>(c)] = on;
  }
  [[nodiscard]] bool category_enabled(Category c) const noexcept {
    return enabled_ && categories_[static_cast<std::size_t>(c)];
  }
  /// Enables exactly the given categories (everything else off).
  void enable_only(const std::vector<Category>& cats) noexcept;

  /// Records a zero-duration event at the current simulation time.
  void instant(Category c, std::string name, std::string instance = {},
               std::string args = {});

  /// Records a completed span from `start` to the current simulation time
  /// (the caller remembers when the operation began — no open-span
  /// bookkeeping, which keeps recording deterministic and allocation-light).
  void complete(Category c, std::string name, TimePoint start,
                std::string instance = {}, std::string args = {});

  /// Events in chronological order (oldest retained first).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::uint64_t recorded() const noexcept { return seq_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return config_.capacity; }

  void clear();

  /// Chrome trace_event JSON object ({"traceEvents":[...]}); `ts`/`dur`
  /// are simulation microseconds, instances map to trace threads.
  [[nodiscard]] std::string to_chrome_json() const;
  /// One JSON object per line with nanosecond timestamps.
  [[nodiscard]] std::string to_jsonl() const;

  bool write_chrome_json(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;

 private:
  void record(TraceEvent ev);

  ClockFn clock_;
  Config config_;
  bool enabled_{false};
  std::array<bool, kCategoryCount> categories_;
  std::vector<TraceEvent> ring_;
  std::size_t next_slot_{0};
  std::uint64_t seq_{0};
  std::uint64_t dropped_{0};
};

}  // namespace wav::obs
