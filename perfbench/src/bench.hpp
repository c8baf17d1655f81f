// Repo benchmark: one process runs one named workload on one simulation
// thread, repeating a fixed seeded scenario for a wall-clock budget.
//
// A scenario drives the simulator only through its public APIs (World,
// Wan, HostAgent/RendezvousServer, RelayServer, ChurnEngine, the apps,
// World::migrate) and is timed from outside: the benchmark records its
// own spans around every call it makes into a layer, reads the layers'
// public stats and MetricsRegistry counters, and — in the traced run —
// the wall-clock profiler's per-category totals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace wav::fabric {
class Wan;
}

namespace wav::perfbench {

// --- spans ------------------------------------------------------------------

/// In-memory span log around the benchmark's calls into the layers: name,
/// start, end and the enclosing span. Disabled spans cost one branch, so
/// untraced runs carry them too.
class Spans {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_{-1};
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }
  void clear() {
    records_.clear();
    open_.clear();
  }

  /// Per-name totals: calls, total and self wall ms (self = duration minus
  /// the part covered by child spans).
  struct Total {
    std::uint64_t calls{0};
    double total_ms{0};
    double self_ms{0};
  };
  [[nodiscard]] std::map<std::string, Total> totals() const;

 private:
  bool enabled_{false};
  std::vector<Record> records_;
  std::vector<int> open_;
};

[[nodiscard]] std::int64_t wall_ns();

// --- scenario contract --------------------------------------------------------

/// A latency distribution in simulated ms: exact samples, or — where the
/// layer only keeps one — a registry histogram's buckets. Distributions
/// of several runs pool by concatenating samples or summing buckets.
class LatencyDist {
 public:
  void add(double ms) { samples_.push_back(ms); }
  void add_histogram(const obs::Histogram& h);
  void merge(const LatencyDist& other);
  [[nodiscard]] std::size_t count() const;
  /// Exact nearest-rank percentile over samples, else the histogram's
  /// interpolated percentile; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> samples_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double min_{0};
  double max_{0};
};

/// Modeled outcome of one scenario run. Everything here is simulated-time
/// or count data: it repeats exactly for a seed.
struct Outcome {
  std::string op_name;  // what `attempted` counts
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string latency_name;  // what the latency samples time
  LatencyDist latency;
  /// Workload-specific modeled metrics, in print order.
  std::vector<std::pair<std::string, double>> modeled;
  /// Failed correctness checks (empty = correct).
  std::vector<std::string> errors;
};

/// Counts a scenario reports beyond the registry (component stats that
/// live outside it), keyed by per-layer metric name.
using Counts = std::map<std::string, double>;

/// fabric.packets / fabric.queue_drops: packets delivered and queue drops
/// on every access link attaching a site or public host to the core.
void add_link_counts(fabric::Wan& wan, Counts& counts);

class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Constructs the world (topology, servers, agents). No simulated time.
  virtual void build() = 0;
  /// Runs the simulation until the control plane settles.
  virtual void deploy() = 0;
  /// The measured phase: the workload's simulated traffic.
  virtual void run() = 0;
  /// Modeled results and correctness checks; may run verification traffic
  /// after the measured phase.
  virtual Outcome outcome() = 0;
  /// Component stats outside the registry (links, VMs, ...).
  virtual void add_counts(Counts& counts) = 0;
  virtual sim::Simulation& sim() = 0;
};

struct WorkloadInfo {
  const char* name;
  const char* why;
  /// Seeded instances per run: the scenario runs once per instance seed
  /// derived from --seed, and the run reports the pooled result.
  int instances;
  std::unique_ptr<Scenario> (*make)(std::uint64_t seed, Spans& spans);
};

std::unique_ptr<Scenario> make_churn_fleet(std::uint64_t seed, Spans& spans);
std::unique_ptr<Scenario> make_vpc_traffic(std::uint64_t seed, Spans& spans);
std::unique_ptr<Scenario> make_evacuation(std::uint64_t seed, Spans& spans);

}  // namespace wav::perfbench
