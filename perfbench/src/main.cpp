// perfbench: the repo benchmark's measuring process.
//
//   wavnet_perfbench --workload <churn-fleet|vpc-traffic|evacuation>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// A run measures a fixed set of seeded instances of the workload's
// scenario (instance seeds derived from --seed), each in a fresh world:
// every instance times its own set-up (build + deploy) and measured
// phase, and the modeled outcome pools all instances. While the
// wall-clock budget lasts the instances are run again, in order, for
// more timing samples; a repeated instance must reproduce its
// model_digest exactly.
//
// --trace 1 runs every instance twice — untraced, then traced with the
// wall-clock profiler (obs/profiler) and the benchmark's own spans — and
// reports the per-layer table from the traced pass; bench.trace_overhead
// is the untraced/traced sim_speed ratio.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit status is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/frame_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace wav::perfbench {
namespace {

constexpr WorkloadInfo kWorkloads[] = {
    {"churn-fleet",
     "control plane under churn: CAN lookups, sharded rendezvous, relay "
     "allocation and timers; the data plane sends no frames",
     8, &make_churn_fleet},
    {"vpc-traffic",
     "data plane of a settled VPC: links, NAT, WAV-Switch/bridge, frame pool, "
     "TCP and relay forwarding; CAN and rendezvous idle",
     3, &make_vpc_traffic},
    {"evacuation",
     "40 concurrent live migrations: long bulk TCP writes, broadcast flooding "
     "and MAC relearning, VM pre-copy; GETs ride through",
     2, &make_evacuation},
};

constexpr int kSetupOnlyReps = 5;
constexpr int kMaxPasses = 16;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  if (argc % 2 != 1) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0) return std::nullopt;
  return a;
}

/// Instance j of a run: seeds 100*s .. 100*s + instances - 1.
std::uint64_t instance_seed(std::uint64_t seed, int j) {
  return seed * 100 + static_cast<std::uint64_t>(j);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 14695981039346656037ULL) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash of the deterministic exports: the whole metrics registry plus the
/// modeled outcome. Equal digests = identical modeled statistics.
std::uint64_t model_digest(sim::Simulation& sim, const Outcome& out) {
  std::string text = sim.metrics().to_json();
  text += "|" + std::to_string(out.attempted) + "|" + std::to_string(out.failed);
  for (const auto& [name, value] : out.modeled) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text += "|" + name + "=" + buf;
  }
  return fnv1a(text);
}

// --- per-layer inputs -----------------------------------------------------------

/// Every instance of one registry histogram, pooled.
LatencyDist registry_histogram(const obs::MetricsRegistry& reg, const std::string& name) {
  LatencyDist d;
  reg.for_each_histogram(
      [&](const std::string& hname, const std::string&, const obs::Histogram& h) {
        if (hname == name) d.add_histogram(h);
      });
  return d;
}

/// The deterministic counts of one finished instance, by per-layer name.
Counts snapshot_counts(Scenario& scenario, const Outcome& out) {
  const obs::MetricsRegistry& reg = scenario.sim().metrics();
  const auto total = [&reg](const char* name) {
    return static_cast<double>(reg.counter_total(name));
  };
  Counts c;
  scenario.add_counts(c);
  for (const auto& [name, value] : out.modeled) c["modeled." + name] = value;
  const obs::Gauge* depth = reg.find_gauge("sim.queue_depth");
  c["sim.queue_depth_max"] = depth != nullptr ? depth->max() : 0.0;
  const LatencyDist hops = registry_histogram(reg, "can.query_hops");
  c["can.queries"] = static_cast<double>(registry_histogram(reg, "can.query_latency_ms").count()) +
                     total("can.queries_timed_out");
  c["can.query_hops_p95"] = hops.percentile(95);
  c["can.query_hops_samples"] = static_cast<double>(hops.count());
  c["can.queries_timed_out"] = total("can.queries_timed_out");
  c["overlay.dials"] = total("overlay.links_established") + total("overlay.connects_failed");
  c["overlay.dials_failed"] = total("overlay.connects_failed");
  c["overlay.punches"] = total("overlay.punches_sent");
  c["overlay.pulses"] = total("overlay.connect_pulse_sent");
  c["relay.allocations"] = total("relay.allocations");
  c["relay.alloc_failures"] = total("relay.alloc_failures");
  c["relay.frames_relayed"] = total("relay.frames_relayed");
  c["nat.translations"] = total("nat.translated_outbound") + total("nat.translated_inbound");
  c["wavnet.frames_tunneled"] = total("switch.frames_tunneled");
  c["wavnet.frames_received"] = total("switch.frames_received");
  c["wavnet.frames_flooded"] = total("switch.frames_flooded");
  c["wavnet.backlog_drops"] = total("switch.frames_dropped_backlog");
  c["tcp.retransmits"] = total("tcp.retransmits");
  return c;
}

/// Profiler self time and call counts per "subsystem/op" category, summed
/// over the traced pass and scaled up by the event sampling period.
struct Profile {
  std::map<std::string, double> self_ns;
  std::map<std::string, double> calls;

  void accumulate() {
    const obs::Profiler& prof = obs::Profiler::instance();
    const double period = static_cast<double>(obs::Profiler::sample_period());
    for (const auto& row : prof.category_rows()) {
      self_ns[row.name] += period * static_cast<double>(row.self_ns);
      calls[row.name] += period * static_cast<double>(row.calls);
    }
  }
  /// Self ns of every category of one subsystem ("link" -> "link/...").
  [[nodiscard]] double subsystem_ns(const std::string& subsystem) const {
    double sum = 0;
    for (const auto& [cat, ns] : self_ns) {
      if (cat.size() > subsystem.size() && cat.compare(0, subsystem.size(), subsystem) == 0 &&
          cat[subsystem.size()] == '/') {
        sum += ns;
      }
    }
    return sum;
  }
};

double at(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// One timed execution of one instance.
struct Rep {
  int instance{0};
  bool traced{false};
  double build_s{0};
  double deploy_s{0};
  double run_s{0};
  double sim_s{0};
  double run_events{0};
  double pool_acquired{0};
  double pool_reused{0};
  std::uint64_t digest{0};
};

/// Simulated seconds per wall second over one pass through the instances,
/// each instance timed by the median of its repetitions of that kind.
double pass_speed(const std::vector<Rep>& reps, int instances, bool traced) {
  double sim_s = 0;
  double wall_s = 0;
  for (int j = 0; j < instances; ++j) {
    std::vector<double> walls;
    for (const Rep& r : reps) {
      if (r.instance != j || r.traced != traced) continue;
      walls.push_back(r.run_s);
      if (walls.size() == 1) sim_s += r.sim_s;
    }
    wall_s += median(walls);
  }
  return ratio(sim_s, wall_s);
}

struct LayerMetric {
  LayerMetric(std::string n, std::string u, double v, std::string b = {}, double bv = 0)
      : name(std::move(n)), unit(std::move(u)), value(v), base(std::move(b)), base_value(bv) {}

  std::string name;
  std::string unit;
  double value;
  std::string base;  // the ratio's denominator, empty for plain values
  double base_value;
};

/// The per-layer table, per instance: `c` holds instance-mean counts and
/// `prof` the traced pass's profile divided by the instance count; the
/// benchmark's own wall figures come from the untraced repetitions.
std::vector<LayerMetric> layer_table(const Counts& c, const Profile& prof,
                                     const std::vector<Rep>& reps, int instances) {
  const auto get = [&c](const char* name) { return at(c, name); };
  std::vector<double> build_ms, deploy_ms, run_ms, ns_per_event;
  double pool_acquired = 0;
  double pool_reused = 0;
  for (const Rep& r : reps) {
    if (r.traced) continue;
    build_ms.push_back(r.build_s * 1e3);
    deploy_ms.push_back(r.deploy_s * 1e3);
    run_ms.push_back(r.run_s * 1e3);
    ns_per_event.push_back(ratio(r.run_s * 1e9, r.run_events));
    if (ns_per_event.size() <= static_cast<std::size_t>(instances)) {
      pool_acquired += r.pool_acquired / instances;
      pool_reused += r.pool_reused / instances;
    }
  }
  const auto ms = [&prof](const char* subsystem) { return prof.subsystem_ns(subsystem) / 1e6; };
  const double query_ns = at(prof.self_ns, "can/query");
  const double query_calls = at(prof.calls, "can/query");
  const double fabric_ns = prof.subsystem_ns("link") + prof.subsystem_ns("internet");
  const double frames = get("wavnet.frames_tunneled") + get("wavnet.frames_received");
  const double wavnet_ns = prof.subsystem_ns("switch") + prof.subsystem_ns("bridge");
  // TCP demultiplexes every received segment through one probe.
  const double segments = at(prof.calls, "tcp/handle_packet");
  const double tcp_ns = prof.subsystem_ns("tcp");
  const double speed = pass_speed(reps, instances, false);
  const double speed_traced = pass_speed(reps, instances, true);

  return {
      {"sim.events", "count", get("sim.events")},
      {"sim.ns_per_event", "ns", median(ns_per_event), "sim.events", get("sim.events")},
      {"sim.queue_depth_max", "count", get("sim.queue_depth_max")},
      {"sim.self_ms", "ms", ms("sim")},
      {"can.queries", "count", get("can.queries")},
      {"can.query_self_ms", "ms", query_ns / 1e6},
      {"can.us_per_query", "us", ratio(query_ns / 1e3, query_calls), "can/query probe calls",
       query_calls},
      {"can.query_hops_p95", "hops", get("can.query_hops_p95"), "can.query_hops samples",
       get("can.query_hops_samples")},
      {"can.queries_timed_out", "count", get("can.queries_timed_out"), "can.queries",
       get("can.queries")},
      {"overlay.dials", "count", get("overlay.dials")},
      {"overlay.dials_failed", "count", get("overlay.dials_failed"), "overlay.dials",
       get("overlay.dials")},
      {"overlay.punches", "count", get("overlay.punches")},
      {"overlay.pulses", "count", get("overlay.pulses")},
      {"overlay.self_ms", "ms", ms("overlay")},
      {"overlay.rendezvous_self_ms", "ms", ms("rendezvous")},
      {"relay.allocations", "count", get("relay.allocations")},
      {"relay.alloc_failures", "count", get("relay.alloc_failures"), "relay.allocations",
       get("relay.allocations")},
      {"relay.frames_relayed", "count", get("relay.frames_relayed")},
      {"relay.self_ms", "ms", ms("relay")},
      {"fabric.packets", "count", get("fabric.packets")},
      {"fabric.ns_per_packet", "ns", ratio(fabric_ns, get("fabric.packets")), "fabric.packets",
       get("fabric.packets")},
      {"fabric.link_self_ms", "ms", ms("link")},
      {"fabric.internet_self_ms", "ms", ms("internet")},
      {"fabric.queue_drops", "count", get("fabric.queue_drops"), "fabric.packets",
       get("fabric.packets")},
      {"nat.translations", "count", get("nat.translations")},
      {"nat.self_ms", "ms", ms("nat")},
      {"wavnet.frames_tunneled", "count", get("wavnet.frames_tunneled")},
      {"wavnet.frames_flooded", "count", get("wavnet.frames_flooded")},
      {"wavnet.backlog_drops", "count", get("wavnet.backlog_drops")},
      {"wavnet.switch_self_ms", "ms", ms("switch")},
      {"wavnet.bridge_self_ms", "ms", ms("bridge")},
      {"wavnet.ns_per_frame", "ns", ratio(wavnet_ns, frames), "switch frames tunneled+received",
       frames},
      {"net.pool_reuse_ratio", "fraction", ratio(pool_reused, pool_acquired), "frames acquired",
       pool_acquired},
      {"tcp.segments", "count", segments},
      {"tcp.retransmits", "count", get("tcp.retransmits"), "tcp.segments", segments},
      {"tcp.self_ms", "ms", ms("tcp")},
      {"tcp.ns_per_segment", "ns", ratio(tcp_ns, segments), "tcp.segments", segments},
      {"tcp.goodput_mbps", "Mbit/s", get("modeled.goodput_mbps")},
      {"vm.rounds_mean", "count", get("vm.rounds_mean")},
      {"vm.bytes_ratio", "fraction", get("vm.bytes_ratio"), "VM memory bytes",
       get("vm.memory_bytes")},
      {"vm.makespan_s", "s", get("modeled.evac_makespan_s")},
      {"vm.downtime_p50_ms", "ms", get("modeled.downtime_p50_ms")},
      {"vm.downtime_p75_ms", "ms", get("modeled.downtime_p75_ms")},
      {"churn.arrivals", "count", get("churn.arrivals")},
      {"churn.departures", "count", get("churn.departures")},
      {"churn.self_ms", "ms", ms("churn")},
      {"bench.build_ms", "ms", median(build_ms)},
      {"bench.deploy_ms", "ms", median(deploy_ms)},
      {"bench.run_ms", "ms", median(run_ms)},
      {"bench.trace_overhead", "ratio", ratio(speed, speed_traced), "traced sim_speed",
       speed_traced},
  };
}

// --- run loop ---------------------------------------------------------------------

int run(const Args& args, const WorkloadInfo& wl) {
  std::printf("== perfbench workload=%s seed=%llu seconds=%s trace=%d instances=%d\n",
              wl.name, static_cast<unsigned long long>(args.seed), fmt(args.seconds).c_str(),
              args.trace ? 1 : 0, wl.instances);
  std::printf("why: %s\n", wl.why);
  std::fflush(stdout);

  obs::Profiler& prof = obs::Profiler::instance();
  net::FramePool& pool = net::FramePool::local();
  Spans spans;
  Profile profile;
  std::vector<Rep> reps;
  std::vector<Outcome> outcomes;  // first pass, one per instance
  std::vector<Counts> counts;     // first pass, one per instance
  std::vector<std::string> errors;
  double first_pass_peak_rss = 0;

  // Set-up alone, several times: setup_s is a median over these and every
  // untraced repetition's own set-up; the first ones warm the allocator.
  const std::int64_t t_start = wall_ns();
  std::vector<double> setups;
  for (int i = 0; i < kSetupOnlyReps; ++i) {
    std::unique_ptr<Scenario> scenario = wl.make(instance_seed(args.seed, 0), spans);
    const std::int64_t t0 = wall_ns();
    scenario->build();
    scenario->deploy();
    setups.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  std::printf("set-up only x%d: median %.4f s\n", kSetupOnlyReps, median(setups));

  const int passes = args.trace ? 2 : kMaxPasses;
  bool budget_spent = false;
  for (int pass = 0; pass < passes && !budget_spent; ++pass) {
    const bool traced = args.trace && pass == 1;
    for (int j = 0; j < wl.instances; ++j) {
      if (!args.trace && pass > 0) {
        // Repeat only while another repetition of this instance fits.
        std::vector<double> walls;
        for (const Rep& r : reps) {
          if (r.instance == j) walls.push_back(r.build_s + r.deploy_s + r.run_s);
        }
        const double elapsed = static_cast<double>(wall_ns() - t_start) / 1e9;
        if (elapsed + median(walls) > args.seconds) {
          budget_spent = true;
          break;
        }
      }
      Rep rep;
      rep.instance = j;
      rep.traced = traced;
      if (traced) {
        prof.reset();
        prof.set_enabled(true);
        spans.set_enabled(true);
      }
      const double acquired0 = static_cast<double>(pool.frames_acquired());
      const double reused0 = static_cast<double>(pool.blocks_reused());

      std::unique_ptr<Scenario> scenario = wl.make(instance_seed(args.seed, j), spans);
      const std::int64_t t0 = wall_ns();
      {
        Spans::Scope span{spans, "build"};
        scenario->build();
      }
      const std::int64_t t1 = wall_ns();
      {
        Spans::Scope span{spans, "deploy"};
        scenario->deploy();
      }
      const std::int64_t t2 = wall_ns();
      sim::Simulation& sim = scenario->sim();
      const TimePoint sim0 = sim.now();
      const std::uint64_t events0 = sim.events_executed();
      {
        Spans::Scope span{spans, "run"};
        scenario->run();
      }
      const std::int64_t t3 = wall_ns();
      if (traced) {
        prof.set_enabled(false);
        spans.set_enabled(false);
        profile.accumulate();
      }
      rep.build_s = static_cast<double>(t1 - t0) / 1e9;
      rep.deploy_s = static_cast<double>(t2 - t1) / 1e9;
      rep.run_s = static_cast<double>(t3 - t2) / 1e9;
      rep.sim_s = to_seconds(sim.now() - sim0);
      rep.run_events = static_cast<double>(sim.events_executed() - events0);

      Outcome out = scenario->outcome();
      rep.digest = model_digest(sim, out);
      rep.pool_acquired = static_cast<double>(pool.frames_acquired()) - acquired0;
      rep.pool_reused = static_cast<double>(pool.blocks_reused()) - reused0;
      if (pass == 0) {
        errors.insert(errors.end(), out.errors.begin(), out.errors.end());
        counts.push_back(snapshot_counts(*scenario, out));
        counts.back()["sim.events"] = rep.run_events;
        outcomes.push_back(std::move(out));
      } else if (rep.digest != reps[static_cast<std::size_t>(j)].digest) {
        errors.push_back("instance " + std::to_string(j) +
                         ": model_digest differs between repetitions of one seed");
      }
      if (!traced) setups.push_back(rep.build_s + rep.deploy_s);
      reps.push_back(rep);
      std::printf(
          "pass %d instance %d (seed %llu) %-8s setup %.4f s  run %.4f s wall / %.1f s sim"
          "  sim_speed %.3f  digest %016llx\n",
          pass + 1, j, static_cast<unsigned long long>(instance_seed(args.seed, j)),
          traced ? "traced" : "untraced", rep.build_s + rep.deploy_s, rep.run_s, rep.sim_s,
          ratio(rep.sim_s, rep.run_s), static_cast<unsigned long long>(rep.digest));
      std::fflush(stdout);
    }
    // The leak-prone working set is compared over a fixed amount of work.
    if (pass == 0) first_pass_peak_rss = peak_rss_mib();
  }

  // --- pooled modeled outcome (first pass) --------------------------------------
  Outcome pooled;
  pooled.op_name = outcomes.front().op_name;
  pooled.latency_name = outcomes.front().latency_name;
  std::string digests;
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    const Outcome& o = outcomes[j];
    pooled.attempted += o.attempted;
    pooled.failed += o.failed;
    pooled.latency.merge(o.latency);
    for (std::size_t k = 0; k < o.modeled.size(); ++k) {
      if (j == 0) pooled.modeled.emplace_back(o.modeled[k].first, 0.0);
      pooled.modeled[k].second += o.modeled[k].second / static_cast<double>(outcomes.size());
    }
    digests += std::to_string(reps[j].digest) + ",";
  }
  const std::uint64_t digest = fnv1a(digests);

  const double setup_s = median(setups);
  const double sim_speed = pass_speed(reps, wl.instances, false);
  const double p50 = pooled.latency.percentile(50);
  const double p99 = pooled.latency.percentile(99);
  const bool correct = errors.empty();

  const auto row = [](const char* name, double value, const char* unit, const std::string& note) {
    std::printf("%-18s %16s %-9s %s\n", name, fmt(value).c_str(), unit, note.c_str());
  };
  std::printf("\n-- end-to-end (untraced; %d instances, %zu repetitions, %zu set-ups) --\n",
              wl.instances, std::count_if(reps.begin(), reps.end(),
                                          [](const Rep& r) { return !r.traced; }),
              setups.size());
  row("setup_s", setup_s, "s", "wall, median: world build + deploy until the control plane settles");
  row("sim_speed", sim_speed, "s/s",
      "simulated s per wall s of the measured phases, instance medians summed");
  row("peak_rss_mb", first_pass_peak_rss, "MiB",
      "process max RSS after the set-ups and one pass over the instances");
  row("failed_ratio",
      ratio(static_cast<double>(pooled.failed), static_cast<double>(pooled.attempted)),
      "fraction",
      std::to_string(pooled.failed) + " failed of " + std::to_string(pooled.attempted) + " " +
          pooled.op_name);
  const std::string samples = pooled.latency_name + ", sim time, " +
                              std::to_string(pooled.latency.count()) + " samples";
  row("latency_p50_ms", p50, "ms", samples);
  row("latency_p99_ms", p99, "ms", samples);
  std::printf("\n-- modeled outcome: simulated time, mean over instances, repeats exactly "
              "per seed --\n");
  std::printf("no paper reference exists for this scenario: unvalidated, used as a guard\n");
  for (const auto& [name, value] : pooled.modeled) {
    std::printf("%-22s %16s\n", name.c_str(), fmt(value).c_str());
  }
  std::printf("model_digest %016llx\n", static_cast<unsigned long long>(digest));

  std::vector<LayerMetric> layers;
  if (args.trace) {
    // Per-instance means: counts over the first pass, profile over the
    // traced pass.
    Counts mean_counts;
    for (const Counts& c : counts) {
      for (const auto& [k, v] : c) mean_counts[k] += v / static_cast<double>(counts.size());
    }
    for (auto& [cat, ns] : profile.self_ns) ns /= wl.instances;
    for (auto& [cat, n] : profile.calls) n /= wl.instances;
    layers = layer_table(mean_counts, profile, reps, wl.instances);
    std::printf("\n-- per-layer, per instance; profiler figures scaled by its 1-in-%u "
                "event sampling --\n",
                obs::Profiler::sample_period());
    for (const LayerMetric& m : layers) {
      std::printf("%-28s %16s %-9s", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
      if (!m.base.empty()) {
        std::printf(" base %s = %s", m.base.c_str(), fmt(m.base_value).c_str());
      }
      std::printf("\n");
    }
    std::printf("\n-- benchmark spans: traced pass, wall ms --\n");
    for (const auto& [name, t] : spans.totals()) {
      std::printf("%-22s calls %6llu  total %11.3f  self %11.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls), t.total_ms, t.self_ms);
    }
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  const auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const LayerMetric& m : layers) add(m.name, m.value, m.unit);
  } else {
    add("setup_s", setup_s, "s");
    add("sim_speed", sim_speed, "s/s");
    add("peak_rss_mb", first_pass_peak_rss, "MiB");
    add("latency_p50_ms", p50, "ms");
    add("latency_p99_ms", p99, "ms");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(pooled.attempted),
              static_cast<unsigned long long>(pooled.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wav::perfbench

int main(int argc, char** argv) {
  using namespace wav::perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  for (const WorkloadInfo& wl : kWorkloads) {
    if (args->workload == wl.name) return run(*args, wl);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
  return 2;
}
