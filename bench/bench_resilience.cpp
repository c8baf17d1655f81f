// Resilience scenario sweep: injects deterministic fault schedules into a
// deployed WAVNet mesh (link outage/flap, WAN partition, NAT reboot,
// rendezvous crash, loss storm) and measures how long the control plane
// takes to re-converge after the fault heals — mesh re-punched, every
// agent re-registered, no leaked pending handlers (the InvariantChecker's
// definition of healthy).
//
// Every fault draws only from the per-simulation seeded RNG, so a fixed
// --seed reproduces the identical fault timeline and byte-identical
// --metrics-out / --trace-out exports; CI runs two seeds under
// asan+ubsan and fails on any invariant violation (non-zero exit).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "chaos/chaos_controller.hpp"
#include "chaos/invariants.hpp"
#include "common/table.hpp"
#include "harness.hpp"

namespace {

using namespace wav;

constexpr std::size_t kSites = 4;
constexpr Duration kRtt = milliseconds(40);
// build_emulated shaves the access delay off the configured RTT; storms
// must restore exactly this PairPath or the heal would itself be a fault.
const fabric::PairPath kDefaultPath{kRtt / 2 - microseconds(200), kZeroDuration, 0.0};

struct ScenarioResult {
  std::string name;
  double recovery_s{-1.0};  // -1 = never converged within the deadline
  /// What the SLO HealthMonitor *observed* from metrics alone: time from
  /// fault start to the first non-healthy transition, and from heal to
  /// the last return-to-healthy. -1 = never detected / never recovered.
  double detect_s{-1.0};
  double observed_recovery_s{-1.0};
  std::uint64_t faults{0};
  std::vector<std::string> violations;
};

/// Builds the fault schedule into `plan` given the post-deploy time t0;
/// returns the instant the last restorative action has fired (recovery is
/// timed from there).
using PlanBuilder = std::function<TimePoint(chaos::FaultPlan&, TimePoint)>;

ScenarioResult run_scenario(const std::string& name, std::uint64_t seed,
                            const PlanBuilder& build) {
  benchx::World world{benchx::Plane::kWavnet, seed};
  world.build_emulated(kSites, megabits_per_sec(100), kRtt);
  world.deploy();

  chaos::ChaosController controller{world.sim()};
  controller.set_wan(world.wan());
  for (std::size_t i = 1; i <= kSites; ++i) {
    const std::string site = std::string("s").append(std::to_string(i));
    controller.add_nat(site, *world.wan().site(site)->gateway);
  }
  controller.add_rendezvous("rendezvous", *world.rendezvous());

  chaos::InvariantChecker checker;
  for (const std::string& host : world.host_names()) {
    checker.add_agent(world.host(host).wavnet->agent());
  }
  checker.add_rendezvous(*world.rendezvous());
  checker.expect_full_mesh();
  world.set_invariant_checker(&checker);

  const TimePoint t0 = world.sim().now();
  chaos::FaultPlan plan;
  const TimePoint healed_at = build(plan, t0);
  controller.schedule(plan);
  world.sim().run_for(healed_at - t0);

  // Recovery clock starts when the network is healthy again. Polling at
  // 1 s granularity, convergence must then HOLD through a settle window
  // longer than the link idle timeout: a flushed NAT binding leaves the
  // mesh nominally established for up to 30 s before the rot surfaces,
  // and an instant of green must not masquerade as instant recovery.
  const TimePoint heal = world.sim().now();
  const Duration max_wait = seconds(240);
  const Duration settle = seconds(45);
  TimePoint converged_at{};
  bool stable = false;
  while (world.sim().now() - heal < max_wait) {
    if (checker.converged()) {
      if (converged_at == TimePoint{}) converged_at = world.sim().now();
      if (world.sim().now() - converged_at >= settle) {
        stable = true;
        break;
      }
    } else {
      converged_at = TimePoint{};
    }
    world.sim().run_for(seconds(1));
  }

  ScenarioResult result;
  result.name = name;
  result.faults = controller.faults_injected();
  result.violations = checker.violations();
  if (stable && result.violations.empty()) {
    result.recovery_s = to_seconds(converged_at - heal);
  } else if (result.violations.empty()) {
    result.violations.push_back("convergence never held for " +
                                std::to_string(to_seconds(settle)) + " s");
  }
  world.sim().metrics().gauge("chaos.recovery_s", name).set(result.recovery_s);
  world.sim().metrics().gauge("chaos.violations", name)
      .set(static_cast<double>(result.violations.size()));

  // The same outage as seen from the telemetry side: when did the SLO
  // monitor first flag a component after the fault started, and when did
  // the last component swing back to healthy after the heal. Mild faults
  // the mesh rides out legitimately never trip a transition (-1).
  for (const auto& tr : world.health().transitions()) {
    if (tr.at <= t0) continue;
    if (result.detect_s < 0 && tr.to != obs::HealthState::kHealthy) {
      result.detect_s = to_seconds(tr.at - t0);
    }
    if (tr.to == obs::HealthState::kHealthy && tr.at >= heal) {
      result.observed_recovery_s = to_seconds(tr.at - heal);
    }
  }
  if (world.health().worst_state() != obs::HealthState::kHealthy) {
    result.observed_recovery_s = -1.0;  // still unhealthy at scenario end
  }
  world.sim().metrics().gauge("health.detect_s", name).set(result.detect_s);
  world.sim().metrics().gauge("health.observed_recovery_s", name)
      .set(result.observed_recovery_s);
  return result;
}

std::uint64_t parse_seed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) return std::strtoull(argv[i + 1], nullptr, 10);
    if (arg.rfind("--seed=", 0) == 0) return std::strtoull(arg.c_str() + 7, nullptr, 10);
  }
  return 2026;
}

}  // namespace

int main(int argc, char** argv) {
  wav::benchx::obs_init(argc, argv);
  const std::uint64_t seed = parse_seed(argc, argv);
  benchx::banner("Resilience — fault injection and convergence recovery",
                 "4-site WAVNet mesh under scripted faults (seed " +
                     std::to_string(seed) + "); recovery timed from heal.");

  const std::vector<std::pair<std::string, PlanBuilder>> scenarios = {
      {"link-flap",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         // Short flaps: downtime stays inside the pulse/idle budget, so
         // the mesh must ride it out without a single link loss.
         plan.link_flap(t0 + seconds(5), "s2", 3, seconds(4));
         return t0 + seconds(20);
       }},
      {"link-outage",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         // 45 s dark: longer than the idle timeout, so every link through
         // s2 dies and must be re-brokered + re-punched after the heal.
         plan.link_down(t0 + seconds(5), "s2");
         plan.link_up(t0 + seconds(50), "s2");
         return t0 + seconds(50);
       }},
      {"wan-partition",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         // Core partition between site groups; the rendezvous stays
         // reachable from both halves (it is in neither group).
         plan.partition(t0 + seconds(5), {"s1", "s2"}, {"s3", "s4"});
         plan.heal(t0 + seconds(65), {"s1", "s2"}, {"s3", "s4"});
         return t0 + seconds(65);
       }},
      {"nat-reboot",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         // Power-cycle s3's gateway: bindings vanish, tunnels through it
         // rot and must re-punch fresh mappings.
         plan.nat_crash(t0 + seconds(5), "s3");
         plan.nat_restart(t0 + seconds(20), "s3");
         return t0 + seconds(20);
       }},
      {"rendezvous-crash",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         // The server restarts with empty tables; agents must detect the
         // amnesia (nacked heartbeats) and re-register.
         plan.rendezvous_crash(t0 + seconds(5), "rendezvous");
         plan.rendezvous_restart(t0 + seconds(25), "rendezvous");
         return t0 + seconds(25);
       }},
      {"loss-storm",
       [](chaos::FaultPlan& plan, TimePoint t0) {
         fabric::PairPath storm = kDefaultPath;
         storm.loss = 0.3;
         storm.jitter_stddev = milliseconds(5);
         plan.path_storm(t0 + seconds(5), "s1", "s2", storm);
         plan.path_storm(t0 + seconds(35), "s1", "s2", kDefaultPath);
         return t0 + seconds(35);
       }},
  };

  TextTable table{"Recovery time after heal (invariants: mesh re-punched, all "
                  "agents registered, no leaked handlers)"};
  table.header(
      {"Scenario", "Faults", "Recovery (s)", "Detected (s)", "SLO recov (s)",
       "Violations"});
  std::size_t total_violations = 0;
  for (const auto& [name, build] : scenarios) {
    const ScenarioResult result = run_scenario(name, seed, build);
    total_violations += result.violations.size();
    table.row({result.name, std::to_string(result.faults),
               result.recovery_s < 0 ? std::string("DNF") : fmt_f(result.recovery_s, 0),
               result.detect_s < 0 ? std::string("-") : fmt_f(result.detect_s, 0),
               result.observed_recovery_s < 0 ? std::string("-")
                                              : fmt_f(result.observed_recovery_s, 0),
               std::to_string(result.violations.size())});
    for (const std::string& v : result.violations) {
      std::printf("  [%s] INVARIANT VIOLATED: %s\n", result.name.c_str(), v.c_str());
    }
  }
  table.print();
  std::printf(
      "\nShape check: flaps and storms ride out on keepalives (recovery ~0);\n"
      "outages, partitions, NAT reboots and rendezvous crashes recover via\n"
      "idle-detection + backoff re-punch and nacked-heartbeat re-registration.\n");
  return total_violations > 125 ? 125 : static_cast<int>(total_violations);
}
