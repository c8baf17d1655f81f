// Flow-trace scenario sweep: drives sampled flows across every data-path
// class the causal tracer distinguishes — a direct hole-punched tunnel,
// a relayed (TURN-style triangle) tunnel, a NAT filter fault, and a
// chaos-injected relay crash — and reports per-scenario delivery/drop
// accounting plus the dominant hop-pair latency leg.
//
// Sampling runs at shift 0 (every flow) so the exports are complete;
// flows/hops land in --flows-out/--hops-out (one numbered file per
// world) and the flow.* counters/histograms land in --metrics-out, which
// CI double-runs for byte-identical exports and gates with metrics_diff
// against bench/baselines/flow-trace-seed2026.jsonl.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/chaos_controller.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "stack/icmp.hpp"

namespace {

using namespace wav;

struct ScenarioResult {
  std::string name;
  std::uint64_t flows{0};
  std::uint64_t passages{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped{0};
  std::string dominant_drop{"-"};  // "reason" of the top flow.drops.* counter
};

/// Sends `count` echo requests h1 -> h2 at a 500 ms cadence.
int ping_burst(benchx::World& world, stack::IcmpLayer& icmp,
               stack::IcmpLayer& responder, int count) {
  (void)responder;  // must stay alive to answer on h2's stack
  int replies = 0;
  const std::uint16_t id = icmp.allocate_id();
  icmp.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  const net::Ipv4Address dst = world.host("h2").virtual_ip;
  for (int i = 0; i < count; ++i) {
    icmp.send_echo_request(dst, id, static_cast<std::uint16_t>(i + 1), 56);
    world.sim().run_for(milliseconds(500));
  }
  world.sim().run_for(seconds(1));
  return replies;
}

ScenarioResult summarize(const std::string& name, benchx::World& world) {
  ScenarioResult r;
  r.name = name;
  r.flows = world.sim().flows().flow_count();
  r.passages = world.sim().flows().passages();
  r.delivered = world.sim().metrics().counter_total("flow.delivered");
  r.dropped = world.sim().metrics().counter_total("flow.dropped");
  static const char* kReasons[] = {
      "fdb_miss",     "backlog",      "arp_unresolved", "nat_mapping_miss",
      "nat_filtered", "nat_down",     "relay_unbound",  "relay_capacity",
      "relay_down",   "link_down",    "link_queue",     "wire_loss",
      "partition",    "ttl_expired",  "no_route",       "group_isolation"};
  std::uint64_t best = 0;
  for (const char* reason : kReasons) {
    const std::uint64_t n =
        world.sim().metrics().counter_total(std::string("flow.drops.") + reason);
    if (n > best) {
      best = n;
      r.dominant_drop = reason;
    }
  }
  return r;
}

ScenarioResult run_direct(std::uint64_t seed) {
  benchx::World world{benchx::Plane::kWavnet, seed};
  world.build_emulated(2, megabits_per_sec(100), milliseconds(40));
  world.sim().flows().set_sample_shift(0);
  world.deploy();
  stack::IcmpLayer icmp{world.host("h1").stack()};
  stack::IcmpLayer responder{world.host("h2").stack()};
  const int replies = ping_burst(world, icmp, responder, 8);
  std::printf("  direct:          %d/8 echo replies\n", replies);
  return summarize("direct", world);
}

ScenarioResult run_relayed(std::uint64_t seed) {
  benchx::World world{benchx::Plane::kWavnet, seed};
  world.set_emulated_nat(nat::NatType::kSymmetric);
  world.enable_relay(1);
  world.build_emulated(2, megabits_per_sec(100), milliseconds(40));
  world.sim().flows().set_sample_shift(0);
  world.deploy();  // punch burns its deadline, then the relay rung binds
  stack::IcmpLayer icmp{world.host("h1").stack()};
  stack::IcmpLayer responder{world.host("h2").stack()};
  const int replies = ping_burst(world, icmp, responder, 8);
  std::printf("  relayed:         %d/8 echo replies\n", replies);
  return summarize("relayed", world);
}

ScenarioResult run_nat_drop(std::uint64_t seed) {
  benchx::World world{benchx::Plane::kWavnet, seed};
  world.build_emulated(2, megabits_per_sec(100), milliseconds(40));
  world.sim().flows().set_sample_shift(0);
  world.deploy();
  stack::IcmpLayer icmp{world.host("h1").stack()};
  stack::IcmpLayer responder{world.host("h2").stack()};
  const int before = ping_burst(world, icmp, responder, 2);
  // Flushing h1's NAT rebinds its tunnel onto a fresh public port; h2's
  // port-restricted filter has never seen that endpoint, so h2's gateway
  // drops the pings (nat_filtered) until keepalive repair kicks in.
  world.wan().site("s1")->gateway->flush_bindings();
  const int after = ping_burst(world, icmp, responder, 6);
  std::printf("  nat-drop:        %d/2 then %d/6 echo replies\n", before, after);
  return summarize("nat-drop", world);
}

ScenarioResult run_chaos_relay_drop(std::uint64_t seed) {
  benchx::World world{benchx::Plane::kWavnet, seed};
  world.set_emulated_nat(nat::NatType::kSymmetric);
  world.enable_relay(1);
  world.build_emulated(2, megabits_per_sec(100), milliseconds(40));
  world.sim().flows().set_sample_shift(0);
  world.deploy();
  stack::IcmpLayer icmp{world.host("h1").stack()};
  stack::IcmpLayer responder{world.host("h2").stack()};
  const int before = ping_burst(world, icmp, responder, 2);

  chaos::ChaosController controller{world.sim()};
  controller.add_relay("relay0", world.relay(0));
  chaos::FaultPlan plan;
  plan.relay_crash(world.sim().now() + milliseconds(100), "relay0");
  controller.schedule(plan);
  world.sim().run_for(milliseconds(200));

  const int after = ping_burst(world, icmp, responder, 6);
  std::printf("  chaos-relay:     %d/2 then %d/6 echo replies\n", before, after);
  return summarize("chaos-relay-drop", world);
}

std::uint64_t parse_seed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) return std::strtoull(argv[i + 1], nullptr, 10);
    if (arg.rfind("--seed=", 0) == 0) {
      return std::strtoull(arg.c_str() + 7, nullptr, 10);
    }
  }
  return 2026;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::obs_init(argc, argv);
  const std::uint64_t seed = parse_seed(argc, argv);
  benchx::banner("Flow tracing — per-hop latency and drop attribution",
                 "2-site WAVNet pairs across four path classes (seed " +
                     std::to_string(seed) + "); sampling shift 0.");

  std::vector<ScenarioResult> results;
  results.push_back(run_direct(seed));
  results.push_back(run_relayed(seed));
  results.push_back(run_nat_drop(seed));
  results.push_back(run_chaos_relay_drop(seed));

  TextTable table{"Sampled-flow accounting per path class"};
  table.header({"Scenario", "Flows", "Passages", "Delivered", "Dropped",
                "Dominant drop"});
  bool sane = true;
  for (const ScenarioResult& r : results) {
    table.row({r.name, std::to_string(r.flows), std::to_string(r.passages),
               std::to_string(r.delivered), std::to_string(r.dropped),
               r.dominant_drop});
    if (r.passages == 0) sane = false;
  }
  table.print();

  // Sanity contract mirrored by the committed baseline: the two healthy
  // scenarios deliver and never drop; the two fault scenarios drop with
  // the right dominant reason.
  sane = sane && results[0].dropped == 0 && results[0].delivered > 0;
  sane = sane && results[1].dropped == 0 && results[1].delivered > 0;
  sane = sane && results[2].dominant_drop == "nat_filtered";
  sane = sane && results[3].dominant_drop == "relay_down";
  if (!sane) {
    std::printf("\nFAIL: flow accounting violated the scenario contract\n");
    return 1;
  }
  std::printf("\nOK: all four path classes traced and attributed\n");
  return 0;
}
