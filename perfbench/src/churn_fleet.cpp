// churn-fleet: the bench_churn_scale scenario at one fixed population.
//
// A four-shard rendezvous fleet with one co-hosted relay per shard serves
// a population of hosts with declared NAT types drawn from the Trautwein
// global mix. An open-loop seeded process of arrivals, graceful
// departures and crashes runs for 420 simulated seconds while shard rv1
// is killed at 180 s and restarted at 240 s; the world then quiesces
// until 620 s, when the invariant checker must report zero violations.
// The data plane sends no frames: CAN lookups, registration, hole
// punching, relay allocation and timers do all the work.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chaos/chaos_controller.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "churn/churn.hpp"
#include "fabric/network.hpp"
#include "fabric/wan.hpp"
#include "overlay/host_agent.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"

namespace wav::perfbench {
namespace {

constexpr std::size_t kHosts = 500;
constexpr std::size_t kShards = 4;
constexpr std::uint16_t kRelayPort = 5300;
constexpr Duration kCanSettle = seconds(3);
constexpr Duration kShardCrashAt = seconds(180);
constexpr Duration kShardRestartAt = seconds(240);
constexpr Duration kChurnStop = seconds(420);
constexpr Duration kEnd = seconds(620);
constexpr Duration kPhase = seconds(62);  // one run_for span per tenth

class ChurnFleet final : public Scenario {
 public:
  ChurnFleet(std::uint64_t seed, Spans& spans) : seed_(seed), spans_(spans) {}

  void build() override {
    sim_ = std::make_unique<sim::Simulation>(seed_);
    network_ = std::make_unique<fabric::Network>(*sim_);
    wan_ = std::make_unique<fabric::Wan>(*network_);

    std::vector<fabric::HostNode*> rv_nodes;
    std::vector<net::Endpoint> relay_eps;
    for (std::size_t s = 0; s < kShards; ++s) {
      rv_nodes.push_back(&wan_->add_public_host("rv" + std::to_string(s)));
      relay_eps.push_back({rv_nodes[s]->primary_address(), kRelayPort});
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      overlay::RendezvousServer::Config cfg;
      cfg.relays = relay_eps;
      shards_.push_back(std::make_unique<overlay::RendezvousServer>(*rv_nodes[s], cfg));
    }
    std::vector<net::Endpoint> shard_eps;
    for (const auto& shard : shards_) shard_eps.push_back(shard->host_endpoint());
    for (std::size_t s = 0; s < kShards; ++s) {
      std::vector<net::Endpoint> peers;
      for (std::size_t t = 0; t < kShards; ++t) {
        if (t != s) peers.push_back(shard_eps[t]);
      }
      shards_[s]->set_shard_peers(std::move(peers));
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      relay::RelayServer::Config cfg;
      cfg.port = kRelayPort;
      cfg.max_channels = kHosts;  // provisioned for the population
      relays_.push_back(std::make_unique<relay::RelayServer>(shards_[s]->udp(), cfg));
    }

    churn::ChurnPlan plan;
    plan.nat_mix = churn::NatMix::trautwein_global();
    engine_ = std::make_unique<churn::ChurnEngine>(*sim_, plan);
    agents_.reserve(kHosts);
    for (std::size_t i = 0; i < kHosts; ++i) {
      const std::string name = "h" + std::to_string(i + 1);
      fabric::HostNode& node = wan_->add_public_host(name);
      overlay::HostAgent::Config cfg;
      cfg.name = name;
      cfg.rendezvous_shards = shard_eps;
      cfg.nat_type = plan.nat_mix.sample(sim_->rng());
      cfg.attributes = {sim_->rng().uniform(), sim_->rng().uniform()};
      cfg.metrics_instance = "fleet";
      cfg.repunch_give_up = 4;
      agents_.push_back(std::make_unique<overlay::HostAgent>(node, cfg));
      engine_->add_host(*agents_.back());
    }

    checker_ = std::make_unique<chaos::InvariantChecker>();
    engine_->attach(*checker_);
    checker_->expect_can_coverage(2);
    for (auto& shard : shards_) checker_->add_rendezvous(*shard);
    for (auto& r : relays_) checker_->add_relay(*r);

    controller_ = std::make_unique<chaos::ChaosController>(*sim_);
    controller_->set_wan(*wan_);
    for (std::size_t s = 0; s < kShards; ++s) {
      controller_->add_rendezvous("rv" + std::to_string(s), *shards_[s],
                                  shards_[0]->can_endpoint());
    }
  }

  void deploy() override {
    {
      Spans::Scope span{spans_, "rendezvous.bootstrap"};
      shards_[0]->bootstrap();
      for (std::size_t s = 1; s < kShards; ++s) shards_[s]->join(shards_[0]->can_endpoint());
    }
    Spans::Scope span{spans_, "sim.run_for"};
    sim_->run_for(kCanSettle);
  }

  void run() override {
    chaos::FaultPlan faults;
    faults.rendezvous_crash(TimePoint{kShardCrashAt}, "rv1")
        .rendezvous_restart(TimePoint{kShardRestartAt}, "rv1");
    controller_->schedule(faults);
    {
      Spans::Scope span{spans_, "churn.start"};
      engine_->start();
    }
    sim_->schedule_after(kChurnStop, [this] { engine_->stop(); });
    while (sim_->now() < TimePoint{kEnd}) {
      Spans::Scope span{spans_, "sim.run_for"};
      const TimePoint next = sim_->now() + kPhase;
      sim_->run_until(next < TimePoint{kEnd} ? next : TimePoint{kEnd});
    }
  }

  Outcome outcome() override {
    Outcome out;
    const churn::ChurnEngine::Stats& st = engine_->stats();
    // The counted operation is an arrival, which must end registered. A
    // dial (rendezvous query + traversal ladder to one peer) can fail for
    // modeled reasons — the peer departed or crashed meanwhile — so dial
    // failures are a modeled outcome, reported beside it.
    out.op_name = "arrivals registered";
    out.attempted = st.arrivals;
    // The engine keeps arrival->registered latency only as a histogram.
    out.latency_name = "converge (arrival -> registered)";
    if (const auto* h = sim_->metrics().find_histogram("churn.converge_ms", "churn")) {
      out.latency.add_histogram(*h);
    }
    const std::uint64_t registered = out.latency.count();
    out.failed = st.arrivals > registered ? st.arrivals - registered : 0;
    const std::uint64_t dials_failed = st.connects_attempted - st.connects_ok;
    out.modeled = {
        {"converge_p50_ms", out.latency.percentile(50)},
        {"converge_p99_ms", out.latency.percentile(99)},
        {"dials", static_cast<double>(st.connects_attempted)},
        {"dials_failed", static_cast<double>(dials_failed)},
        {"dial_failed_ratio", st.connects_attempted > 0
                                  ? static_cast<double>(dials_failed) /
                                        static_cast<double>(st.connects_attempted)
                                  : 0.0},
        {"rehomes", static_cast<double>(st.rehomes)},
    };
    for (const std::string& v : checker_->violations()) {
      out.errors.push_back("invariant violation: " + v);
    }
    if (registered == 0) out.errors.push_back("no host ever registered");
    return out;
  }

  void add_counts(Counts& counts) override {
    const churn::ChurnEngine::Stats& st = engine_->stats();
    counts["churn.arrivals"] = static_cast<double>(st.arrivals);
    counts["churn.departures"] = static_cast<double>(st.departures_graceful + st.crashes);
    add_link_counts(*wan_, counts);
  }

  sim::Simulation& sim() override { return *sim_; }

 private:
  std::uint64_t seed_;
  Spans& spans_;
  // Declaration order is destruction order in reverse: the simulation
  // outlives every component holding timers on it.
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<fabric::Network> network_;
  std::unique_ptr<fabric::Wan> wan_;
  std::vector<std::unique_ptr<overlay::RendezvousServer>> shards_;
  std::vector<std::unique_ptr<relay::RelayServer>> relays_;
  std::vector<std::unique_ptr<overlay::HostAgent>> agents_;
  std::unique_ptr<churn::ChurnEngine> engine_;
  std::unique_ptr<chaos::InvariantChecker> checker_;
  std::unique_ptr<chaos::ChaosController> controller_;
};

}  // namespace

std::unique_ptr<Scenario> make_churn_fleet(std::uint64_t seed, Spans& spans) {
  return std::make_unique<ChurnFleet>(seed, spans);
}

}  // namespace wav::perfbench
