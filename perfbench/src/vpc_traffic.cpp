// vpc-traffic: a settled WAVNet VPC carrying tenant TCP traffic.
//
// Sixteen hosts, each behind its own NAT gateway, sit in four regions
// with unequal inter-region RTTs; the last host of every region is behind
// a symmetric NAT, so its pairs cannot hole-punch and ride the relay
// co-hosted on the rendezvous node. After deploy (registration + full
// mesh of tunnels) the CAN and rendezvous layers idle while the data
// plane carries:
//   * closed-loop 1 KiB GETs — every host runs one ApacheBench client
//     against the HttpServer of every other host, each issuing a seeded
//     number of requests (per-packet cost dominates), and
//   * one bulk ttcp transfer of full-MSS segments out of every region to
//     the region two steps away, between seeded cone-NAT hosts.
// Every region pair and every traversal kind (direct, relayed) carries
// traffic whatever the seed; the seed sets the request counts and which
// hosts carry the bulk flows.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/http.hpp"
#include "apps/netperf.hpp"
#include "bench.hpp"
#include "fabric/network.hpp"
#include "fabric/wan.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "wavnet/host.hpp"

namespace wav::perfbench {
namespace {

constexpr std::size_t kRegions = 4;
constexpr std::size_t kHostsPerRegion = 4;
constexpr std::size_t kHosts = kRegions * kHostsPerRegion;
constexpr std::uint16_t kRelayPort = 5300;
constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint16_t kBulkPort = 5010;

// One-way core delay between regions (ms); the diagonal is intra-region.
constexpr double kRegionDelayMs[kRegions][kRegions] = {
    {2, 10, 35, 60},
    {10, 2, 25, 50},
    {35, 25, 2, 20},
    {60, 50, 20, 2},
};
constexpr Duration kJitter = microseconds(200);  // per-packet core delay stddev

constexpr std::uint64_t kMinRequests = 40;  // per client, seeded in [min, max]
constexpr std::uint64_t kMaxRequests = 80;
constexpr ByteSize kObject = kibibytes(1);
constexpr std::uint64_t kBulkBytes = 32ull * 1024 * 1024;
constexpr Duration kRunCap = seconds(600);
constexpr Duration kRunStep = seconds(5);

std::string site_name(std::size_t i) { return "s" + std::to_string(i + 1); }
std::size_t region_of(std::size_t i) { return i / kHostsPerRegion; }
bool is_symmetric(std::size_t i) { return i % kHostsPerRegion == kHostsPerRegion - 1; }

class VpcTraffic final : public Scenario {
 public:
  VpcTraffic(std::uint64_t seed, Spans& spans) : seed_(seed), spans_(spans) {}

  void build() override {
    sim_ = std::make_unique<sim::Simulation>(seed_);
    network_ = std::make_unique<fabric::Network>(*sim_);
    wan_ = std::make_unique<fabric::Wan>(*network_);
    for (std::size_t i = 0; i < kHosts; ++i) {
      fabric::SiteConfig cfg;
      cfg.name = site_name(i);
      cfg.access_rate = megabits_per_sec(100);
      cfg.access_delay = microseconds(100);
      cfg.nat.type =
          is_symmetric(i) ? nat::NatType::kSymmetric : nat::NatType::kPortRestrictedCone;
      nodes_.push_back(wan_->add_site(cfg).hosts[0]);
    }
    fabric::HostNode& rv_node = wan_->add_public_host("rendezvous");
    for (std::size_t i = 0; i < kHosts; ++i) {
      for (std::size_t j = i + 1; j < kHosts; ++j) {
        fabric::PairPath path;
        path.one_way = milliseconds_f(kRegionDelayMs[region_of(i)][region_of(j)]);
        path.jitter_stddev = kJitter;
        wan_->set_path(site_name(i), site_name(j), path);
      }
    }
    fabric::PairPath to_rv;
    to_rv.one_way = milliseconds(15);
    to_rv.jitter_stddev = kJitter;
    wan_->set_default_paths(to_rv);

    overlay::RendezvousServer::Config rv_cfg;
    rv_cfg.relays.push_back({rv_node.primary_address(), kRelayPort});
    rendezvous_ = std::make_unique<overlay::RendezvousServer>(rv_node, rv_cfg);
    relay::RelayServer::Config relay_cfg;
    relay_cfg.port = kRelayPort;
    relay_cfg.max_channels = kHosts * kHosts;
    relay_ = std::make_unique<relay::RelayServer>(rendezvous_->udp(), relay_cfg);

    for (std::size_t i = 0; i < kHosts; ++i) {
      wavnet::WavnetHost::Config cfg;
      cfg.agent.name = "h" + std::to_string(i + 1);
      cfg.agent.rendezvous = rendezvous_->host_endpoint();
      cfg.virtual_ip =
          net::Ipv4Address::from_octets(10, 10, 0, static_cast<std::uint8_t>(10 + i));
      hosts_.push_back(std::make_unique<wavnet::WavnetHost>(*nodes_[i], cfg));
      tcp_.push_back(std::make_unique<tcp::TcpLayer>(hosts_.back()->stack()));
      servers_.push_back(std::make_unique<apps::HttpServer>(*tcp_.back(), kHttpPort));
      servers_.back()->add_resource("/obj", kObject);
    }
  }

  void deploy() override {
    {
      Spans::Scope span{spans_, "rendezvous.bootstrap"};
      rendezvous_->bootstrap();
    }
    {
      Spans::Scope span{spans_, "wavnet.start"};
      for (auto& h : hosts_) h->start();
    }
    {
      Spans::Scope span{spans_, "sim.run_for"};
      sim_->run_for(seconds(5));
    }
    {
      Spans::Scope span{spans_, "wavnet.connect"};
      for (std::size_t i = 0; i < kHosts; ++i) {
        for (std::size_t j = i + 1; j < kHosts; ++j) {
          hosts_[i]->connect(hosts_[j]->agent().self_info());
        }
      }
    }
    Spans::Scope span{spans_, "sim.run_for"};
    sim_->run_for(seconds(15));
  }

  void run() override {
    // Inputs come from the seed, not from the simulation's own stream.
    Rng inputs{seed_ * 0x9E3779B97F4A7C15ULL + 17};
    {
      Spans::Scope span{spans_, "apps.ab_start"};
      for (std::size_t i = 0; i < kHosts; ++i) {
        for (std::size_t j = 0; j < kHosts; ++j) {
          if (j == i) continue;
          apps::ApacheBench::Config cfg;
          cfg.concurrency = 1;
          cfg.total_requests = inputs.uniform_u64(kMinRequests, kMaxRequests);
          cfg.path = "/obj";
          cfg.port = kHttpPort;
          clients_.push_back(
              std::make_unique<apps::ApacheBench>(*tcp_[i], hosts_[j]->virtual_ip(), cfg));
          budgets_.push_back(cfg.total_requests);
          clients_.back()->start();
        }
      }
    }
    {
      Spans::Scope span{spans_, "apps.bulk_start"};
      for (std::size_t f = 0; f < kRegions; ++f) {
        // Cone-NAT hosts (indices 0..2 of a region) punch direct tunnels.
        const std::size_t src =
            f * kHostsPerRegion + static_cast<std::size_t>(inputs.uniform_u64(0, 2));
        const std::size_t dst = (f + 2) % kRegions * kHostsPerRegion +
                                static_cast<std::size_t>(inputs.uniform_u64(0, 2));
        apps::TtcpTransfer::Config cfg;
        cfg.port = static_cast<std::uint16_t>(kBulkPort + f);
        cfg.total_bytes = kBulkBytes;
        bulk_.push_back(std::make_unique<apps::TtcpTransfer>(
            *tcp_[src], *tcp_[dst], hosts_[dst]->virtual_ip(), cfg));
        bulk_reports_.emplace_back();
        bulk_.back()->start([this, f](const apps::TtcpTransfer::Report& r) {
          bulk_reports_[f] = r;
        });
      }
    }
    const TimePoint cap = sim_->now() + kRunCap;
    while (!all_done() && sim_->now() < cap) {
      Spans::Scope span{spans_, "sim.run_for"};
      sim_->run_for(kRunStep);
    }
  }

  Outcome outcome() override {
    Outcome out;
    out.op_name = "requests + streams";
    std::uint64_t completed = 0;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      const apps::ApacheBench::Report r = clients_[c]->report();
      out.attempted += budgets_[c];
      completed += r.completed;
      out.failed += budgets_[c] - r.completed;
      if (!clients_[c]->finished() || r.completed + r.failed != budgets_[c]) {
        out.errors.push_back("a GET client did not account for all its requests");
      }
      for (const double x : r.request_ms.samples()) out.latency.add(x);
      // A failed request counts as missing every latency limit.
      for (std::size_t k = 0; k < r.failed; ++k) out.latency.add(kFailedMs);
    }
    std::uint64_t served = 0;
    for (const auto& s : servers_) served += s->stats().requests_served;
    if (served < completed) out.errors.push_back("clients completed more GETs than served");

    double goodput_mbps = 0;
    for (const auto& r : bulk_reports_) {
      out.attempted += 1;
      if (!r || r->bytes.bytes != kBulkBytes) {
        out.failed += 1;
        out.errors.push_back("a bulk stream did not deliver every byte");
        continue;
      }
      goodput_mbps += static_cast<double>(r->bytes.bytes) * 8.0 / 1e6 / to_seconds(r->elapsed);
    }
    const std::uint64_t relayed = sim_->metrics().counter_total("overlay.traversal_relayed");
    if (relayed == 0) out.errors.push_back("no tunnel took the relay path");

    out.latency_name = "GET request (closed loop)";
    out.modeled = {
        {"rpc_p50_ms", out.latency.percentile(50)},
        {"rpc_p99_ms", out.latency.percentile(99)},
        {"goodput_mbps", goodput_mbps},
        {"gets_completed", static_cast<double>(completed)},
        {"tunnels_relayed", static_cast<double>(relayed)},
        {"run_sim_s", to_seconds(sim_->now())},
    };
    return out;
  }

  void add_counts(Counts& counts) override { add_link_counts(*wan_, counts); }

  sim::Simulation& sim() override { return *sim_; }

 private:
  static constexpr double kFailedMs = 1e9;

  [[nodiscard]] bool all_done() const {
    for (const auto& ab : clients_) {
      if (!ab->finished()) return false;
    }
    for (const auto& r : bulk_reports_) {
      if (!r) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  Spans& spans_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<fabric::Network> network_;
  std::unique_ptr<fabric::Wan> wan_;
  std::vector<fabric::HostNode*> nodes_;
  std::unique_ptr<overlay::RendezvousServer> rendezvous_;
  std::unique_ptr<relay::RelayServer> relay_;
  std::vector<std::unique_ptr<wavnet::WavnetHost>> hosts_;
  std::vector<std::unique_ptr<tcp::TcpLayer>> tcp_;
  std::vector<std::unique_ptr<apps::HttpServer>> servers_;
  std::vector<std::unique_ptr<apps::ApacheBench>> clients_;
  std::vector<std::uint64_t> budgets_;  // requests per client
  std::vector<std::unique_ptr<apps::TtcpTransfer>> bulk_;
  std::vector<std::optional<apps::TtcpTransfer::Report>> bulk_reports_;
};

}  // namespace

std::unique_ptr<Scenario> make_vpc_traffic(std::uint64_t seed, Spans& spans) {
  return std::make_unique<VpcTraffic>(seed, spans);
}

}  // namespace wav::perfbench
