// evacuation: a whole rack of VMs pre-copied across the WAN at once.
//
// Forty 32 MiB VMs with seeded, mixed dirty rates run on host h1; every
// one starts a live pre-copy migration to host h2 at the same instant, so
// all page streams share h1's access link. Each VM serves HTTP, and
// closed-loop GET clients at a third site (h3) hit those servers for the
// whole evacuation: the foreground traffic crosses the congested uplink,
// stalls through each VM's stop-and-copy pause, and follows the VM when
// its gratuitous ARP floods the WAV-Switches on resume. Afterwards every
// VM must answer a GET at its new location.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/http.hpp"
#include "bench.hpp"
#include "harness.hpp"

namespace wav::perfbench {
namespace {

constexpr Duration kRtt = milliseconds(20);
constexpr std::size_t kVms = 40;
constexpr std::uint64_t kVmMemoryMib = 32;
constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint16_t kMigrationPort = 8002;
constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 200;
constexpr ByteSize kObject = kibibytes(1);
constexpr Duration kRunCap = seconds(1200);
constexpr Duration kRunStep = seconds(5);
constexpr Duration kVerifyCap = seconds(60);

// Dirty-rate classes (pages/s, hot working-set fraction) drawn per VM.
struct DirtyClass {
  double pages_per_sec;
  double hot_fraction;
};
constexpr DirtyClass kDirtyClasses[] = {{50, 0.01}, {250, 0.02}, {1000, 0.05}};

class Evacuation final : public Scenario {
 public:
  Evacuation(std::uint64_t seed, Spans& spans) : seed_(seed), spans_(spans) {}

  void build() override {
    world_ = std::make_unique<benchx::World>(benchx::Plane::kWavnet, seed_);
    world_->build_emulated(3, megabits_per_sec(500), kRtt);
    // Per-packet delay jitter on every core path, so latencies depend on
    // the seed and not only on the topology.
    fabric::PairPath path;
    path.one_way = kRtt / 2 - microseconds(200);  // as build_emulated sets it
    path.jitter_stddev = microseconds(200);
    const std::vector<std::string> names = world_->wan().attachment_names();
    for (std::size_t a = 0; a < names.size(); ++a) {
      for (std::size_t b = a + 1; b < names.size(); ++b) {
        world_->wan().set_path(names[a], names[b], path);
      }
    }
  }

  void deploy() override {
    {
      Spans::Scope span{spans_, "world.deploy"};
      world_->deploy();
    }
    Rng inputs{seed_ * 0x9E3779B97F4A7C15ULL + 29};
    for (std::size_t i = 0; i < kVms; ++i) {
      const DirtyClass& dc = kDirtyClasses[inputs.uniform_u64(0, 2)];
      vm::VmConfig cfg;
      cfg.name = "vm" + std::to_string(i + 1);
      cfg.memory = mebibytes(kVmMemoryMib);
      cfg.dirty_pages_per_sec = dc.pages_per_sec;
      cfg.hot_fraction = dc.hot_fraction;
      cfg.virtual_ip =
          net::Ipv4Address::from_octets(10, 10, 1, static_cast<std::uint8_t>(10 + i));
      vms_.push_back(std::make_unique<vm::VirtualMachine>(world_->sim(), cfg));
      Spans::Scope span{spans_, "world.attach_vm"};
      world_->attach_vm(*vms_.back(), "h1");
      vm_tcp_.push_back(std::make_unique<tcp::TcpLayer>(vms_.back()->stack()));
      servers_.push_back(std::make_unique<apps::HttpServer>(*vm_tcp_.back(), kHttpPort));
      servers_.back()->add_resource("/obj", kObject);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      targets_.push_back(static_cast<std::size_t>(inputs.uniform_u64(0, kVms - 1)));
    }
  }

  void run() override {
    tcp::TcpLayer& client_tcp = world_->host("h3").tcp();
    {
      Spans::Scope span{spans_, "apps.ab_start"};
      for (const std::size_t target : targets_) {
        apps::ApacheBench::Config cfg;
        cfg.concurrency = 1;
        cfg.total_requests = kRequestsPerClient;
        cfg.path = "/obj";
        cfg.port = kHttpPort;
        clients_.push_back(
            std::make_unique<apps::ApacheBench>(client_tcp, vms_[target]->ip(), cfg));
        clients_.back()->start();
      }
    }
    first_start_ = world_->sim().now();
    results_.resize(kVms);
    resumed_at_.resize(kVms);
    for (std::size_t i = 0; i < kVms; ++i) {
      vm::MigrationConfig cfg;
      cfg.port = static_cast<std::uint16_t>(kMigrationPort + i);
      Spans::Scope span{spans_, "world.migrate"};
      migrations_.push_back(world_->migrate(
          *vms_[i], "h1", "h2", cfg, [this, i](const vm::MigrationResult& r) {
            results_[i] = r;
            resumed_at_[i] = world_->sim().now();
          }));
    }
    const TimePoint cap = world_->sim().now() + kRunCap;
    while (!all_done() && world_->sim().now() < cap) {
      Spans::Scope span{spans_, "sim.run_for"};
      world_->sim().run_for(kRunStep);
    }
  }

  Outcome outcome() override {
    Outcome out;
    out.op_name = "migrations + requests";
    SampleSet downtime_ms;
    double rounds = 0;
    double bytes = 0;
    TimePoint last_resume = first_start_;
    for (std::size_t i = 0; i < kVms; ++i) {
      out.attempted += 1;
      if (!results_[i] || !results_[i]->ok) {
        out.failed += 1;
        out.errors.push_back("migration of " + vms_[i]->name() + " did not return ok");
        continue;
      }
      downtime_ms.add(to_milliseconds(results_[i]->downtime));
      rounds += results_[i]->rounds;
      bytes += static_cast<double>(results_[i]->bytes_transferred.bytes);
      if (*resumed_at_[i] > last_resume) last_resume = *resumed_at_[i];
    }

    for (const auto& ab : clients_) {
      const apps::ApacheBench::Report r = ab->report();
      out.attempted += kRequestsPerClient;
      out.failed += kRequestsPerClient - r.completed;
      if (!ab->finished() || r.completed + r.failed != kRequestsPerClient) {
        out.errors.push_back("a GET client did not account for all its requests");
      }
      for (const double x : r.request_ms.samples()) out.latency.add(x);
      for (std::size_t k = 0; k < r.failed; ++k) out.latency.add(kFailedMs);
    }
    verify_resumed_vms(out);

    const double ok_vms = static_cast<double>(downtime_ms.count());
    rounds_mean_ = ok_vms > 0 ? rounds / ok_vms : 0;
    bytes_ratio_ = bytes / kMemoryBytes;
    out.latency_name = "GET request during evacuation (closed loop)";
    out.modeled = {
        {"rpc_p50_ms", out.latency.percentile(50)},
        {"rpc_p99_ms", out.latency.percentile(99)},
        {"evac_makespan_s", to_seconds(last_resume - first_start_)},
        {"downtime_p50_ms", downtime_ms.percentile(50)},
        {"downtime_p75_ms", downtime_ms.percentile(75)},
        {"rounds_mean", rounds_mean_},
        {"bytes_ratio", bytes_ratio_},
    };
    return out;
  }

  void add_counts(Counts& counts) override {
    add_link_counts(world_->wan(), counts);
    counts["vm.rounds_mean"] = rounds_mean_;
    counts["vm.bytes_ratio"] = bytes_ratio_;
    counts["vm.memory_bytes"] = kMemoryBytes;
  }

  sim::Simulation& sim() override { return world_->sim(); }

 private:
  static constexpr double kFailedMs = 1e9;
  static constexpr double kMemoryBytes =
      static_cast<double>(kVms) * static_cast<double>(mebibytes(kVmMemoryMib).bytes);

  [[nodiscard]] bool all_done() const {
    for (const auto& r : results_) {
      if (!r) return false;
    }
    for (const auto& ab : clients_) {
      if (!ab->finished()) return false;
    }
    return true;
  }

  /// One GET per VM from the client site after the evacuation: a VM that
  /// resumed but is unreachable at its new location fails the run.
  void verify_resumed_vms(Outcome& out) {
    tcp::TcpLayer& client_tcp = world_->host("h3").tcp();
    std::vector<std::unique_ptr<apps::ApacheBench>> probes;
    for (const auto& v : vms_) {
      apps::ApacheBench::Config cfg;
      cfg.concurrency = 1;
      cfg.total_requests = 1;
      cfg.path = "/obj";
      cfg.port = kHttpPort;
      probes.push_back(std::make_unique<apps::ApacheBench>(client_tcp, v->ip(), cfg));
      probes.back()->start();
    }
    const TimePoint cap = world_->sim().now() + kVerifyCap;
    const auto probes_done = [&probes] {
      for (const auto& p : probes) {
        if (!p->finished()) return false;
      }
      return true;
    };
    while (!probes_done() && world_->sim().now() < cap) world_->sim().run_for(seconds(1));
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      out.attempted += 1;
      if (probes[i]->report().completed != 1) {
        out.failed += 1;
        out.errors.push_back(vms_[i]->name() + " did not answer a GET after resuming");
      }
    }
  }

  std::uint64_t seed_;
  Spans& spans_;
  std::unique_ptr<benchx::World> world_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  std::vector<std::unique_ptr<tcp::TcpLayer>> vm_tcp_;
  std::vector<std::unique_ptr<apps::HttpServer>> servers_;
  std::vector<std::size_t> targets_;
  std::vector<std::unique_ptr<apps::ApacheBench>> clients_;
  std::vector<benchx::World::MigrationHandles> migrations_;
  std::vector<std::optional<vm::MigrationResult>> results_;
  std::vector<std::optional<TimePoint>> resumed_at_;
  TimePoint first_start_{};
  double rounds_mean_{0};
  double bytes_ratio_{0};
};

}  // namespace

std::unique_ptr<Scenario> make_evacuation(std::uint64_t seed, Spans& spans) {
  return std::make_unique<Evacuation>(seed, spans);
}

}  // namespace wav::perfbench
