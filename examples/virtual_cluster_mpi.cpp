// Scenario: build a virtual cluster for an MPI job.
//
// A user wants 4 well-connected hosts out of a 120-host volunteer pool
// (PlanetLab-like latencies). The distance locator picks a tight group
// with the paper's O(N*k) locality-sensitive algorithm; we then deploy
// those hosts as a real WAVNet virtual LAN and run the heat-distribution
// MPI program on them — and, for contrast, on a randomly chosen group.
//
//   build/examples/virtual_cluster_mpi
#include <cstdio>

#include "apps/mpi_apps.hpp"
#include "group/planetlab.hpp"
#include "harness.hpp"

using namespace wav;

namespace {

double run_heat_on(const group::LatencyMatrix& matrix,
                   const std::vector<std::size_t>& members, double* checksum) {
  benchx::World world{benchx::Plane::kWavnet, 31};
  world.build_emulated(members.size(), megabits_per_sec(100), milliseconds(10));
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      fabric::PairPath path;
      path.one_way = milliseconds_f(matrix.at(members[i], members[j]) / 2.0);
      world.wan().set_path(std::string("s").append(std::to_string(i + 1)),
                           std::string("s").append(std::to_string(j + 1)), path);
    }
  }
  world.deploy();

  std::vector<apps::MpiCluster::RankEnv> envs;
  for (std::size_t i = 0; i < members.size(); ++i) {
    envs.push_back({&world.host(std::string("h").append(std::to_string(i + 1))).stack(),
                    [] { return 2.0; }});
  }
  apps::MpiCluster mpi{std::move(envs)};
  apps::HeatSolver solver{mpi, 64, 1500};
  double elapsed = -1;
  solver.run([&](const apps::HeatSolver::Result& r) {
    elapsed = to_seconds(r.elapsed);
    if (checksum != nullptr) *checksum = r.checksum;
  });
  world.sim().run_for(seconds(20000));
  return elapsed;
}

}  // namespace

int main() {
  std::printf("=== Building a virtual cluster with locality-sensitive grouping ===\n\n");

  // 120 volunteer hosts across ~12 sites, with realistic WAN latencies.
  group::PlanetLabConfig cfg;
  cfg.hosts = 120;
  cfg.clusters = 12;
  const auto matrix = group::synthesize_planetlab(cfg, 99);
  std::printf("volunteer pool: %zu hosts, %zu measured pairs\n", matrix.size(),
              matrix.pair_latencies().size());

  // The distance locator keeps sorted latency rows; a grouping query
  // costs O(N*k) candidate groups (paper S II.D).
  const group::DistanceLocator locator{matrix};
  const auto tight = locator.query(4);
  Rng rng{3};
  const auto random = group::random_group(matrix, 4, rng);
  if (!tight) {
    std::printf("no group found\n");
    return 1;
  }
  std::printf("locality-selected 4-group: avg %.1f ms, max %.1f ms pairwise\n",
              tight->average_latency_ms, tight->max_latency_ms);
  std::printf("random 4-group:            avg %.1f ms, max %.1f ms pairwise\n\n",
              random.average_latency_ms, random.max_latency_ms);

  std::printf("running the 64x64 heat-distribution MPI job on both clusters...\n");
  double sum_tight = 0;
  double sum_random = 0;
  const double t_tight = run_heat_on(matrix, tight->members, &sum_tight);
  const double t_random = run_heat_on(matrix, random.members, &sum_random);
  std::printf("  locality cluster: %7.1f s\n", t_tight);
  std::printf("  random cluster:   %7.1f s  (%.1fx slower)\n", t_random,
              t_random / t_tight);
  std::printf("  results identical: %s (checksum %.6f)\n",
              std::abs(sum_tight - sum_random) < 1e-9 ? "yes" : "NO", sum_tight);

  std::printf("\nSame job, same code — the cluster you pick decides the runtime.\n");
  return 0;
}
