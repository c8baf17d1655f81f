// Figure 14 reproduction: NAS EP and FT kernels on virtual clusters
// selected randomly vs with the locality-sensitive strategy, for 4 and 8
// hosts. The selected hosts are instantiated as a real WAVNet deployment
// whose pairwise WAN paths take their latencies from the PlanetLab
// matrix, and the kernels run over the mini-MPI runtime on the virtual
// plane.
// Paper: locality selection barely matters for EP (compute-bound) but
// cuts FT time dramatically (all-to-all every iteration).
#include <cstdio>

#include "apps/mpi_apps.hpp"
#include "common/table.hpp"
#include "group/planetlab.hpp"
#include "harness.hpp"

namespace {

using namespace wav;

// Class scaling (documented in EXPERIMENTS.md): PlanetLab-era hosts are
// modeled at 0.5 GFLOP/s effective (shared nodes), class B = 4x class A.
constexpr double kEpSamplesA = 1 << 28;
constexpr double kEpFlopsPerSample = 100.0;
constexpr double kFtPointsA = 1 << 22;
constexpr std::size_t kFtIterations = 6;
constexpr double kHostGflops = 0.15;  // shared PlanetLab nodes are slow

/// Builds a WAVNet world whose k hosts have the pairwise latencies of the
/// chosen matrix rows.
struct NasWorld {
  std::unique_ptr<benchx::World> world;
  std::vector<std::string> names;

  NasWorld(const group::LatencyMatrix& matrix, const std::vector<std::size_t>& members) {
    world = std::make_unique<benchx::World>(benchx::Plane::kWavnet, 14);
    // GREN-connected PlanetLab sites: fast links, so the 64 KiB windows on
    // high-RTT paths (not raw capacity) are what throttles random clusters.
    world->build_emulated(members.size(), megabits_per_sec(250), milliseconds(20));
    for (std::size_t i = 0; i < members.size(); ++i) {
      names.push_back(std::string("h").append(std::to_string(i + 1)));
    }
    // Overwrite the uniform default paths with the matrix latencies.
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        fabric::PairPath path;
        path.one_way = milliseconds_f(matrix.at(members[i], members[j]) / 2.0);
        world->wan().set_path(std::string("s").append(std::to_string(i + 1)),
                              std::string("s").append(std::to_string(j + 1)), path);
      }
    }
    world->deploy();
  }

  apps::MpiCluster make_cluster() {
    std::vector<apps::MpiCluster::RankEnv> envs;
    for (const auto& name : names) {
      envs.push_back({&world->host(name).stack(), [] { return kHostGflops; }});
    }
    // 2011 PlanetLab deployments ran stock 64 KiB TCP windows, which is
    // what makes high-RTT random clusters bandwidth-starved in FT.
    tcp::TcpConfig transport;
    transport.receive_buffer = 64 * 1024;
    return apps::MpiCluster{std::move(envs), 9100, transport};
  }
};

double run_ep(const group::LatencyMatrix& matrix, const std::vector<std::size_t>& members,
              double scale) {
  NasWorld nas{matrix, members};
  auto mpi = nas.make_cluster();
  apps::EpKernel ep{mpi, {kEpSamplesA * scale, kEpFlopsPerSample}};
  double elapsed = -1;
  ep.run([&](const apps::EpKernel::Result& r) { elapsed = to_seconds(r.elapsed); });
  nas.world->sim().run_for(seconds(40000));
  return elapsed;
}

double run_ft(const group::LatencyMatrix& matrix, const std::vector<std::size_t>& members,
              double scale) {
  NasWorld nas{matrix, members};
  auto mpi = nas.make_cluster();
  apps::FtKernel ft{mpi, {kFtPointsA * scale, kFtIterations, 256}};
  double elapsed = -1;
  ft.run([&](const apps::FtKernel::Result& r) { elapsed = to_seconds(r.elapsed); });
  nas.world->sim().run_for(seconds(40000));
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  wav::benchx::obs_init(argc, argv);
  benchx::banner(
      "Figure 14 — NAS EP/FT on random vs locality-sensitive virtual clusters",
      "Kernels run over real WAVNet deployments whose WAN paths follow the\n"
      "PlanetLab matrix; 'random' draws from a 64-host pre-selected pool as\n"
      "in the paper.");

  group::PlanetLabConfig cfg;
  cfg.clusters = 40;
  cfg.intra_cluster_max_ms = 4.0;
  const auto matrix = group::synthesize_planetlab(cfg, 2011);
  Rng rng{9};

  // The paper's "random" clusters are drawn from 64 hosts pre-selected by
  // the locality method (so they remain mutually reachable).
  const auto pool = group::locality_group(matrix, 64);
  if (!pool) {
    std::printf("no 64-host pool found\n");
    return 1;
  }

  TextTable table{"Execution time (s); EP = embarrassingly parallel, FT = 3-D FFT"};
  table.header({"Benchmark", "hosts", "random cluster", "locality cluster", "speedup"});
  for (const std::size_t k : {4u, 8u}) {
    // Random: k hosts out of the 64-host pool.
    auto pick = rng.sample_indices(pool->members.size(), k);
    std::vector<std::size_t> random_members;
    for (const auto idx : pick) random_members.push_back(pool->members[idx]);
    const auto local = group::locality_group(matrix, k);
    if (!local) continue;

    for (const char cls : {'A', 'B'}) {
      const double scale = cls == 'A' ? 1.0 : 4.0;
      const double ep_rand = run_ep(matrix, random_members, scale);
      const double ep_local = run_ep(matrix, local->members, scale);
      table.row({std::string("EP(") + cls + ")", fmt_int(static_cast<std::int64_t>(k)),
                 fmt_f(ep_rand, 1), fmt_f(ep_local, 1), fmt_f(ep_rand / ep_local, 2) + "x"});
      const double ft_rand = run_ft(matrix, random_members, scale);
      const double ft_local = run_ft(matrix, local->members, scale);
      table.row({std::string("FT(") + cls + ")", fmt_int(static_cast<std::int64_t>(k)),
                 fmt_f(ft_rand, 1), fmt_f(ft_local, 1), fmt_f(ft_rand / ft_local, 2) + "x"});
    }
  }
  table.print();
  std::printf(
      "\nShape check (paper Fig 14): EP times are nearly identical between the\n"
      "selection strategies (compute-bound); FT improves several-fold with\n"
      "locality-sensitive selection because every iteration performs an\n"
      "all-to-all over the WAN.\n");
  return 0;
}
