// Microbenchmarks (google-benchmark) of the WAVNet packet path and
// codecs: frame serialization/parsing, bridge forwarding, simulation
// event throughput, and TCP bulk transfer events — the constant factors
// behind every experiment binary.
//
// Besides the google-benchmark suite, `--perf-out=<file>` runs the
// deterministic throughput mode the CI perf-smoke job gates: an event-core
// churn phase (events/sec) and a two-host WAVNet tunnel phase (frames/sec),
// exported as metrics JSONL. All simulation-visible counts are a pure
// function of --seed; wall-clock rates ride along as `perf.*` gauges,
// which metrics_diff records but never gates. See docs/PERFORMANCE.md.
//
// Adding `--prof-out=<file>` turns on the wall-clock profiler for the
// perf phases (one summary line + folded flamegraph per phase). The CI
// perf-smoke job runs both ways and gates the profiler's overhead on the
// measured wall times (<5%).
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fabric/host.hpp"
#include "harness.hpp"
#include "fabric/network.hpp"
#include "fabric/wan.hpp"
#include "net/codec.hpp"
#include "obs/profiler.hpp"
#include "overlay/rendezvous.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/bridge.hpp"
#include "wavnet/host.hpp"

namespace {

using namespace wav;

net::EthernetFrame sample_frame_to(net::MacAddress dst, net::MacAddress src) {
  net::IpPacket pkt;
  pkt.src = net::Ipv4Address::parse("10.10.0.1").value();
  pkt.dst = net::Ipv4Address::parse("10.10.0.2").value();
  net::UdpDatagram dgram;
  dgram.src_port = 7777;
  dgram.dst_port = 7777;
  dgram.payload = net::Chunk::from_bytes(ByteBuffer(1024));
  pkt.body = std::move(dgram);
  return net::EthernetFrame::make_ip(dst, src, std::move(pkt));
}

net::EthernetFrame sample_frame() {
  return sample_frame_to(wavnet::make_mac(2), wavnet::make_mac(1));
}

void BM_FrameSerialize(benchmark::State& state) {
  const auto frame = sample_frame();
  for (auto _ : state) {
    auto wire = net::serialize_frame(frame);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_FrameSerialize);

void BM_FrameParse(benchmark::State& state) {
  const auto wire = net::serialize_frame(sample_frame()).value();
  for (auto _ : state) {
    auto frame = net::parse_frame(wire);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_FrameParse);

void BM_Ipv4HeaderChecksum(benchmark::State& state) {
  ByteBuffer buf;
  for (auto _ : state) {
    buf.clear();
    net::encode_ipv4_header(buf, net::Ipv4Address{1}, net::Ipv4Address{2}, 6, 64, 1500);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_Ipv4HeaderChecksum);

void BM_BridgeForwardLearned(benchmark::State& state) {
  sim::Simulation sim;
  wavnet::SoftwareBridge bridge{sim, seconds(300), kZeroDuration};
  wavnet::VirtualNic a{wavnet::make_mac(1)};
  wavnet::VirtualNic b{wavnet::make_mac(2)};
  bridge.attach(a);
  bridge.attach(b);
  std::uint64_t delivered = 0;
  b.set_receive_handler([&](const net::EthernetFrame&) { ++delivered; });
  const auto frame = net::EthernetFrame::make_arp(b.mac(), a.mac(), net::ArpMessage{});
  a.transmit(frame);  // teach the FDB
  sim.run();
  for (auto _ : state) {
    a.transmit(frame);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_BridgeForwardLearned);

void BM_SimulationEventChurn(benchmark::State& state) {
  sim::Simulation sim;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_after(microseconds(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulationEventChurn);

void BM_TcpBulkTransfer1MiB(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    fabric::Network network{sim};
    auto& a = network.add_node<fabric::HostNode>("a");
    auto& b = network.add_node<fabric::HostNode>("b");
    fabric::LinkConfig cfg;
    cfg.delay = milliseconds(1);
    cfg.rate = gigabits_per_sec(1);
    const net::Ipv4Subnet subnet{net::Ipv4Address::parse("10.0.0.0").value(), 24};
    network.connect(a, {net::Ipv4Address::parse("10.0.0.1").value(), subnet}, b,
                    {net::Ipv4Address::parse("10.0.0.2").value(), subnet}, cfg);
    a.set_default_route(0);
    b.set_default_route(0);
    tcp::TcpLayer ta{a};
    tcp::TcpLayer tb{b};
    std::uint64_t received = 0;
    tb.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
      conn->on_data([&received, conn](const std::vector<net::Chunk>& chunks) {
        received += net::total_size(chunks);
      });
    });
    auto conn = ta.connect({b.primary_address(), 5001});
    conn->on_established([&] { conn->send_virtual(1 << 20); });
    state.ResumeTiming();
    sim.run_for(seconds(10));
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_TcpBulkTransfer1MiB);

// --- deterministic throughput mode (--perf-out) -----------------------------

/// Compacts the registry's pretty-printed JSON onto one line (same
/// transform the bench harness applies for --metrics-out JSONL).
std::string compact_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  bool at_line_start = false;
  for (const char c : pretty) {
    if (c == '\n') {
      at_line_start = true;
      continue;
    }
    if (at_line_start && c == ' ') continue;
    at_line_start = false;
    out += c;
  }
  return out;
}

void write_world_line(std::FILE* f, const char* plane, std::uint64_t seed,
                      obs::MetricsRegistry& registry) {
  const std::string line = "{\"plane\":\"" + std::string(plane) +
                           "\",\"seed\":" + std::to_string(seed) +
                           ",\"metrics\":" + compact_json(registry.to_json()) + "}\n";
  std::fwrite(line.data(), 1, line.size(), f);
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Phase 1: raw event-core throughput under churn — the schedule /
/// cancel / fire mix the overlay timers and processing queues generate.
/// Payload lambdas capture 24 bytes so the inline-callback path is the
/// one measured (no allocation), and every 4th event is cancelled so
/// removal is on the hot path.
void perf_event_phase(std::FILE* out, std::uint64_t seed) {
  constexpr int kRounds = 20000;
  constexpr int kPerRound = 64;
  sim::Simulation sim{seed};
  std::uint64_t checksum = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t state = seed;
  std::array<sim::EventId, kPerRound> ids{};
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kPerRound; ++i) {
      state += 0x9E3779B97F4A7C15ull;
      const std::uint64_t a = state;
      const std::uint64_t b = static_cast<std::uint64_t>(i);
      const std::uint64_t c = static_cast<std::uint64_t>(r);
      ids[static_cast<std::size_t>(i)] = sim.schedule_after(
          microseconds(i % 50), [&checksum, a, b, c] { checksum += a ^ (b << 1) ^ c; });
    }
    for (int i = 0; i < kPerRound; i += 4) {
      if (sim.cancel(ids[static_cast<std::size_t>(i)])) ++cancelled;
    }
    sim.run();
  }
  const double wall = wall_seconds_since(t0);
  const double executed = static_cast<double>(sim.events_executed());

  obs::MetricsRegistry& reg = sim.metrics();
  reg.gauge("bench.events_executed").set(executed);
  reg.gauge("bench.events_cancelled").set(static_cast<double>(cancelled));
  reg.gauge("bench.checksum_low32").set(static_cast<double>(checksum & 0xFFFFFFFFull));
  reg.gauge("perf.events_per_sec").set(executed / wall);
  reg.gauge("perf.events_wall_ms").set(wall * 1e3);
  write_world_line(out, "micro-events", seed, reg);
  std::printf("perf: events  %12.0f executed  %8.2f ms  %10.2f M events/s\n", executed,
              wall * 1e3, executed / wall / 1e6);
}

/// Phase 2: end-to-end frame path — a two-site WAVNet world pumping
/// unicast 1 KiB frames through the learned-MAC tunnel (Packet Assembler
/// -> pooled frame -> UDP tunnel -> WAN -> ingress -> bridge).
int perf_frame_phase(std::FILE* out, std::uint64_t seed) {
  constexpr int kFrames = 16384;
  constexpr int kBatch = 128;
  sim::Simulation sim{seed};
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::SiteConfig sa;
  sa.name = "A";
  fabric::SiteConfig sb;
  sb.name = "B";
  auto& site_a = wan.add_site(sa);
  auto& site_b = wan.add_site(sb);
  auto& rv_host = wan.add_public_host("rendezvous");
  fabric::PairPath path;
  path.one_way = milliseconds(25);
  wan.set_default_paths(path);
  overlay::RendezvousServer rendezvous{rv_host};
  rendezvous.bootstrap();

  const auto make_cfg = [&](const char* name, const char* vip) {
    wavnet::WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous.host_endpoint();
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return cfg;
  };
  wavnet::WavnetHost a1{*site_a.hosts[0], make_cfg("a1", "10.10.0.1")};
  wavnet::WavnetHost b1{*site_b.hosts[0], make_cfg("b1", "10.10.0.2")};
  a1.start();
  b1.start();
  sim.run_for(seconds(5));

  std::vector<overlay::HostInfo> results;
  a1.agent().query({0.5, 0.5}, 8, [&](std::vector<overlay::HostInfo> h) {
    results = std::move(h);
  });
  sim.run_for(seconds(3));
  if (results.empty()) {
    std::fprintf(stderr, "perf: rendezvous query returned no peers\n");
    return 1;
  }
  a1.connect(results[0]);
  sim.run_for(seconds(10));
  if (!a1.agent().link_established(b1.agent().id())) {
    std::fprintf(stderr, "perf: tunnel a1->b1 did not establish\n");
    return 1;
  }
  // Teach a1 the destination MAC so the pump exercises the learned
  // unicast path, not flooding.
  b1.stack().announce_gratuitous_arp();
  sim.run_for(seconds(2));
  if (a1.wav_switch().learned_macs() != 1) {
    std::fprintf(stderr, "perf: a1 did not learn b1's MAC\n");
    return 1;
  }

  const net::EthernetFrame frame = sample_frame_to(b1.host_nic().mac(),
                                                   a1.host_nic().mac());
  const std::uint64_t received_before = b1.wav_switch().stats().frames_received;
  const auto t0 = std::chrono::steady_clock::now();
  for (int sent = 0; sent < kFrames; sent += kBatch) {
    for (int i = 0; i < kBatch; ++i) a1.wav_switch().deliver(frame);
    // Drain the batch: Packet Assembler service + 25 ms WAN latency.
    sim.run_for(milliseconds(100));
  }
  const double wall = wall_seconds_since(t0);
  const double received =
      static_cast<double>(b1.wav_switch().stats().frames_received - received_before);

  obs::MetricsRegistry& reg = sim.metrics();
  reg.gauge("bench.frames_injected").set(static_cast<double>(kFrames));
  reg.gauge("bench.pool_frames_acquired")
      .set(static_cast<double>(net::FramePool::local().frames_acquired()));
  reg.gauge("bench.pool_blocks_reused")
      .set(static_cast<double>(net::FramePool::local().blocks_reused()));
  reg.gauge("perf.frames_per_sec").set(received / wall);
  reg.gauge("perf.frames_wall_ms").set(wall * 1e3);
  write_world_line(out, "micro-frames", seed, reg);
  std::printf("perf: frames  %12.0f received  %8.2f ms  %10.2f K frames/s\n", received,
              wall * 1e3, received / wall / 1e3);
  if (received != static_cast<double>(kFrames)) {
    std::fprintf(stderr, "perf: expected %d frames, received %.0f\n", kFrames, received);
    return 1;
  }
  return 0;
}

// --- timers-heavy mode (--timers-out) ---------------------------------------

/// The 10k-live-recurring-timer workload (keepalives, RTO-style backoff
/// re-arms, and a deep bed of parked far-future timeouts). Fire count,
/// events executed and an order-sensitive checksum are pure functions of
/// the seed; the wall clock rides along as perf.* gauges.
void perf_timer_phase(std::FILE* out, std::uint64_t seed) {
  constexpr int kPeriodicTimers = 9000;  // keepalive-style fixed cadence
  constexpr int kOneShotTimers = 1000;   // RTO-style re-arm on every fire
  constexpr int kParkedTimeouts = 30000;  // pending but never firing
  std::uint64_t fires = 0;
  std::uint64_t checksum = 0;

  sim::Simulation sim{seed};
  const auto category = WAV_PROF_CATEGORY("bench", "timer");

  std::vector<std::unique_ptr<sim::PeriodicTimer>> periodic;
  periodic.reserve(kPeriodicTimers);
  for (int i = 0; i < kPeriodicTimers; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    auto t = std::make_unique<sim::PeriodicTimer>(
        sim, milliseconds(5 + i % 45),
        [&fires, &checksum, idx] {
          ++fires;
          checksum += (idx + 1) * fires;  // order-sensitive mix
        },
        category);
    t->start_after(microseconds((i * 37) % 5000));
    periodic.push_back(std::move(t));
  }
  std::vector<std::unique_ptr<sim::OneShotTimer>> oneshot(
      static_cast<std::size_t>(kOneShotTimers));
  for (int i = 0; i < kOneShotTimers; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    auto* slot = &oneshot[static_cast<std::size_t>(i)];
    *slot = std::make_unique<sim::OneShotTimer>(
        sim,
        [&fires, &checksum, idx, slot] {
          ++fires;
          checksum += (idx + 0x10000) * fires;
          (*slot)->arm(milliseconds(static_cast<std::int64_t>(1 + (idx + fires) % 20)));
        },
        category);
    (*slot)->arm(microseconds(500 + (i * 131) % 3000));
  }
  // Parked ballast: timeouts that are pending for the whole run but never
  // fire (NAT expiries, dead-peer timers). The wheel parks them in upper
  // levels at O(1).
  for (int i = 0; i < kParkedTimeouts; ++i) {
    sim.schedule_after(seconds(3600 + i % 600), category, [] {});
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_for(seconds(5));
  const double wall = wall_seconds_since(t0);
  const auto events = static_cast<double>(sim.events_executed());

  // A scratch world carries the export: deterministic bench.* counts the
  // CI gate compares, wall-clock perf.* gauges that ride along ungated.
  sim::Simulation scratch{seed};
  obs::MetricsRegistry& reg = scratch.metrics();
  reg.gauge("bench.timer_events_executed").set(events);
  reg.gauge("bench.timer_fires").set(static_cast<double>(fires));
  reg.gauge("bench.timer_checksum_low32")
      .set(static_cast<double>(checksum & 0xFFFFFFFFull));
  reg.gauge("perf.timers_wheel_events_per_sec").set(events / wall);
  reg.gauge("perf.timers_wall_ms").set(wall * 1e3);
  write_world_line(out, "micro-timers", seed, reg);
  std::printf("perf: timers  %12.0f fired     %8.2f ms  %10.2f K events/s\n",
              static_cast<double>(fires), wall * 1e3, events / wall / 1e3);
}

int run_timers_mode(const std::string& out_path, std::uint64_t seed) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf: cannot write %s\n", out_path.c_str());
    return 2;
  }
  perf_timer_phase(f, seed);
  benchx::append_profile_line("micro-timers", seed);
  std::fclose(f);
  return 0;
}

int run_perf_mode(const std::string& out_path, std::uint64_t seed) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf: cannot write %s\n", out_path.c_str());
    return 2;
  }
  perf_event_phase(f, seed);
  benchx::append_profile_line("micro-events", seed);
  const int rc = perf_frame_phase(f, seed);
  benchx::append_profile_line("micro-frames", seed);
  std::fclose(f);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Installs the shared observability sinks; --prof-out enables the
  // wall-clock profiler for the perf phases below.
  wav::benchx::obs_init(argc, argv);
  std::string perf_out;
  std::string timers_out;
  std::uint64_t seed = 2026;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      if (arg == flag && i + 1 < argc) return argv[++i];
      if (arg.size() > len + 1 && arg.compare(0, len, flag) == 0 && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--perf-out")) {
      perf_out = v;
    } else if (const char* v1 = value_of("--timers-out")) {
      timers_out = v1;
    } else if (const char* v2 = value_of("--seed")) {
      seed = std::strtoull(v2, nullptr, 10);
    }
  }
  if (!perf_out.empty() || !timers_out.empty()) {
    int rc = 0;
    if (!perf_out.empty()) rc = run_perf_mode(perf_out, seed);
    if (rc == 0 && !timers_out.empty()) rc = run_timers_mode(timers_out, seed);
    return rc;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
