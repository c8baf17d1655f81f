// Flow-level causal tracing: the "flight recorder" for the data path.
//
// A deterministic hash of the 5-tuple decides, at origin, whether a flow
// is sampled (1 in 2^sample_shift). Sampled frames carry a compact
// net::FlowContext stamp; every hop of the data path — host stack,
// software bridge, WAV-Switch egress/ingress, UDP tunnel send/receive,
// NAT translation, relay forwarding, IPOP routing, link/Internet transit
// and final delivery — records a timestamped HopRecord into a bounded
// per-flow ring. Drops carry a typed DropReason and are counted in
// flow.drops.*; consecutive hops feed per-hop-pair latency histograms
// ("flow.hop_ms" / "<from>-><to>") so relay triangle legs are separately
// measurable.
//
// The unsampled fast path is allocation-free: begin_passage() computes
// one hash and returns the zero stamp, and every recording call site
// guards on `frame.flow.id != 0` before touching the tracer. Timestamps
// come from the owning Simulation's clock only, so identical seeds
// produce byte-identical --flows-out/--hops-out exports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wav::obs {

enum class HopComponent : std::uint8_t {
  kHostStack = 0,   // virtual IP stack building/accepting the frame
  kBridge,          // software bridge forwarding
  kSwitchEgress,    // WAV-Switch FDB lookup + Packet Assembler encap
  kSwitchIngress,   // WAV-Switch decapsulation + FDB learn
  kIpopRouter,      // IPOP per-hop P2P routing stack
  kTunnelSend,      // HostAgent handing the encap to the UDP socket
  kTunnelRecv,      // HostAgent receiving the encap from the wire
  kNat,             // NAT gateway translation
  kRelay,           // TURN-style relay channel forwarding
  kLink,            // physical access link (drop attribution only)
  kInternet,        // emulated Internet core (drop attribution only)
  kDelivery,        // peer stack accepted the frame (terminal)
};
inline constexpr std::size_t kHopComponentCount = 12;

enum class HopVerdict : std::uint8_t { kForwarded = 0, kDelivered, kDropped };

/// Typed cause attached to every recorded drop; also the suffix of the
/// per-reason counter "flow.drops.<reason>".
enum class DropReason : std::uint8_t {
  kNone = 0,
  kFdbMiss,         // unknown MAC with no connected peer to flood to
  kBacklog,         // processing queue over its backlog bound
  kArpUnresolved,   // ARP resolution gave up / pending queue overflow
  kNatMappingMiss,  // inbound with no (live) port binding
  kNatFiltered,     // inbound refused by the NAT's filtering policy
  kNatDown,         // NAT gateway crashed
  kRelayUnbound,    // relay channel missing or half-bound
  kRelayCapacity,   // relay credit exhausted
  kRelayDown,       // relay process crashed (deaf port)
  kLinkDown,        // administratively/chaos-downed link
  kLinkQueue,       // link drop-tail queue overflow
  kWireLoss,        // random wire/path loss
  kPartition,       // Internet-core partition mask
  kTtlExpired,      // IP TTL or overlay hop-count exhausted
  kNoRoute,         // no route / no overlay next hop / peer unreachable
  kGroupIsolation,  // frame crossed a private-group membership boundary
};
inline constexpr std::size_t kDropReasonCount = 17;

[[nodiscard]] const char* to_string(HopComponent c) noexcept;
[[nodiscard]] const char* to_string(HopVerdict v) noexcept;
[[nodiscard]] const char* to_string(DropReason r) noexcept;

/// The NetFlow-style 5-tuple identifying a flow on the virtual plane.
struct FlowKey {
  net::Ipv4Address src{};
  net::Ipv4Address dst{};
  std::uint8_t protocol{0};
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
};

/// Extracts the 5-tuple (ICMP uses the echo id for both ports).
[[nodiscard]] FlowKey flow_key_of(const net::IpPacket& pkt) noexcept;

/// Deterministic SplitMix64-based hash of the 5-tuple. Seed-independent:
/// the same flow samples identically in every run and on both endpoints.
[[nodiscard]] std::uint64_t flow_hash(const FlowKey& key) noexcept;

/// Digs the flow stamp out of a *physical-plane* packet: a sampled
/// virtual frame riding a UDP tunnel encapsulation. Returns nullptr for
/// unsampled frames and non-tunnel traffic — the common case, checked
/// with three pointer tests and no allocation.
[[nodiscard]] inline const net::FlowContext* flow_of(const net::IpPacket& pkt) noexcept {
  const auto* udp = pkt.udp();
  if (udp == nullptr) return nullptr;
  const auto* encap = udp->encap();
  if (encap == nullptr || !encap->frame) return nullptr;
  return encap->frame->flow.id != 0 ? &encap->frame->flow : nullptr;
}

/// One recorded traversal of one component by one sampled frame.
struct HopRecord {
  std::uint32_t passage{0};   // frame number within the flow (1-based)
  std::uint16_t hop{0};       // hop index within the passage (0-based)
  TimePoint at{};
  HopComponent component{HopComponent::kHostStack};
  HopVerdict verdict{HopVerdict::kForwarded};
  DropReason reason{DropReason::kNone};
  Duration queue_delay{kZeroDuration};  // local queueing/processing delay
  Duration since_prev{kZeroDuration};   // wire delay from the previous hop
  std::string instance;
};

class FlowTracer {
 public:
  struct Config {
    std::uint32_t sample_shift{6};   // sample 1 flow in 2^shift (0 = all)
    std::uint8_t hop_budget{48};     // hop records per passage
    std::size_t max_flows{1024};     // flow table bound
    std::size_t hops_per_flow{256};  // per-flow hop ring capacity
  };

  using ClockFn = std::function<TimePoint()>;

  /// `tracer` may be null; when present, sampled-flow drops also emit
  /// Category::kFlow instants so they land in the Chrome timeline.
  FlowTracer(MetricsRegistry& registry, Tracer* tracer, ClockFn clock);
  FlowTracer(MetricsRegistry& registry, Tracer* tracer, ClockFn clock, Config config);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Runtime-tunable sampling rate: 1 in 2^shift (0 samples every flow).
  void set_sample_shift(std::uint32_t shift) noexcept;
  [[nodiscard]] std::uint32_t sample_shift() const noexcept { return config_.sample_shift; }

  /// Origin stamping: decides sampling for the frame's flow and opens a
  /// passage. Returns the zero stamp (id 0) for unsampled flows without
  /// allocating. `tcp_seq_end` (seq + payload, 0 when not TCP data)
  /// drives retransmission detection.
  [[nodiscard]] net::FlowContext begin_passage(const FlowKey& key, std::uint64_t bytes,
                                               std::uint64_t tcp_seq_end = 0);

  /// Records one hop. Callers must pre-check `ctx.id != 0` (the whole
  /// point of the guard is keeping the unsampled path allocation-free).
  void record(const net::FlowContext& ctx, HopComponent component,
              std::string instance, HopVerdict verdict,
              DropReason reason = DropReason::kNone,
              Duration queue_delay = kZeroDuration);

  void forwarded(const net::FlowContext& ctx, HopComponent component,
                 std::string instance, Duration queue_delay = kZeroDuration) {
    record(ctx, component, std::move(instance), HopVerdict::kForwarded,
           DropReason::kNone, queue_delay);
  }
  void delivered(const net::FlowContext& ctx, HopComponent component,
                 std::string instance) {
    record(ctx, component, std::move(instance), HopVerdict::kDelivered);
  }
  void dropped(const net::FlowContext& ctx, HopComponent component,
               std::string instance, DropReason reason) {
    record(ctx, component, std::move(instance), HopVerdict::kDropped, reason);
  }

  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }
  [[nodiscard]] std::uint64_t passages() const noexcept {
    return c_passages_ != nullptr ? c_passages_->value() : 0;
  }

  /// NetFlow-style aggregate records, one JSON object per line, in
  /// first-seen flow order (deterministic per seed).
  [[nodiscard]] std::string flows_to_jsonl() const;
  /// Raw hop records grouped by flow (first-seen order), each flow's ring
  /// in chronological order (oldest retained first).
  [[nodiscard]] std::string hops_to_jsonl() const;

  bool write_flows_jsonl(const std::string& path) const;
  bool write_hops_jsonl(const std::string& path) const;

 private:
  struct PairStat {
    std::uint8_t from{0};
    std::uint8_t to{0};
    std::uint64_t count{0};
    Duration total{kZeroDuration};
    Duration max{kZeroDuration};
  };
  struct DropSite {
    HopComponent component{HopComponent::kHostStack};
    DropReason reason{DropReason::kNone};
    std::string instance;
    std::uint64_t count{0};
  };
  struct FlowState {
    FlowKey key;
    std::uint64_t id{0};
    TimePoint first_seen{};
    TimePoint last_seen{};
    std::uint64_t passages{0};
    std::uint64_t bytes{0};
    std::uint64_t retransmits{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped{0};
    std::uint64_t highest_seq_end{0};
    std::uint64_t completed{0};
    Duration e2e_total{kZeroDuration};
    Duration e2e_max{kZeroDuration};
    std::vector<DropSite> drop_sites;  // first-occurrence order
    std::vector<PairStat> pairs;       // first-occurrence order
    std::vector<HopRecord> ring;       // bounded, wraps at hops_per_flow
    std::size_t ring_next{0};
    std::uint64_t hops_recorded{0};
  };
  struct PassageState {
    TimePoint origin{};
    TimePoint last_at{};
    HopComponent last_component{HopComponent::kHostStack};
    std::uint16_t hops{0};
  };

  Counter& drop_counter(DropReason reason);
  Histogram& pair_histogram(HopComponent from, HopComponent to);
  [[nodiscard]] std::vector<const HopRecord*> ring_in_order(const FlowState& f) const;

  MetricsRegistry& registry_;
  Tracer* tracer_;
  ClockFn clock_;
  Config config_;
  bool enabled_{true};
  std::uint64_t sample_mask_{0};

  std::unordered_map<std::uint64_t, FlowState> flows_;
  std::vector<std::uint64_t> order_;  // flow ids in first-seen order
  std::map<std::pair<std::uint64_t, std::uint32_t>, PassageState> passages_;

  // Lazily-registered handles: a run with no sampled traffic leaves the
  // metrics registry untouched, keeping pre-existing exports stable.
  Counter* c_flows_sampled_{nullptr};
  Counter* c_passages_{nullptr};
  Counter* c_hops_{nullptr};
  Counter* c_hops_truncated_{nullptr};
  Counter* c_table_full_{nullptr};
  Counter* c_delivered_{nullptr};
  Counter* c_dropped_{nullptr};
  Counter* c_drops_[kDropReasonCount]{};
  Histogram* h_pairs_[kHopComponentCount][kHopComponentCount]{};
};

}  // namespace wav::obs
