#include "obs/flow.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"  // splitmix64

namespace wav::obs {

const char* to_string(HopComponent c) noexcept {
  switch (c) {
    case HopComponent::kHostStack: return "host_stack";
    case HopComponent::kBridge: return "bridge";
    case HopComponent::kSwitchEgress: return "switch_egress";
    case HopComponent::kSwitchIngress: return "switch_ingress";
    case HopComponent::kIpopRouter: return "ipop_router";
    case HopComponent::kTunnelSend: return "tunnel_send";
    case HopComponent::kTunnelRecv: return "tunnel_recv";
    case HopComponent::kNat: return "nat";
    case HopComponent::kRelay: return "relay";
    case HopComponent::kLink: return "link";
    case HopComponent::kInternet: return "internet";
    case HopComponent::kDelivery: return "delivery";
  }
  return "?";
}

const char* to_string(HopVerdict v) noexcept {
  switch (v) {
    case HopVerdict::kForwarded: return "forwarded";
    case HopVerdict::kDelivered: return "delivered";
    case HopVerdict::kDropped: return "dropped";
  }
  return "?";
}

const char* to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kFdbMiss: return "fdb_miss";
    case DropReason::kBacklog: return "backlog";
    case DropReason::kArpUnresolved: return "arp_unresolved";
    case DropReason::kNatMappingMiss: return "nat_mapping_miss";
    case DropReason::kNatFiltered: return "nat_filtered";
    case DropReason::kNatDown: return "nat_down";
    case DropReason::kRelayUnbound: return "relay_unbound";
    case DropReason::kRelayCapacity: return "relay_capacity";
    case DropReason::kRelayDown: return "relay_down";
    case DropReason::kLinkDown: return "link_down";
    case DropReason::kLinkQueue: return "link_queue";
    case DropReason::kWireLoss: return "wire_loss";
    case DropReason::kPartition: return "partition";
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kGroupIsolation: return "group_isolation";
  }
  return "?";
}

FlowKey flow_key_of(const net::IpPacket& pkt) noexcept {
  FlowKey key;
  key.src = pkt.src;
  key.dst = pkt.dst;
  key.protocol = pkt.protocol();
  if (const auto* udp = pkt.udp()) {
    key.src_port = udp->src_port;
    key.dst_port = udp->dst_port;
  } else if (const auto* tcp = pkt.tcp()) {
    key.src_port = tcp->src_port;
    key.dst_port = tcp->dst_port;
  } else if (const auto* icmp = pkt.icmp()) {
    key.src_port = icmp->id;
    key.dst_port = icmp->id;
  }
  return key;
}

std::uint64_t flow_hash(const FlowKey& key) noexcept {
  // Two SplitMix64 rounds over the packed tuple; seed-independent so the
  // same flow samples identically everywhere, and well-mixed so the
  // low-bit sampling mask sees uniform bits.
  std::uint64_t state = (static_cast<std::uint64_t>(key.src.value) << 32) |
                        static_cast<std::uint64_t>(key.dst.value);
  std::uint64_t h = splitmix64(state);
  state = h ^ ((static_cast<std::uint64_t>(key.protocol) << 32) |
               (static_cast<std::uint64_t>(key.src_port) << 16) |
               static_cast<std::uint64_t>(key.dst_port));
  return splitmix64(state);
}

FlowTracer::FlowTracer(MetricsRegistry& registry, Tracer* tracer, ClockFn clock)
    : FlowTracer(registry, tracer, std::move(clock), Config{}) {}

FlowTracer::FlowTracer(MetricsRegistry& registry, Tracer* tracer, ClockFn clock,
                       Config config)
    : registry_(registry), tracer_(tracer), clock_(std::move(clock)), config_(config) {
  set_sample_shift(config_.sample_shift);
  if (config_.hops_per_flow == 0) config_.hops_per_flow = 1;
}

void FlowTracer::set_sample_shift(std::uint32_t shift) noexcept {
  if (shift > 63) shift = 63;
  config_.sample_shift = shift;
  sample_mask_ = (std::uint64_t{1} << shift) - 1;
}

Counter& FlowTracer::drop_counter(DropReason reason) {
  const auto idx = static_cast<std::size_t>(reason);
  if (c_drops_[idx] == nullptr) {
    c_drops_[idx] =
        &registry_.counter(std::string("flow.drops.") + to_string(reason));
  }
  return *c_drops_[idx];
}

Histogram& FlowTracer::pair_histogram(HopComponent from, HopComponent to) {
  const auto fi = static_cast<std::size_t>(from);
  const auto ti = static_cast<std::size_t>(to);
  if (h_pairs_[fi][ti] == nullptr) {
    h_pairs_[fi][ti] = &registry_.histogram(
        "flow.hop_ms",
        {0.001, 0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000},
        std::string(to_string(from)) + "->" + to_string(to));
  }
  return *h_pairs_[fi][ti];
}

net::FlowContext FlowTracer::begin_passage(const FlowKey& key, std::uint64_t bytes,
                                           std::uint64_t tcp_seq_end) {
  if (!enabled_) return {};
  const std::uint64_t h = flow_hash(key);
  // Unsampled fast path: one hash, one mask test, no allocation. A hash
  // of exactly 0 (p = 2^-64) also falls through — id 0 means unsampled.
  if ((h & sample_mask_) != 0 || h == 0) return {};

  auto it = flows_.find(h);
  if (it == flows_.end()) {
    if (flows_.size() >= config_.max_flows) {
      if (c_table_full_ == nullptr) c_table_full_ = &registry_.counter("flow.table_full");
      c_table_full_->inc();
      return {};
    }
    FlowState state;
    state.key = key;
    state.id = h;
    state.first_seen = clock_();
    state.last_seen = state.first_seen;
    state.ring.reserve(std::min<std::size_t>(config_.hops_per_flow, 32));
    it = flows_.emplace(h, std::move(state)).first;
    order_.push_back(h);
    if (c_flows_sampled_ == nullptr) {
      c_flows_sampled_ = &registry_.counter("flow.flows_sampled");
    }
    c_flows_sampled_->inc();
    if (tracer_ != nullptr) {
      tracer_->instant(Category::kFlow, "flow.sampled", key.src.to_string(),
                       "\"dst\":\"" + key.dst.to_string() +
                           "\",\"proto\":" + std::to_string(key.protocol));
    }
  }
  FlowState& flow = it->second;
  ++flow.passages;
  flow.bytes += bytes;
  if (tcp_seq_end != 0) {
    if (tcp_seq_end <= flow.highest_seq_end) {
      ++flow.retransmits;
    } else {
      flow.highest_seq_end = tcp_seq_end;
    }
  }
  net::FlowContext ctx;
  ctx.id = h;
  ctx.passage = static_cast<std::uint32_t>(flow.passages);
  ctx.budget = config_.hop_budget;
  PassageState p;
  p.origin = clock_();
  p.last_at = p.origin;
  passages_[{h, ctx.passage}] = p;
  if (c_passages_ == nullptr) c_passages_ = &registry_.counter("flow.passages");
  c_passages_->inc();
  return ctx;
}

void FlowTracer::record(const net::FlowContext& ctx, HopComponent component,
                        std::string instance, HopVerdict verdict, DropReason reason,
                        Duration queue_delay) {
  if (!enabled_ || ctx.id == 0) return;
  const auto fit = flows_.find(ctx.id);
  if (fit == flows_.end()) return;
  FlowState& flow = fit->second;
  const auto pit = passages_.find({ctx.id, ctx.passage});
  if (pit == passages_.end()) return;  // passage already completed
  PassageState& p = pit->second;

  const TimePoint now = clock_();
  const Duration since_prev = p.hops > 0 ? now - p.last_at : kZeroDuration;
  if (p.hops > 0) {
    pair_histogram(p.last_component, component).observe(to_milliseconds(since_prev));
    PairStat* stat = nullptr;
    for (PairStat& ps : flow.pairs) {
      if (ps.from == static_cast<std::uint8_t>(p.last_component) &&
          ps.to == static_cast<std::uint8_t>(component)) {
        stat = &ps;
        break;
      }
    }
    if (stat == nullptr) {
      flow.pairs.push_back(PairStat{static_cast<std::uint8_t>(p.last_component),
                                    static_cast<std::uint8_t>(component), 0,
                                    kZeroDuration, kZeroDuration});
      stat = &flow.pairs.back();
    }
    ++stat->count;
    stat->total += since_prev;
    if (since_prev > stat->max) stat->max = since_prev;
  }

  if (p.hops < ctx.budget) {
    HopRecord rec;
    rec.passage = ctx.passage;
    rec.hop = p.hops;
    rec.at = now;
    rec.component = component;
    rec.verdict = verdict;
    rec.reason = reason;
    rec.queue_delay = queue_delay;
    rec.since_prev = since_prev;
    rec.instance = instance;  // copy: the drop path below still needs it
    if (flow.ring.size() < config_.hops_per_flow) {
      flow.ring.push_back(std::move(rec));
    } else {
      flow.ring[flow.ring_next] = std::move(rec);
    }
    flow.ring_next = (flow.ring_next + 1) % config_.hops_per_flow;
    ++flow.hops_recorded;
    if (c_hops_ == nullptr) c_hops_ = &registry_.counter("flow.hops");
    c_hops_->inc();
  } else {
    if (c_hops_truncated_ == nullptr) {
      c_hops_truncated_ = &registry_.counter("flow.hops_truncated");
    }
    c_hops_truncated_->inc();
  }
  if (p.hops < UINT16_MAX) ++p.hops;
  p.last_at = now;
  p.last_component = component;
  flow.last_seen = now;

  switch (verdict) {
    case HopVerdict::kForwarded:
      return;
    case HopVerdict::kDelivered: {
      ++flow.delivered;
      ++flow.completed;
      const Duration e2e = now - p.origin;
      flow.e2e_total += e2e;
      if (e2e > flow.e2e_max) flow.e2e_max = e2e;
      if (c_delivered_ == nullptr) c_delivered_ = &registry_.counter("flow.delivered");
      c_delivered_->inc();
      passages_.erase(pit);
      return;
    }
    case HopVerdict::kDropped: {
      ++flow.dropped;
      if (c_dropped_ == nullptr) c_dropped_ = &registry_.counter("flow.dropped");
      c_dropped_->inc();
      drop_counter(reason).inc();
      DropSite* site = nullptr;
      for (DropSite& ds : flow.drop_sites) {
        if (ds.component == component && ds.reason == reason) {
          site = &ds;
          break;
        }
      }
      if (site == nullptr) {
        flow.drop_sites.push_back(DropSite{component, reason, std::move(instance), 0});
        site = &flow.drop_sites.back();
      }
      ++site->count;
      if (tracer_ != nullptr) {
        tracer_->instant(Category::kFlow, "flow.drop", site->instance,
                         "\"component\":\"" + std::string(to_string(component)) +
                             "\",\"reason\":\"" + to_string(reason) + "\"");
      }
      passages_.erase(pit);
      return;
    }
  }
}

std::vector<const HopRecord*> FlowTracer::ring_in_order(const FlowState& f) const {
  std::vector<const HopRecord*> out;
  out.reserve(f.ring.size());
  if (f.ring.size() < config_.hops_per_flow) {
    for (const HopRecord& r : f.ring) out.push_back(&r);
    return out;
  }
  for (std::size_t i = 0; i < f.ring.size(); ++i) {
    out.push_back(&f.ring[(f.ring_next + i) % f.ring.size()]);
  }
  return out;
}

std::string FlowTracer::flows_to_jsonl() const {
  std::string out;
  for (const std::uint64_t id : order_) {
    const FlowState& f = flows_.at(id);
    out += "{\"flow\":\"" + std::to_string(id) + "\"";
    out += ",\"src\":\"" + f.key.src.to_string() + "\"";
    out += ",\"dst\":\"" + f.key.dst.to_string() + "\"";
    out += ",\"proto\":" + std::to_string(f.key.protocol);
    out += ",\"sport\":" + std::to_string(f.key.src_port);
    out += ",\"dport\":" + std::to_string(f.key.dst_port);
    out += ",\"first_ns\":" + std::to_string(f.first_seen.since_start.count());
    out += ",\"last_ns\":" + std::to_string(f.last_seen.since_start.count());
    out += ",\"passages\":" + std::to_string(f.passages);
    out += ",\"bytes\":" + std::to_string(f.bytes);
    out += ",\"retransmits\":" + std::to_string(f.retransmits);
    out += ",\"delivered\":" + std::to_string(f.delivered);
    out += ",\"dropped\":" + std::to_string(f.dropped);
    out += ",\"hops_recorded\":" + std::to_string(f.hops_recorded);
    out += ",\"e2e_ms\":{\"count\":" + std::to_string(f.completed);
    const double mean =
        f.completed > 0 ? to_milliseconds(f.e2e_total) / static_cast<double>(f.completed)
                        : 0.0;
    out += ",\"mean\":" + json_double(mean);
    out += ",\"max\":" + json_double(to_milliseconds(f.e2e_max)) + "}";
    out += ",\"drop_site\":";
    const DropSite* worst = nullptr;
    for (const DropSite& ds : f.drop_sites) {
      if (worst == nullptr || ds.count > worst->count) worst = &ds;
    }
    if (worst == nullptr) {
      out += "null";
    } else {
      out += "{\"component\":\"" + std::string(to_string(worst->component)) + "\"";
      out += ",\"reason\":\"" + std::string(to_string(worst->reason)) + "\"";
      out += ",\"instance\":\"" + json_escape(worst->instance) + "\"";
      out += ",\"count\":" + std::to_string(worst->count) + "}";
    }
    out += ",\"pairs\":[";
    for (std::size_t i = 0; i < f.pairs.size(); ++i) {
      const PairStat& ps = f.pairs[i];
      if (i != 0) out += ",";
      out += "{\"from\":\"";
      out += to_string(static_cast<HopComponent>(ps.from));
      out += "\",\"to\":\"";
      out += to_string(static_cast<HopComponent>(ps.to));
      out += "\",\"count\":" + std::to_string(ps.count);
      const double pair_mean =
          ps.count > 0 ? to_milliseconds(ps.total) / static_cast<double>(ps.count) : 0.0;
      out += ",\"mean_ms\":" + json_double(pair_mean);
      out += ",\"max_ms\":" + json_double(to_milliseconds(ps.max)) + "}";
    }
    out += "]}\n";
  }
  return out;
}

std::string FlowTracer::hops_to_jsonl() const {
  std::string out;
  for (const std::uint64_t id : order_) {
    const FlowState& f = flows_.at(id);
    for (const HopRecord* r : ring_in_order(f)) {
      out += "{\"flow\":\"" + std::to_string(id) + "\"";
      out += ",\"passage\":" + std::to_string(r->passage);
      out += ",\"hop\":" + std::to_string(r->hop);
      out += ",\"t_ns\":" + std::to_string(r->at.since_start.count());
      out += ",\"component\":\"" + std::string(to_string(r->component)) + "\"";
      out += ",\"instance\":\"" + json_escape(r->instance) + "\"";
      out += ",\"verdict\":\"" + std::string(to_string(r->verdict)) + "\"";
      out += ",\"reason\":\"" + std::string(to_string(r->reason)) + "\"";
      out += ",\"queue_ns\":" + std::to_string(r->queue_delay.count());
      out += ",\"since_prev_ns\":" + std::to_string(r->since_prev.count());
      out += "}\n";
    }
  }
  return out;
}

namespace {
bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return n == body.size();
}
}  // namespace

bool FlowTracer::write_flows_jsonl(const std::string& path) const {
  return write_text(path, flows_to_jsonl());
}

bool FlowTracer::write_hops_jsonl(const std::string& path) const {
  return write_text(path, hops_to_jsonl());
}

}  // namespace wav::obs
