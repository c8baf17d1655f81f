#include "tcp/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace wav::tcp {

const char* to_string(TcpState s) noexcept {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

namespace {

/// Reconstructs an absolute stream offset from a 32-bit wire value, given
/// the connection's initial sequence number for that direction and a
/// nearby reference offset. Valid while windows stay far below 2^31,
/// which the config guarantees.
std::uint64_t unwrap(std::uint32_t wire, std::uint32_t isn, std::uint64_t near) {
  const auto expected_wire = static_cast<std::uint32_t>(isn + static_cast<std::uint32_t>(near));
  const auto delta = static_cast<std::int32_t>(wire - expected_wire);
  const auto result = static_cast<std::int64_t>(near) + delta;
  return result < 0 ? 0 : static_cast<std::uint64_t>(result);
}

constexpr std::uint32_t kMaxBackoff = 10;

}  // namespace

// --- TcpLayer ------------------------------------------------------------

std::size_t TcpLayer::ConnKeyHash::operator()(const ConnKey& k) const noexcept {
  std::uint64_t h = k.local.ip.value;
  h = h * 1000003ULL + k.local.port;
  h = h * 1000003ULL + k.remote.ip.value;
  h = h * 1000003ULL + k.remote.port;
  return std::hash<std::uint64_t>{}(h);
}

TcpLayer::TcpLayer(stack::IpLayer& ip, TcpConfig config) : ip_(ip), config_(config) {
  ip_.set_protocol_handler(net::kProtoTcp,
                           [this](const net::IpPacket& pkt) { handle_packet(pkt); });
}

TcpLayer::~TcpLayer() {
  ip_.set_protocol_handler(net::kProtoTcp, nullptr);
  // A connection still open here may be kept alive by its own handler.
  for (auto& [key, conn] : connections_) conn->drop_handlers();
}

void TcpLayer::listen(std::uint16_t port, AcceptHandler handler) {
  listen(port, std::move(handler), config_);
}

void TcpLayer::listen(std::uint16_t port, AcceptHandler handler, const TcpConfig& config) {
  if (listeners_.contains(port)) {
    throw std::runtime_error("TCP port already listening: " + std::to_string(port));
  }
  listeners_[port] = Listener{std::move(handler), config};
}

void TcpLayer::close_listener(std::uint16_t port) { listeners_.erase(port); }

TcpConnection::Ptr TcpLayer::connect(net::Endpoint remote) {
  return connect(remote, config_);
}

TcpConnection::Ptr TcpLayer::connect(net::Endpoint remote, const TcpConfig& config) {
  // Pick an unused ephemeral port for this (remote) pair.
  std::uint16_t port = 0;
  for (int attempts = 0; attempts < 32768; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? 32768 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (!connections_.contains(ConnKey{{ip_.ip_address(), candidate}, remote})) {
      port = candidate;
      break;
    }
  }
  if (port == 0) throw std::runtime_error("TCP ephemeral port space exhausted");

  auto conn = add_connection({ip_.ip_address(), port}, remote, config);
  conn->start_connect();
  return conn;
}

TcpConnection::Ptr TcpLayer::add_connection(const net::Endpoint& local,
                                            const net::Endpoint& remote,
                                            const TcpConfig& config) {
  if (metrics_.retransmits == nullptr) {
    obs::MetricsRegistry& reg = sim().metrics();
    metrics_.retransmits = &reg.counter("tcp.retransmits");
    metrics_.fast_retransmits = &reg.counter("tcp.fast_retransmits");
    metrics_.rto_events = &reg.counter("tcp.rto_events");
    metrics_.rtt_ms = &reg.histogram(
        "tcp.rtt_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000});
  }
  auto conn = TcpConnection::Ptr(new TcpConnection(*this, local, remote, config));
  connections_[ConnKey{local, remote}] = conn;
  return conn;
}

void TcpLayer::handle_packet(const net::IpPacket& pkt) {
  WAV_PROF_SCOPE("tcp", "handle_packet");
  const auto* seg = pkt.tcp();
  if (seg == nullptr) return;
  const net::Endpoint local{pkt.dst, seg->dst_port};
  const net::Endpoint remote{pkt.src, seg->src_port};

  if (const auto it = connections_.find(ConnKey{local, remote}); it != connections_.end()) {
    // Keep the connection alive through the callback even if it closes.
    const TcpConnection::Ptr conn = it->second;
    conn->handle_segment(*seg);
    return;
  }

  if (seg->flags.syn && !seg->flags.ack) {
    if (const auto it = listeners_.find(local.port); it != listeners_.end()) {
      add_connection(local, remote, it->second.config)->start_accept(seg->seq);
      return;
    }
  }
  if (!seg->flags.rst) send_rst_for(pkt);
}

void TcpLayer::send_rst_for(const net::IpPacket& pkt) {
  const auto* seg = pkt.tcp();
  net::TcpSegment rst;
  rst.flags.rst = true;
  rst.flags.ack = true;
  rst.seq = seg->ack;
  rst.ack = seg->seq + 1;
  emit(net::Endpoint{pkt.dst, seg->dst_port}, net::Endpoint{pkt.src, seg->src_port},
       std::move(rst));
}

void TcpLayer::remove_connection(const net::Endpoint& local, const net::Endpoint& remote) {
  connections_.erase(ConnKey{local, remote});
}

bool TcpLayer::emit(const net::Endpoint& from, const net::Endpoint& to,
                    net::TcpSegment seg) {
  seg.src_port = from.port;
  seg.dst_port = to.port;
  net::IpPacket pkt;
  pkt.src = from.ip;
  pkt.dst = to.ip;
  pkt.body = std::move(seg);
  return ip_.send_ip(std::move(pkt));
}

// --- TcpConnection: lifecycle --------------------------------------------

TcpConnection::TcpConnection(TcpLayer& layer, net::Endpoint local, net::Endpoint remote,
                             const TcpConfig& config)
    : layer_(layer),
      config_(config),
      local_(local),
      remote_(remote),
      rto_(config.initial_rto),
      rto_timer_(layer.sim(), [this] { on_rto(); },
                 WAV_PROF_CATEGORY("tcp", "rto_timer")),
      time_wait_timer_(layer.sim(), [this] { become_closed(CloseReason::kNormal); }) {
  cwnd_ = static_cast<std::uint64_t>(config_.mss) * config_.initial_cwnd_segments;
  ssthresh_ = UINT64_MAX;
}

TcpConnection::~TcpConnection() = default;

void TcpConnection::start_connect() {
  iss_ = layer_.next_iss_;
  layer_.next_iss_ += 64000 + static_cast<std::uint32_t>(layer_.sim().rng().uniform_u64(0, 4095));
  state_ = TcpState::kSynSent;
  net::TcpFlags syn;
  syn.syn = true;
  send_control(syn);
  arm_rto();
}

void TcpConnection::start_accept(std::uint32_t peer_iss) {
  irs_ = peer_iss;
  rcv_nxt_ = 1;  // SYN consumed offset 0
  iss_ = layer_.next_iss_;
  layer_.next_iss_ += 64000 + static_cast<std::uint32_t>(layer_.sim().rng().uniform_u64(0, 4095));
  state_ = TcpState::kSynReceived;
  net::TcpFlags synack;
  synack.syn = true;
  synack.ack = true;
  send_control(synack);
  arm_rto();
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::kSynSent:
      become_closed(CloseReason::kNormal);
      return;
    case TcpState::kEstablished:
    case TcpState::kSynReceived:
    case TcpState::kCloseWait:
      fin_queued_ = true;
      try_send();
      return;
    default:
      return;  // already closing or closed
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  net::TcpFlags rst;
  rst.rst = true;
  rst.ack = true;
  send_control(rst);
  become_closed(CloseReason::kReset);
}

void TcpConnection::become_closed(CloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  const auto self = shared_from_this();  // keep alive past map erasure
  layer_.remove_connection(local_, remote_);
  // A closed connection fires no further event, so it lets go of every
  // handler: one that captures this connection's Ptr would otherwise keep
  // it alive forever.
  const ClosedHandler on_closed = std::move(on_closed_);
  drop_handlers();
  if (on_closed) on_closed(reason);
}

void TcpConnection::drop_handlers() {
  on_data_ = nullptr;
  on_established_ = nullptr;
  on_peer_closed_ = nullptr;
  on_closed_ = nullptr;
  on_send_ready_ = nullptr;
}

void TcpConnection::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  rto_timer_.cancel();
  time_wait_timer_.arm(config_.time_wait);
}

// --- TcpConnection: sending ----------------------------------------------

std::uint64_t TcpConnection::send_buffer_space() const noexcept {
  const std::uint64_t used = send_store_.end() - (snd_una_data_ - 1);
  const std::uint64_t cap = config_.receive_buffer;  // symmetric buffer sizing
  return used >= cap ? 0 : cap - used;
}

void TcpConnection::send(net::Chunk data) {
  if (fin_queued_ || state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) {
    log::debug("tcp", "send() on closing/closed connection ignored");
    return;
  }
  send_store_.append(std::move(data));
  try_send();
}

std::uint64_t TcpConnection::effective_window() const noexcept {
  return std::min(cwnd_, peer_window_);
}

std::uint32_t TcpConnection::wire_seq(std::uint64_t offset) const noexcept {
  return iss_ + static_cast<std::uint32_t>(offset);
}

std::uint64_t TcpConnection::unwrap_seq(std::uint32_t wire, std::uint64_t near) const noexcept {
  return unwrap(wire, irs_, near);
}

std::uint32_t TcpConnection::wire_ack() const noexcept {
  return irs_ + static_cast<std::uint32_t>(rcv_nxt_);
}

void TcpConnection::try_send() {
  WAV_PROF_SCOPE("tcp", "try_send");
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing &&
      state_ != TcpState::kLastAck) {
    return;
  }
  const std::uint64_t data_end = 1 + send_store_.end();
  const std::uint32_t mss = config_.mss;
  for (;;) {
    const std::uint64_t flight = snd_nxt_data_ - snd_una_data_;
    const std::uint64_t wnd = effective_window();
    if (flight >= wnd) break;
    const std::uint64_t avail = data_end - snd_nxt_data_;
    const std::uint64_t len = std::min<std::uint64_t>({mss, wnd - flight, avail});
    if (len == 0) break;
    send_segment(snd_nxt_data_, len, false);
    snd_nxt_data_ += len;
  }
  if (fin_queued_ && !fin_sent_ && snd_nxt_data_ == data_end) {
    fin_sent_ = true;
    net::TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    send_control(fin);
    if (state_ == TcpState::kEstablished || state_ == TcpState::kSynReceived) {
      state_ = TcpState::kFinWait1;
    } else if (state_ == TcpState::kCloseWait) {
      state_ = TcpState::kLastAck;
    }
    arm_rto();
  }
}

void TcpConnection::send_segment(std::uint64_t offset, std::uint64_t len,
                                 bool is_retransmit) {
  net::TcpSegment seg;
  seg.seq = wire_seq(offset);
  seg.ack = wire_ack();
  seg.flags.ack = true;
  seg.flags.psh = true;
  seg.window = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      config_.receive_buffer - reassembly_bytes_, UINT32_MAX));
  seg.data = send_store_.copy_range(offset - 1, len);

  if (is_retransmit) {
    ++stats_.retransmits;
    layer_.metrics_.retransmits->inc();
  } else if (!rtt_sample_) {
    rtt_sample_ = {offset + len, layer_.sim().now()};
  }
  layer_.emit(local_, remote_, std::move(seg));
  if (!rto_timer_.armed()) arm_rto();
}

void TcpConnection::send_control(net::TcpFlags flags) {
  net::TcpSegment seg;
  seg.flags = flags;
  if (flags.syn) {
    seg.seq = wire_seq(0);
  } else if (flags.fin) {
    seg.seq = wire_seq(1 + send_store_.end());
  } else {
    seg.seq = wire_seq(snd_nxt_data_);
  }
  if (flags.ack) seg.ack = wire_ack();
  seg.window = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      config_.receive_buffer - reassembly_bytes_, UINT32_MAX));
  layer_.emit(local_, remote_, std::move(seg));
}

void TcpConnection::send_ack() {
  net::TcpFlags ack;
  ack.ack = true;
  send_control(ack);
}

// --- TcpConnection: timers ------------------------------------------------

void TcpConnection::arm_rto() {
  Duration timeout = rto_;
  for (std::uint32_t i = 0; i < backoff_; ++i) timeout *= 2;
  timeout = std::min(timeout, config_.max_rto);
  rto_timer_.arm(timeout);
}

void TcpConnection::on_rto() {
  WAV_PROF_SCOPE("tcp", "rto");
  const auto& cfg = config_;
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    if (++syn_retries_ > cfg.max_syn_retries) {
      become_closed(CloseReason::kTimeout);
      return;
    }
    net::TcpFlags f;
    f.syn = true;
    f.ack = state_ == TcpState::kSynReceived;
    send_control(f);
    ++backoff_;
    arm_rto();
    return;
  }

  const bool data_outstanding = snd_nxt_data_ > snd_una_data_;
  const bool fin_outstanding = fin_sent_ && !fin_acked_;
  if (!data_outstanding && !fin_outstanding) return;

  if (++backoff_ > kMaxBackoff) {
    become_closed(CloseReason::kTimeout);
    return;
  }
  layer_.metrics_.rto_events->inc();
  // Reno loss response to a timeout: collapse to one segment and
  // retransmit from the oldest unacknowledged byte (go-back-N).
  const std::uint64_t flight = snd_nxt_data_ - snd_una_data_;
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2ULL * cfg.mss);
  cwnd_ = cfg.mss;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  rtt_sample_.reset();  // Karn's rule

  if (data_outstanding) {
    snd_nxt_data_ = snd_una_data_;
    try_send();
  } else {
    net::TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    ++stats_.retransmits;
    layer_.metrics_.retransmits->inc();
    send_control(fin);
  }
  arm_rto();
}

void TcpConnection::update_rtt(Duration sample) {
  const auto& cfg = config_;
  if (srtt_ == kZeroDuration) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Duration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg.min_rto, cfg.max_rto);
  stats_.smoothed_rtt = srtt_;
  layer_.metrics_.rtt_ms->observe(to_milliseconds(sample));
}

// --- TcpConnection: receiving ----------------------------------------------

void TcpConnection::handle_segment(const net::TcpSegment& seg) {
  WAV_PROF_SCOPE("tcp", "handle_segment");

  if (seg.flags.rst) {
    const CloseReason reason =
        state_ == TcpState::kSynSent ? CloseReason::kRefused : CloseReason::kReset;
    become_closed(reason);
    return;
  }

  // Handshake progress.
  if (state_ == TcpState::kSynSent) {
    if (seg.flags.syn && seg.flags.ack) {
      irs_ = seg.seq;
      rcv_nxt_ = 1;
      const std::uint64_t ack_abs = unwrap(seg.ack, iss_, 1);
      if (ack_abs != 1) {
        abort();
        return;
      }
      syn_acked_ = true;
      backoff_ = 0;
      rto_timer_.cancel();
      peer_window_ = seg.window;
      state_ = TcpState::kEstablished;
      send_ack();
      if (on_established_) on_established_();
      try_send();
    }
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    if (seg.flags.syn && !seg.flags.ack) {
      // Retransmitted SYN: repeat the SYN|ACK.
      net::TcpFlags synack;
      synack.syn = true;
      synack.ack = true;
      send_control(synack);
      return;
    }
    if (seg.flags.ack && unwrap(seg.ack, iss_, 1) >= 1) {
      syn_acked_ = true;
      backoff_ = 0;
      rto_timer_.cancel();
      peer_window_ = seg.window;
      state_ = TcpState::kEstablished;
      if (const auto it = layer_.listeners_.find(local_.port); it != layer_.listeners_.end()) {
        it->second.handler(shared_from_this());
      }
      if (on_established_) on_established_();
      // Fall through: the handshake ACK may carry data.
    } else {
      return;
    }
  }
  if (state_ == TcpState::kTimeWait) {
    if (seg.flags.fin) send_ack();  // peer retransmitted its FIN
    return;
  }
  if (state_ == TcpState::kClosed) return;

  if (seg.flags.syn && seg.flags.ack) {
    // Duplicate SYN|ACK (our handshake ACK was lost): re-ACK.
    send_ack();
    return;
  }

  if (seg.flags.ack) handle_ack(seg);
  if (state_ == TcpState::kClosed) return;
  if (!seg.data.empty() || seg.flags.fin) handle_payload(seg);
}

void TcpConnection::handle_ack(const net::TcpSegment& seg) {
  peer_window_ = seg.window;
  const std::uint64_t data_end = 1 + send_store_.end();
  const std::uint64_t max_sendable = data_end + (fin_sent_ ? 1 : 0);
  const std::uint64_t ack_abs = unwrap(seg.ack, iss_, snd_una_data_);
  if (ack_abs > max_sendable) return;  // acks data never sent; ignore

  const std::uint64_t snd_una_overall = snd_una_data_;
  if (ack_abs > snd_una_overall) {
    const std::uint64_t newly_acked_data =
        std::min(ack_abs, data_end) > snd_una_data_ ? std::min(ack_abs, data_end) - snd_una_data_
                                                    : 0;
    snd_una_data_ = std::max(snd_una_data_, std::min(ack_abs, data_end));
    if (snd_nxt_data_ < snd_una_data_) snd_nxt_data_ = snd_una_data_;
    send_store_.release_until(snd_una_data_ - 1);
    stats_.bytes_acked += newly_acked_data;
    if (fin_sent_ && ack_abs >= data_end + 1) fin_acked_ = true;

    if (rtt_sample_ && ack_abs >= rtt_sample_->first) {
      update_rtt(layer_.sim().now() - rtt_sample_->second);
      rtt_sample_.reset();
    }
    dupacks_ = 0;

    const auto mss = static_cast<std::uint64_t>(config_.mss);
    if (in_fast_recovery_) {
      if (ack_abs >= recovery_point_) {
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: retransmit the next hole, deflate the window.
        const std::uint64_t hole =
            std::min<std::uint64_t>(mss, data_end - snd_una_data_);
        if (hole > 0) send_segment(snd_una_data_, hole, true);
        cwnd_ = cwnd_ > newly_acked_data ? cwnd_ - newly_acked_data + mss : mss;
      }
    } else if (newly_acked_data > 0) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min<std::uint64_t>(newly_acked_data, mss);  // slow start
      } else {
        cwnd_ += std::max<std::uint64_t>(1, mss * mss / cwnd_);  // congestion avoidance
      }
    }

    const bool everything_acked = snd_una_data_ == data_end && (!fin_sent_ || fin_acked_);
    if (everything_acked) {
      backoff_ = 0;
      rto_timer_.cancel();
    } else if (!in_fast_recovery_) {
      // Outside recovery a new ACK restarts the retransmission timer.
      // During recovery we deliberately leave the old timer running:
      // NewReno repairs only one hole per RTT, so when most of a window
      // was lost the RTO must eventually fire and fall back to go-back-N
      // instead of being postponed forever by partial ACKs.
      backoff_ = 0;
      arm_rto();
    }

    // Close-sequence state transitions driven by our FIN being acked.
    if (fin_acked_) {
      if (state_ == TcpState::kFinWait1) {
        state_ = TcpState::kFinWait2;
      } else if (state_ == TcpState::kClosing) {
        enter_time_wait();
      } else if (state_ == TcpState::kLastAck) {
        become_closed(CloseReason::kNormal);
        return;
      }
    }
    try_send();
    if (on_send_ready_ && send_buffer_space() > 0) on_send_ready_();
    return;
  }

  // Duplicate ACK handling (Reno fast retransmit / recovery).
  const bool is_dupack = ack_abs == snd_una_overall && seg.data.empty() &&
                         !seg.flags.fin && snd_nxt_data_ > snd_una_data_;
  if (!is_dupack) return;
  ++dupacks_;
  const auto mss = static_cast<std::uint64_t>(config_.mss);
  if (!in_fast_recovery_ && dupacks_ == config_.dupack_threshold) {
    const std::uint64_t flight = snd_nxt_data_ - snd_una_data_;
    ssthresh_ = std::max<std::uint64_t>(flight / 2, 2 * mss);
    in_fast_recovery_ = true;
    recovery_point_ = snd_nxt_data_;
    ++stats_.fast_retransmits;
    layer_.metrics_.fast_retransmits->inc();
    const std::uint64_t len =
        std::min<std::uint64_t>(mss, (1 + send_store_.end()) - snd_una_data_);
    if (len > 0) send_segment(snd_una_data_, len, true);
    cwnd_ = ssthresh_ + 3 * mss;
    rtt_sample_.reset();  // Karn's rule
  } else if (in_fast_recovery_) {
    cwnd_ += mss;  // window inflation per additional dupack
    try_send();
  }
}

void TcpConnection::handle_payload(const net::TcpSegment& seg) {
  const auto& cfg = config_;
  std::uint64_t off = unwrap_seq(seg.seq, rcv_nxt_);
  std::uint64_t len = seg.data.empty() ? 0 : total_size(seg.data);

  if (seg.flags.fin) {
    const std::uint64_t fin_off = off + len;
    if (!peer_fin_offset_) {
      peer_fin_offset_ = fin_off;
    }
  }

  if (len > 0) {
    if (off + len <= rcv_nxt_) {
      send_ack();  // complete duplicate
      return;
    }
    std::vector<net::Chunk> data = seg.data;
    if (off < rcv_nxt_) {
      // Trim the already-received prefix.
      std::uint64_t trim = rcv_nxt_ - off;
      std::vector<net::Chunk> trimmed;
      for (auto& c : data) {
        if (trim >= c.size()) {
          trim -= c.size();
          continue;
        }
        if (trim > 0) {
          (void)c.split_front(trim);
          trim = 0;
        }
        trimmed.push_back(std::move(c));
      }
      data = std::move(trimmed);
      off = rcv_nxt_;
      len = total_size(data);
    }
    const auto existing = reassembly_.find(off);
    const bool keep_existing =
        existing != reassembly_.end() && total_size(existing->second) >= len;
    if (!keep_existing && (reassembly_bytes_ + len <= cfg.receive_buffer || off == rcv_nxt_)) {
      if (existing != reassembly_.end()) {
        reassembly_bytes_ -= total_size(existing->second);
        reassembly_.erase(existing);
      }
      reassembly_bytes_ += len;
      reassembly_[off] = std::move(data);
    }
    // else: duplicate-or-shorter segment, or window overflow — drop.
    deliver_in_order();
  }

  // FIN consumption once all preceding data has been delivered.
  if (peer_fin_offset_ && *peer_fin_offset_ == rcv_nxt_ && !peer_fin_delivered_) {
    peer_fin_delivered_ = true;
    ++rcv_nxt_;
    if (state_ == TcpState::kEstablished) {
      state_ = TcpState::kCloseWait;
    } else if (state_ == TcpState::kFinWait1) {
      state_ = fin_acked_ ? TcpState::kTimeWait : TcpState::kClosing;
      if (state_ == TcpState::kTimeWait) enter_time_wait();
    } else if (state_ == TcpState::kFinWait2) {
      enter_time_wait();
    }
    if (on_peer_closed_) on_peer_closed_();
  }
  send_ack();
}

void TcpConnection::deliver_in_order() {
  while (true) {
    const auto it = reassembly_.begin();
    if (it == reassembly_.end() || it->first > rcv_nxt_) break;
    std::vector<net::Chunk> data = std::move(it->second);
    std::uint64_t off = it->first;
    std::uint64_t len = total_size(data);
    reassembly_.erase(it);
    reassembly_bytes_ -= len;
    if (off + len <= rcv_nxt_) continue;  // fully stale overlap
    if (off < rcv_nxt_) {
      // Partial overlap with already-delivered bytes: trim the prefix.
      std::uint64_t trim = rcv_nxt_ - off;
      std::vector<net::Chunk> trimmed;
      for (auto& c : data) {
        if (trim >= c.size()) {
          trim -= c.size();
          continue;
        }
        if (trim > 0) {
          (void)c.split_front(trim);
          trim = 0;
        }
        trimmed.push_back(std::move(c));
      }
      data = std::move(trimmed);
      len = total_size(data);
    }
    rcv_nxt_ += len;
    if (on_data_) on_data_(data);
  }
}

}  // namespace wav::tcp
