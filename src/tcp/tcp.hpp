// TCP over the IpLayer seam: a Reno-style implementation with slow start,
// congestion avoidance, fast retransmit/recovery, Jacobson RTO with
// Karn's rule, flow control and full open/close handshakes.
//
// The same code drives (a) physical-plane connections (VM migration
// transport, "Physical" baselines in the paper's figures) and (b)
// virtual-plane connections riding WAVNet or IPOP tunnels, where the
// netperf/ttcp/HTTP/MPI workloads measure exactly the congestion dynamics
// the paper's Figures 6-9 report.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "stack/ip_layer.hpp"
#include "tcp/stream_store.hpp"

namespace wav::tcp {

struct TcpConfig {
  std::uint32_t mss{1400};             // payload bytes per segment (tunnel headroom)
  std::uint32_t initial_cwnd_segments{4};
  /// Advertised window cap. The 256 KiB default matches the era of the
  /// paper's testbed (no window autotuning); it also bounds slow-start
  /// overshoot, which matters because Reno without SACK recovers badly
  /// from losing most of a window.
  std::uint64_t receive_buffer{256 * 1024};
  Duration initial_rto{seconds(1)};
  Duration min_rto{milliseconds(200)};
  Duration max_rto{seconds(60)};
  Duration time_wait{seconds(1)};      // shortened 2*MSL for simulation hygiene
  std::uint32_t max_syn_retries{6};
  std::uint32_t dupack_threshold{3};
};

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

[[nodiscard]] const char* to_string(TcpState s) noexcept;

enum class CloseReason {
  kNormal,        // orderly FIN exchange
  kReset,         // RST received
  kTimeout,       // retransmission limit exceeded
  kRefused,       // SYN answered by RST
};

/// Per-connection counts; the registry's tcp.* counters are the
/// simulation-wide aggregates.
struct TcpStats {
  std::uint64_t bytes_acked{0};
  std::uint64_t retransmits{0};
  std::uint64_t fast_retransmits{0};
  Duration smoothed_rtt{kZeroDuration};
};

class TcpLayer;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using Ptr = std::shared_ptr<TcpConnection>;
  using DataHandler = std::function<void(const std::vector<net::Chunk>&)>;
  using EventHandler = std::function<void()>;
  using ClosedHandler = std::function<void(CloseReason)>;

  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- application API ---------------------------------------------------
  //
  // A connection drops all five handlers when it closes, and so does its
  // TcpLayer's destructor, so a handler may capture the connection's own
  // Ptr without keeping it alive.

  /// Queues stream data for transmission.
  void send(net::Chunk data);
  /// Convenience overloads.
  void send_bytes(std::string_view text) { send(net::Chunk::from_string(text)); }
  void send_virtual(std::uint64_t n) { send(net::Chunk::virtual_bytes(n)); }

  /// In-order payload delivery. Chunk boundaries from the sender are not
  /// necessarily preserved (TCP is a byte stream) but byte order and
  /// real/virtual classification are.
  void on_data(DataHandler handler) { on_data_ = std::move(handler); }
  void on_established(EventHandler handler) { on_established_ = std::move(handler); }
  /// Peer sent FIN (end of its stream).
  void on_peer_closed(EventHandler handler) { on_peer_closed_ = std::move(handler); }
  void on_closed(ClosedHandler handler) { on_closed_ = std::move(handler); }
  /// Fired whenever send-buffer space frees up (app can push more data).
  void on_send_ready(EventHandler handler) { on_send_ready_ = std::move(handler); }

  /// Orderly close: flushes queued data then sends FIN.
  void close();
  /// Abortive close: sends RST and drops state.
  void abort();

  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] bool is_open() const noexcept { return state_ == TcpState::kEstablished; }
  [[nodiscard]] net::Endpoint local() const noexcept { return local_; }
  [[nodiscard]] net::Endpoint remote() const noexcept { return remote_; }
  [[nodiscard]] const TcpStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] std::uint64_t bytes_unsent() const noexcept {
    // Data offsets are absolute (SYN occupies offset 0, data starts at 1).
    return (1 + send_store_.end()) - snd_nxt_data_;
  }
  [[nodiscard]] std::uint64_t bytes_in_flight() const noexcept {
    return snd_nxt_data_ - snd_una_data_;
  }
  /// Send-buffer backpressure: bytes that may still be queued before the
  /// configured buffer fills.
  [[nodiscard]] std::uint64_t send_buffer_space() const noexcept;

 private:
  friend class TcpLayer;

  TcpConnection(TcpLayer& layer, net::Endpoint local, net::Endpoint remote,
                const TcpConfig& config);

  void start_connect();
  void start_accept(std::uint32_t peer_iss);

  void handle_segment(const net::TcpSegment& seg);
  void handle_ack(const net::TcpSegment& seg);
  void handle_payload(const net::TcpSegment& seg);

  void try_send();
  void send_segment(std::uint64_t offset, std::uint64_t len, bool is_retransmit);
  void send_control(net::TcpFlags flags);
  void send_ack();
  void on_rto();
  void arm_rto();
  void update_rtt(Duration sample);
  void enter_time_wait();
  void become_closed(CloseReason reason);
  void drop_handlers();
  void deliver_in_order();

  [[nodiscard]] std::uint64_t effective_window() const noexcept;
  [[nodiscard]] std::uint32_t wire_seq(std::uint64_t offset) const noexcept;
  [[nodiscard]] std::uint64_t unwrap_seq(std::uint32_t wire, std::uint64_t near) const noexcept;
  [[nodiscard]] std::uint32_t wire_ack() const noexcept;

  TcpLayer& layer_;
  const TcpConfig config_;  // per-connection copy (may override the layer's)
  net::Endpoint local_;
  net::Endpoint remote_;
  TcpState state_{TcpState::kClosed};

  // Sequence bookkeeping uses absolute stream offsets (SYN occupies
  // offset 0, data starts at 1, FIN takes one offset past the data);
  // 32-bit wire sequence numbers are derived modulo 2^32 from the ISS.
  std::uint32_t iss_{0};
  std::uint32_t irs_{0};

  StreamStore send_store_;          // offsets are *data* offsets starting at 1
  std::uint64_t snd_una_data_{1};   // oldest unacknowledged data offset
  std::uint64_t snd_nxt_data_{1};   // next data offset to send
  bool syn_acked_{false};
  bool fin_queued_{false};
  bool fin_sent_{false};
  bool fin_acked_{false};

  std::uint64_t rcv_nxt_{0};        // next expected absolute offset (0 = SYN)
  std::map<std::uint64_t, std::vector<net::Chunk>> reassembly_;
  std::uint64_t reassembly_bytes_{0};
  std::optional<std::uint64_t> peer_fin_offset_;
  bool peer_fin_delivered_{false};

  // Congestion control (Reno).
  std::uint64_t cwnd_{0};
  std::uint64_t ssthresh_{0};
  std::uint64_t peer_window_{65535};
  std::uint32_t dupacks_{0};
  bool in_fast_recovery_{false};
  std::uint64_t recovery_point_{0};

  // RTO machinery.
  Duration srtt_{kZeroDuration};
  Duration rttvar_{kZeroDuration};
  Duration rto_;
  std::uint32_t backoff_{0};
  std::uint32_t syn_retries_{0};
  std::optional<std::pair<std::uint64_t, TimePoint>> rtt_sample_;  // (offset end, sent at)
  sim::OneShotTimer rto_timer_;
  sim::OneShotTimer time_wait_timer_;

  TcpStats stats_;

  DataHandler on_data_;
  EventHandler on_established_;
  EventHandler on_peer_closed_;
  ClosedHandler on_closed_;
  EventHandler on_send_ready_;
};

class TcpLayer {
 public:
  using AcceptHandler = std::function<void(TcpConnection::Ptr)>;

  explicit TcpLayer(stack::IpLayer& ip, TcpConfig config = {});
  ~TcpLayer();

  TcpLayer(const TcpLayer&) = delete;
  TcpLayer& operator=(const TcpLayer&) = delete;

  /// Starts listening; each accepted connection is handed to the handler
  /// once established. Throws if the port is already in use. The optional
  /// config override applies to connections accepted on this port (e.g.
  /// the migration receiver's fixed 128 KiB socket buffer).
  void listen(std::uint16_t port, AcceptHandler handler);
  void listen(std::uint16_t port, AcceptHandler handler, const TcpConfig& config);
  void close_listener(std::uint16_t port);

  /// Opens a client connection from an ephemeral port, optionally with a
  /// per-connection config override.
  [[nodiscard]] TcpConnection::Ptr connect(net::Endpoint remote);
  [[nodiscard]] TcpConnection::Ptr connect(net::Endpoint remote, const TcpConfig& config);

  [[nodiscard]] const TcpConfig& config() const noexcept { return config_; }
  [[nodiscard]] stack::IpLayer& ip() noexcept { return ip_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return ip_.sim(); }
  [[nodiscard]] std::size_t connection_count() const noexcept { return connections_.size(); }

 private:
  friend class TcpConnection;

  struct ConnKey {
    net::Endpoint local;
    net::Endpoint remote;
    bool operator==(const ConnKey&) const = default;
  };
  struct Listener {
    AcceptHandler handler;
    TcpConfig config;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept;
  };

  /// Creates and tables a connection; binds metrics_ on the first one.
  TcpConnection::Ptr add_connection(const net::Endpoint& local, const net::Endpoint& remote,
                                    const TcpConfig& config);
  void handle_packet(const net::IpPacket& pkt);
  void remove_connection(const net::Endpoint& local, const net::Endpoint& remote);
  bool emit(const net::Endpoint& from, const net::Endpoint& to, net::TcpSegment seg);
  void send_rst_for(const net::IpPacket& pkt);

  stack::IpLayer& ip_;
  TcpConfig config_;
  std::unordered_map<ConnKey, TcpConnection::Ptr, ConnKeyHash> connections_;
  std::unordered_map<std::uint16_t, Listener> listeners_;
  std::uint16_t next_ephemeral_{32768};
  std::uint32_t next_iss_{1000};

  /// Aggregate (instance-less) registry handles shared by every
  /// connection. Bound when the first connection is created, so a layer
  /// that never connects registers no tcp.* metric.
  struct Metrics {
    obs::Counter* retransmits{nullptr};
    obs::Counter* fast_retransmits{nullptr};
    obs::Counter* rto_events{nullptr};
    obs::Histogram* rtt_ms{nullptr};
  };
  Metrics metrics_;
};

}  // namespace wav::tcp
