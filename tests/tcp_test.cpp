// Integration tests for the Reno TCP implementation over the simulated
// fabric: handshake, bulk transfer, loss recovery, flow control, close
// sequences and refusal.
#include <gtest/gtest.h>

#include "fabric/host.hpp"
#include "fabric/network.hpp"
#include "tcp/tcp.hpp"

namespace wav {
namespace {

struct TwoHosts {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::HostNode* a{};
  fabric::HostNode* b{};
  fabric::Link* link{};

  explicit TwoHosts(fabric::LinkConfig cfg = {}) {
    a = &network.add_node<fabric::HostNode>("a");
    b = &network.add_node<fabric::HostNode>("b");
    link = &network.connect(
        *a, {net::Ipv4Address::parse("10.0.0.1").value(), {net::Ipv4Address::parse("10.0.0.0").value(), 24}},
        *b, {net::Ipv4Address::parse("10.0.0.2").value(), {net::Ipv4Address::parse("10.0.0.0").value(), 24}},
        cfg);
    a->set_default_route(0);
    b->set_default_route(0);
  }
};

TEST(Tcp, HandshakeAndSmallTransfer) {
  TwoHosts env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  std::string received;
  bool accepted = false;
  tcp_b.listen(80, [&](tcp::TcpConnection::Ptr conn) {
    accepted = true;
    conn->on_data([&received, conn](const std::vector<net::Chunk>& chunks) {
      for (const auto& c : chunks) received += bytes_to_string(c.real);
    });
  });

  auto conn = tcp_a.connect({env.b->primary_address(), 80});
  bool established = false;
  conn->on_established([&] { established = true; });
  conn->send_bytes("hello over simulated tcp");

  env.sim.run_for(seconds(2));
  EXPECT_TRUE(established);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(received, "hello over simulated tcp");
  EXPECT_EQ(conn->state(), tcp::TcpState::kEstablished);
}

TEST(Tcp, BulkTransferReachesLinkRate) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.rate = megabits_per_sec(50);
  TwoHosts env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  std::uint64_t received = 0;
  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&received, conn](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
    });
  });

  const std::uint64_t kTransfer = 8ull * 1024 * 1024;  // 8 MiB
  auto conn = tcp_a.connect({env.b->primary_address(), 5001});
  conn->on_established([&] { conn->send_virtual(kTransfer); });

  env.sim.run_for(seconds(30));
  EXPECT_EQ(received, kTransfer);

  EXPECT_GE(conn->stats().bytes_acked, kTransfer);
}

TEST(Tcp, BulkTransferTimed) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(5);
  cfg.rate = megabits_per_sec(100);
  TwoHosts env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  const std::uint64_t kTransfer = 16ull * 1024 * 1024;
  std::uint64_t received = 0;
  TimePoint done{};
  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&, conn](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
      if (received >= kTransfer) done = env.sim.now();
    });
  });
  auto conn = tcp_a.connect({env.b->primary_address(), 5001});
  conn->on_established([&] { conn->send_virtual(kTransfer); });
  env.sim.run_for(seconds(60));
  ASSERT_EQ(received, kTransfer);
  const double secs = to_seconds(done);
  const double goodput_mbps = static_cast<double>(kTransfer) * 8.0 / secs / 1e6;
  // 100 Mbit/s link, 10 ms RTT: expect at least 60 Mbit/s goodput.
  EXPECT_GT(goodput_mbps, 60.0);
  EXPECT_LT(goodput_mbps, 101.0);
}

TEST(Tcp, RecoversFromLoss) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.rate = megabits_per_sec(20);
  cfg.loss_probability = 0.01;
  TwoHosts env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  const std::uint64_t kTransfer = 2ull * 1024 * 1024;
  std::uint64_t received = 0;
  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&received, conn](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
    });
  });
  auto conn = tcp_a.connect({env.b->primary_address(), 5001});
  conn->on_established([&] { conn->send_virtual(kTransfer); });
  env.sim.run_for(seconds(120));
  EXPECT_EQ(received, kTransfer);
  EXPECT_GT(conn->stats().retransmits + conn->stats().fast_retransmits, 0u);
}

TEST(Tcp, OrderlyClose) {
  TwoHosts env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  bool server_saw_close = false;
  tcp::TcpConnection::Ptr server_conn;
  tcp_b.listen(80, [&](tcp::TcpConnection::Ptr conn) {
    server_conn = conn;
    conn->on_peer_closed([&server_saw_close, conn] {
      server_saw_close = true;
      conn->close();  // close our side too
    });
  });

  auto conn = tcp_a.connect({env.b->primary_address(), 80});
  bool client_closed = false;
  conn->on_closed([&](tcp::CloseReason r) {
    client_closed = true;
    EXPECT_EQ(r, tcp::CloseReason::kNormal);
  });
  conn->on_established([&] {
    conn->send_bytes("bye");
    conn->close();
  });

  env.sim.run_for(seconds(10));
  EXPECT_TRUE(server_saw_close);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(conn->state(), tcp::TcpState::kClosed);
  ASSERT_TRUE(server_conn);
  EXPECT_EQ(server_conn->state(), tcp::TcpState::kClosed);
  EXPECT_EQ(tcp_a.connection_count(), 0u);
  EXPECT_EQ(tcp_b.connection_count(), 0u);
}

TEST(Tcp, ClosedConnectionReleasesHandlersThatCaptureIt) {
  // Each server handler captures its own connection's Ptr; closing must
  // break the cycle so the connection is freed.
  TwoHosts env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  std::weak_ptr<tcp::TcpConnection> server;
  bool server_closed = false;
  tcp_b.listen(80, [&](tcp::TcpConnection::Ptr conn) {
    server = conn;
    conn->on_data([conn](const std::vector<net::Chunk>&) {});
    conn->on_peer_closed([conn] { conn->close(); });
    conn->on_closed([&server_closed, conn](tcp::CloseReason) { server_closed = true; });
  });
  auto client = tcp_a.connect({env.b->primary_address(), 80});
  client->on_established([&] {
    client->send_bytes("bye");
    client->close();
  });

  env.sim.run_for(seconds(10));
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(tcp_b.connection_count(), 0u);
  EXPECT_TRUE(server.expired());
}

TEST(Tcp, LayerDestructionReleasesEstablishedConnections) {
  // A connection still established when its layer goes away is freed
  // even though its own handler holds its Ptr.
  TwoHosts env;
  std::weak_ptr<tcp::TcpConnection> server;
  {
    tcp::TcpLayer tcp_a{*env.a};
    tcp::TcpLayer tcp_b{*env.b};
    tcp_b.listen(80, [&](tcp::TcpConnection::Ptr conn) {
      server = conn;
      conn->on_data([conn](const std::vector<net::Chunk>&) {});
    });
    auto client = tcp_a.connect({env.b->primary_address(), 80});
    client->send_bytes("hello");
    env.sim.run_for(seconds(2));
    ASSERT_FALSE(server.expired());
    EXPECT_EQ(server.lock()->state(), tcp::TcpState::kEstablished);
  }
  EXPECT_TRUE(server.expired());
}

TEST(Tcp, ConnectionRefused) {
  TwoHosts env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  auto conn = tcp_a.connect({env.b->primary_address(), 81});
  bool refused = false;
  conn->on_closed([&](tcp::CloseReason r) { refused = r == tcp::CloseReason::kRefused; });
  env.sim.run_for(seconds(5));
  EXPECT_TRUE(refused);
}

TEST(Tcp, DataFlowsBothDirections) {
  TwoHosts env;
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  std::string server_got, client_got;
  tcp_b.listen(7, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&, conn](const std::vector<net::Chunk>& chunks) {
      for (const auto& c : chunks) server_got += bytes_to_string(c.real);
      conn->send_bytes("pong");
    });
  });
  auto conn = tcp_a.connect({env.b->primary_address(), 7});
  conn->on_data([&](const std::vector<net::Chunk>& chunks) {
    for (const auto& c : chunks) client_got += bytes_to_string(c.real);
  });
  conn->on_established([&] { conn->send_bytes("ping"); });
  env.sim.run_for(seconds(5));
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST(Tcp, SmoothedRttTracksLinkDelay) {
  fabric::LinkConfig cfg;
  cfg.delay = milliseconds(40);
  TwoHosts env{cfg};
  tcp::TcpLayer tcp_a{*env.a};
  tcp::TcpLayer tcp_b{*env.b};

  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([conn](const std::vector<net::Chunk>&) {});
  });
  auto conn = tcp_a.connect({env.b->primary_address(), 5001});
  conn->on_established([&] { conn->send_virtual(256 * 1024); });
  env.sim.run_for(seconds(30));
  const double srtt_ms = to_milliseconds(conn->stats().smoothed_rtt);
  EXPECT_GT(srtt_ms, 75.0);
  EXPECT_LT(srtt_ms, 200.0);  // RTT 80 ms + queueing
}

}  // namespace
}  // namespace wav
