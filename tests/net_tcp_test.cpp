#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "net/session.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::Replica;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

TEST(Tcp, RoundTripBytes) {
  TcpListener listener(0);
  std::thread server([&] {
    auto connection = listener.accept();
    std::uint8_t buffer[5] = {};
    connection->read(buffer, 5);
    connection->write(buffer, 5);
  });
  auto client = tcp_connect("127.0.0.1", listener.port());
  const std::uint8_t out[5] = {1, 2, 3, 4, 5};
  client->write(out, 5);
  std::uint8_t echoed[5] = {};
  client->read(echoed, 5);
  EXPECT_EQ(echoed[4], 5);
  server.join();
}

TEST(Tcp, ConnectRefusedThrows) {
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);  // grab an ephemeral port, then free it
    dead_port = listener.port();
  }
  TcpOptions options;
  options.connect_timeout_ms = 2000;
  EXPECT_THROW(tcp_connect("127.0.0.1", dead_port, options),
               TransportError);
}

TEST(Tcp, ReadTimesOutWhenPeerStalls) {
  TcpListener listener(0);
  std::thread server([&] {
    auto connection = listener.accept();
    // Accept and then say nothing.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  TcpOptions options;
  options.io_timeout_ms = 100;
  auto client = tcp_connect("127.0.0.1", listener.port(), options);
  std::uint8_t byte = 0;
  EXPECT_THROW(client->read(&byte, 1), TransportError);
  server.join();
}

TEST(Tcp, EofMidFrameIsTransportError) {
  TcpListener listener(0);
  std::thread server([&] {
    auto connection = listener.accept();
    const std::uint8_t half[3] = {0x46, 0x50, 1};
    connection->write(half, 3);
    connection->close();
  });
  auto client = tcp_connect("127.0.0.1", listener.port());
  SessionBudget budget;
  EXPECT_THROW(read_frame(*client, budget), TransportError);
  server.join();
}

/// Full session over real sockets: client pushes a filter-matching
/// item into the serving replica.
TEST(TcpSession, PushDeliversToServer) {
  Replica server_replica(ReplicaId(1), Filter::addresses({HostId(42)}));
  Replica client_replica(ReplicaId(2), Filter::addresses({HostId(7)}));
  client_replica.create(to(42), {'h', 'i'});

  TcpListener listener(0);
  ServerSessionOutcome server_outcome;
  std::thread server([&] {
    auto connection = listener.accept();
    server_outcome = serve_session(*connection, server_replica, nullptr,
                                   SimTime(0));
  });
  auto connection = tcp_connect("127.0.0.1", listener.port());
  const auto client_outcome = run_client_session(
      *connection, client_replica, nullptr, SyncMode::Push, SimTime(0));
  server.join();

  EXPECT_FALSE(client_outcome.transport_failed);
  EXPECT_FALSE(server_outcome.transport_failed);
  EXPECT_EQ(server_outcome.hello.replica, client_replica.id());
  EXPECT_EQ(client_outcome.server, server_replica.id());
  EXPECT_EQ(client_outcome.push.stats.items_sent, 1u);
  ASSERT_EQ(server_outcome.applied.result.delivered.size(), 1u);
  EXPECT_TRUE(server_outcome.applied.result.stats.complete);
  EXPECT_EQ(server_replica.store().size(), 1u);
  EXPECT_EQ(server_replica.check_invariants(), "");
}

/// Encounter mode runs both directions on one connection — each side
/// ends up with the other's filter-matching items.
TEST(TcpSession, EncounterSynchronizesBothWays) {
  Replica server_replica(ReplicaId(1), Filter::addresses({HostId(42)}));
  Replica client_replica(ReplicaId(2), Filter::addresses({HostId(7)}));
  server_replica.create(to(7), {'a'});   // for the client
  client_replica.create(to(42), {'b'});  // for the server

  TcpListener listener(0);
  ServerSessionOutcome server_outcome;
  std::thread server([&] {
    auto connection = listener.accept();
    server_outcome = serve_session(*connection, server_replica, nullptr,
                                   SimTime(0));
  });
  auto connection = tcp_connect("127.0.0.1", listener.port());
  const auto client_outcome =
      run_client_session(*connection, client_replica, nullptr,
                         SyncMode::Encounter, SimTime(0));
  server.join();

  EXPECT_FALSE(client_outcome.transport_failed);
  EXPECT_FALSE(server_outcome.transport_failed);
  EXPECT_EQ(client_outcome.pull.result.delivered.size(), 1u);
  EXPECT_EQ(server_outcome.applied.result.delivered.size(), 1u);
  EXPECT_EQ(client_replica.store().size(), 2u);
  EXPECT_EQ(server_replica.store().size(), 2u);
  EXPECT_EQ(client_replica.check_invariants(), "");
  EXPECT_EQ(server_replica.check_invariants(), "");
  // A second encounter moves nothing: at-most-once across sessions.
  TcpListener listener2(0);
  ServerSessionOutcome repeat_server;
  std::thread server2([&] {
    auto connection2 = listener2.accept();
    repeat_server = serve_session(*connection2, server_replica, nullptr,
                                  SimTime(1));
  });
  auto connection2 = tcp_connect("127.0.0.1", listener2.port());
  const auto repeat = run_client_session(
      *connection2, client_replica, nullptr, SyncMode::Encounter,
      SimTime(1));
  server2.join();
  EXPECT_EQ(repeat.pull.result.stats.items_sent, 0u);
  EXPECT_EQ(repeat_server.applied.result.stats.items_sent, 0u);
}

TEST(TcpSession, PullRespectsBandwidthCap) {
  Replica server_replica(ReplicaId(1), Filter::addresses({HostId(42)}));
  Replica client_replica(ReplicaId(2), Filter::addresses({HostId(7)}));
  for (int i = 0; i < 5; ++i) server_replica.create(to(7), {});

  repl::SyncOptions cap;
  cap.max_items = 2;
  TcpListener listener(0);
  std::thread server([&] {
    auto connection = listener.accept();
    serve_session(*connection, server_replica, nullptr, SimTime(0), cap);
  });
  auto connection = tcp_connect("127.0.0.1", listener.port());
  const auto outcome = run_client_session(
      *connection, client_replica, nullptr, SyncMode::Pull, SimTime(0));
  server.join();
  EXPECT_EQ(outcome.pull.result.stats.items_sent, 2u);
  EXPECT_FALSE(outcome.pull.result.stats.complete);
  EXPECT_TRUE(client_replica.knowledge().fragments().empty());
}

}  // namespace
}  // namespace pfrdtn::net
