#include "transport/tcp/tcp.hpp"

#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"
#include "tls/record.hpp"

namespace smt::transport {
namespace {

class TcpTest : public ::testing::Test {
 protected:
  TcpTest()
      : topology_(
            test::two_host_topology(engine_, host_config(), link_config())),
        client_host_(topology_->host(0)),
        server_host_(topology_->host(1)),
        client_(client_host_, 1000),
        server_(server_host_, 80) {
    server_.set_on_data([this](TcpEndpoint::ConnId conn, Bytes data) {
      append(server_received_, data);
      last_server_conn_ = conn;
    });
    client_.set_on_data([this](TcpEndpoint::ConnId, Bytes data) {
      append(client_received_, data);
    });
  }

  static stack::HostConfig host_config() {
    stack::HostConfig config;
    config.app_cores = 2;
    config.softirq_cores = 2;
    return config;
  }
  static sim::LinkConfig link_config() {
    sim::LinkConfig config;
    config.propagation = usec(1);
    return config;
  }

  /// kTLS-hw's driver step on the client: the pre-post hook binds every
  /// record-carrying segment to the connection's leased TX context.
  void offload_client_tls(const tls::TrafficKeys& keys) {
    client_.set_pre_post([this, keys](TcpEndpoint::ConnId conn,
                                      std::size_t queue,
                                      sim::SegmentDescriptor& desc,
                                      stack::CpuCore* core) {
      client_host_.flow_contexts().bind_tx(
          stack::FlowKey{sim::Proto::tcp, conn, std::uint32_t(queue)},
          tls::CipherSuite::aes_128_gcm_sha256, keys, desc.records, core);
    });
  }

  sim::ShardedEngine engine_{1};
  sim::EventLoop& loop_ = engine_.loop(0);
  std::unique_ptr<stack::Topology> topology_;
  stack::Host& client_host_;
  stack::Host& server_host_;
  TcpEndpoint client_;
  TcpEndpoint server_;
  Bytes server_received_;
  Bytes client_received_;
  TcpEndpoint::ConnId last_server_conn_ = 0;
};

TEST_F(TcpTest, SmallSendDelivered) {
  const auto conn = client_.connect(2, 80);
  client_.send(conn, to_bytes(std::string_view("hello tcp")));
  loop_.run();
  EXPECT_EQ(server_received_, to_bytes(std::string_view("hello tcp")));
}

TEST_F(TcpTest, AcceptCallbackFires) {
  int accepts = 0;
  server_.set_on_accept([&](TcpEndpoint::ConnId) { ++accepts; });
  const auto conn = client_.connect(2, 80);
  client_.send(conn, to_bytes(std::string_view("x")));
  loop_.run();
  EXPECT_EQ(accepts, 1);
}

TEST_F(TcpTest, LargeTransferSpansTsoSegments) {
  const auto conn = client_.connect(2, 80);
  Bytes big(200000, 0);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i % 251);
  client_.send(conn, big);
  loop_.run();
  ASSERT_EQ(server_received_.size(), big.size());
  EXPECT_EQ(server_received_, big);
  EXPECT_EQ(client_.unacked_bytes(conn), 0u);
}

TEST_F(TcpTest, MultipleSendsPreserveOrder) {
  const auto conn = client_.connect(2, 80);
  for (int i = 0; i < 10; ++i) {
    client_.send(conn, Bytes(100, std::uint8_t('a' + i)));
  }
  loop_.run();
  ASSERT_EQ(server_received_.size(), 1000u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(server_received_[std::size_t(i) * 100], std::uint8_t('a' + i));
  }
}

TEST_F(TcpTest, BidirectionalEcho) {
  server_.set_on_data([this](TcpEndpoint::ConnId conn, Bytes data) {
    server_.send(conn, std::move(data));  // echo back
  });
  const auto conn = client_.connect(2, 80);
  client_.send(conn, to_bytes(std::string_view("ping")));
  loop_.run();
  EXPECT_EQ(client_received_, to_bytes(std::string_view("ping")));
}

TEST_F(TcpTest, LostPacketRetransmitted) {
  // Drop the first data packet once; fast retransmit / RTO must recover.
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  const auto conn = client_.connect(2, 80);
  client_.send(conn, Bytes(50000, 0x42));
  loop_.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(server_received_.size(), 50000u);
  EXPECT_GT(client_.stats().retransmits, 0u);
}

TEST_F(TcpTest, BurstLossRecovered) {
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped < 5) {
      ++dropped;
      return true;
    }
    return false;
  });
  const auto conn = client_.connect(2, 80);
  Bytes big(100000, 0x17);
  client_.send(conn, big);
  loop_.run();
  EXPECT_EQ(server_received_, big);
}

TEST_F(TcpTest, InOrderDeliveryDespiteReordering) {
  // Deliver two sends; the stream must come out in order even though the
  // out-of-order buffer is exercised by a drop + retransmit.
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    // Drop the 2nd data packet only.
    if (pkt.hdr.type == sim::PacketType::data && ++dropped == 2) return true;
    return false;
  });
  const auto conn = client_.connect(2, 80);
  Bytes data(6000, 0);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::uint8_t(i % 256);
  client_.send(conn, data);
  loop_.run();
  EXPECT_EQ(server_received_, data);
}

TEST_F(TcpTest, StreamingDeliveryBeforeTransferCompletes) {
  // TCP delivers in-order bytes as they arrive — the receiver must see
  // data before the whole 200 KB transfer finishes (contrast with Homa).
  const auto conn = client_.connect(2, 80);
  client_.send(conn, Bytes(200000, 0x01));
  std::size_t seen_at_100us = 0;
  loop_.schedule(usec(100), [&] { seen_at_100us = server_received_.size(); });
  loop_.run();
  EXPECT_GT(seen_at_100us, 0u);
  EXPECT_LT(seen_at_100us, 200000u);
}

TEST_F(TcpTest, AppCoreChargedForSend) {
  const auto conn = client_.connect(2, 80);
  stack::CpuCore& core = client_host_.app_core(0);
  const auto busy_before = core.busy_ns();
  client_.send(conn, Bytes(10000, 0), &core);
  loop_.run();
  EXPECT_GT(core.busy_ns(), busy_before);
  EXPECT_EQ(server_received_.size(), 10000u);
}

TEST_F(TcpTest, TwoConnectionsIndependent) {
  const auto conn1 = client_.connect(2, 80);
  const auto conn2 = client_.connect(2, 80);
  EXPECT_NE(conn1, conn2);
  client_.send(conn1, Bytes(100, 0xaa));
  client_.send(conn2, Bytes(200, 0xbb));
  loop_.run();
  EXPECT_EQ(server_received_.size(), 300u);
}

TEST_F(TcpTest, RtoBackoffAbandonsUnreachablePeer) {
  // Kill the forward direction entirely: no data ever arrives, no ACK ever
  // comes back. The RTO must back off exponentially and give up after
  // kMaxRtoRetries instead of retransmitting every 10 ms forever — with
  // an unbounded RTO the loop below would never drain.
  topology_->direct_link()->a2b().set_drop_predicate(
      [](const sim::Packet&) { return true; });
  const auto conn = client_.connect(2, 80);
  client_.send(conn, Bytes(2000, 0x7e));
  loop_.run();  // terminates only because retransmission is bounded
  EXPECT_TRUE(server_received_.empty());
  EXPECT_EQ(client_.stats().rto_abandoned, 1u);
  EXPECT_LE(client_.stats().rto_fires, 10u);  // TcpEndpoint::kMaxRtoRetries
  EXPECT_GT(client_.unacked_bytes(conn), 0u);  // wedged, not silently acked
}

TEST_F(TcpTest, OneRtoPendingPerConnection) {
  // Every RTO armed between two progress points has the same backed-off
  // delay, so the first one armed is the one that fires: back-to-back
  // sends keep one timer pending, and the abandonment is counted once.
  topology_->direct_link()->a2b().set_drop_predicate(
      [](const sim::Packet&) { return true; });
  const auto conn = client_.connect(2, 80);
  for (int i = 0; i < 3; ++i) client_.send(conn, Bytes(100, 0x5a));
  loop_.run_until(msec(5));
  EXPECT_EQ(loop_.pending(), 1u);  // the RTO due at 10 ms
  // Sends after the tenth and last fire (at 3190 ms) find the timer that
  // will abandon the connection pending.
  loop_.run_until(msec(3200));
  client_.send(conn, Bytes(100, 0x5b));
  client_.send(conn, Bytes(100, 0x5c));
  loop_.run();
  EXPECT_EQ(client_.stats().rto_fires, 10u);  // TcpEndpoint::kMaxRtoRetries
  EXPECT_EQ(client_.stats().rto_abandoned, 1u);
  // 10 ms, then doubling to the 640 ms cap: the eleventh timer, at
  // 3830 ms, abandons the connection and is the last event.
  EXPECT_EQ(loop_.now(), msec(3830));
}

TEST_F(TcpTest, AbandonedConnectionStaysAbandoned) {
  // After the abandoning fire, later sends still put their bytes on the
  // wire but arm no new RTO: no second round of retries, and the
  // abandonment is counted once per connection, not once per send.
  topology_->direct_link()->a2b().set_drop_predicate(
      [](const sim::Packet&) { return true; });
  const auto conn = client_.connect(2, 80);
  client_.send(conn, Bytes(100, 0x5a));
  loop_.run();
  EXPECT_EQ(client_.stats().rto_abandoned, 1u);
  EXPECT_EQ(loop_.now(), msec(3830));
  for (int round = 0; round < 3; ++round) {
    const SimTime start = loop_.now();
    client_.send(conn, Bytes(100, std::uint8_t(0x5b + round)));
    loop_.run();
    EXPECT_EQ(client_.stats().rto_abandoned, 1u) << "round " << round;
    EXPECT_EQ(client_.stats().rto_fires, 10u) << "round " << round;
    // Only the dropped transmission ran: far short of any RTO.
    EXPECT_LT(loop_.now(), start + usec(10)) << "round " << round;
  }
  EXPECT_GT(client_.unacked_bytes(conn), 0u);
}

TEST_F(TcpTest, PeriodicFlapDividingRtoStillTerminates) {
  // Regression: a link flap whose period divides the fixed 10 ms RTO
  // phase-locks every retransmission into the same down window (the sim
  // has no timer jitter to drift out of it). Before RTO backoff + the
  // retry cap this was a livelock — loop_.run() never returned.
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  sim::LinkConfig lc = link_config();
  lc.fault.flap_period = msec(2);
  lc.fault.flap_down = usec(200);
  auto topology = test::two_host_topology(engine, host_config(), lc);
  TcpEndpoint client(topology->host(0), 1000);
  TcpEndpoint server(topology->host(1), 80);
  Bytes received;
  server.set_on_data(
      [&](TcpEndpoint::ConnId, Bytes data) { append(received, data); });
  const auto conn = client.connect(2, 80);
  client.send(conn, Bytes(120000, 0x3c));
  loop.run();  // must terminate: delivery or bounded abandonment
  EXPECT_TRUE(received.size() == 120000u ||
              client.stats().rto_abandoned > 0u);
}

TEST_F(TcpTest, SmoothedRttPopulatedAfterCleanTransfer) {
  // The adaptive RTO estimator (on by default) must converge on a clean
  // transfer: a smoothed RTT exists, is at least the 2 us round-trip
  // propagation floor, and is far below the 10 ms initial RTO.
  EXPECT_FALSE(client_.smoothed_rtt(12345).has_value());  // unknown conn
  const auto conn = client_.connect(2, 80);
  EXPECT_FALSE(client_.smoothed_rtt(conn).has_value());  // no sample yet
  client_.send(conn, Bytes(50000, 0x42));
  loop_.run();
  const auto srtt = client_.smoothed_rtt(conn);
  ASSERT_TRUE(srtt.has_value());
  EXPECT_GE(*srtt, usec(2));
  EXPECT_LT(*srtt, msec(1));
  EXPECT_EQ(client_.stats().rto_fires, 0u);  // estimator never misfired
}

TEST_F(TcpTest, AckedTransferLeavesNoRtoTimersPending) {
  // Every ACK that advances snd_una cancels the RTO timers armed before
  // it, so nothing is pending once the last ACK is processed: run() ends
  // there, not when the stale RTOs would have come due.
  const auto conn = client_.connect(2, 80);
  client_.send(conn, Bytes(50000, 0x42));
  loop_.run();
  EXPECT_EQ(server_received_.size(), 50000u);
  EXPECT_EQ(client_.unacked_bytes(conn), 0u);
  EXPECT_LT(loop_.now(), TcpEndpoint::kMinRto);
  EXPECT_EQ(client_.stats().rto_fires, 0u);
}

/// One RTO-only loss (the LAST packet of a quiet window, so no dup-ACK
/// fast retransmit can save it) after a warmed-up estimator. Returns the
/// virtual time the last byte arrived: dominated by the RTO that
/// recovers the drop. (Not loop.now() — the loop drains stale
/// epoch-guarded RTO timers as no-ops, so its end time reflects the
/// longest ever-armed timer, not delivery.)
SimTime run_tail_drop_recovery() {
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  stack::HostConfig hc;
  hc.app_cores = 2;
  hc.softirq_cores = 2;
  sim::LinkConfig lc;
  lc.propagation = usec(1);
  auto topology = test::two_host_topology(engine, hc, lc);
  TcpEndpoint client(topology->host(0), 1000);
  TcpEndpoint server(topology->host(1), 80);
  Bytes received;
  SimTime last_byte_at = 0;
  server.set_on_data([&](TcpEndpoint::ConnId, Bytes data) {
    append(received, data);
    if (received.size() == 22000u) last_byte_at = loop.now();
  });
  const auto conn = client.connect(2, 80);
  client.send(conn, Bytes(20000, 0x11));  // warmup: collects RTT samples
  int dropped = 0;
  loop.schedule_at(usec(500), [&] {
    // Warmup has drained; the next (single) data packet dies once. With
    // nothing behind it there are no dup ACKs — only the RTO recovers.
    topology->direct_link()->a2b().set_drop_predicate(
        [&dropped](const sim::Packet& pkt) {
          if (pkt.hdr.type == sim::PacketType::data && dropped == 0) {
            ++dropped;
            return true;
          }
          return false;
        });
    client.send(conn, Bytes(2000, 0x22));
  });
  loop.run();
  EXPECT_EQ(received.size(), 22000u);
  EXPECT_EQ(dropped, 1);
  // Karn's rule: the retransmission must not have polluted the estimate
  // with a bogus RTO-length sample.
  const auto srtt = client.smoothed_rtt(conn);
  EXPECT_TRUE(srtt.has_value() && *srtt < usec(500));
  return last_byte_at;
}

TEST_F(TcpTest, AdaptiveRtoRecoversTailLossFasterThanInitialRto) {
  // With a warmed-up estimator the adaptive base is the 1 ms kMinRto
  // floor (datacenter srtt + 4*rttvar is far below it), not the 10 ms
  // initial RTO: the drop is recovered by that floor-clamped RTO.
  const SimTime recovered = run_tail_drop_recovery() - usec(500);
  EXPECT_GE(recovered, TcpEndpoint::kMinRto);  // only the RTO recovers it
  EXPECT_LT(recovered, TcpEndpoint::kInitialRto);
  EXPECT_LT(recovered, msec(4));  // ~1 ms RTO + recovery
}

TEST_F(TcpTest, AdaptiveRtoKeepsAbandonmentBounded) {
  // The retry cap rides on the adaptive base: a black-holed connection
  // still abandons after kMaxRtoRetries fires, it just gets there sooner
  // than from the initial RTO.
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  stack::HostConfig hc;
  hc.app_cores = 2;
  hc.softirq_cores = 2;
  sim::LinkConfig lc;
  lc.propagation = usec(1);
  auto topology = test::two_host_topology(engine, hc, lc);
  TcpEndpoint client(topology->host(0), 1000);  // adaptive on by default
  TcpEndpoint server(topology->host(1), 80);
  const auto conn = client.connect(2, 80);
  client.send(conn, Bytes(20000, 0x11));  // warmup with a live link
  loop.schedule_at(usec(500), [&] {
    topology->direct_link()->a2b().set_drop_predicate(
        [](const sim::Packet&) { return true; });  // then the link dies
    client.send(conn, Bytes(2000, 0x22));
  });
  loop.run();  // terminates: backoff + retry cap bound retransmission
  EXPECT_EQ(client.stats().rto_abandoned, 1u);
  EXPECT_LE(client.stats().rto_fires, 10u);
  EXPECT_GT(client.unacked_bytes(conn), 0u);
}

TEST_F(TcpTest, TlsOffloadRecordsEncryptedOnWire) {
  // kTLS-hw path: the endpoint posts a record descriptor; the NIC encrypts
  // in line; wire bytes differ from the plaintext and carry a valid tag.
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x31);
  keys.iv = Bytes(12, 0x32);
  const auto conn = client_.connect(2, 80);
  offload_client_tls(keys);

  // Build a plaintext record shell: header + body + tag space.
  const Bytes body = to_bytes(std::string_view("secret payload"));
  Bytes wire;
  append_u8(wire, 23);
  append_u16be(wire, 0x0303);
  append_u16be(wire, std::uint16_t(body.size() + 1 + 16));
  append(wire, body);
  append_u8(wire, 23);
  wire.resize(wire.size() + 16, 0);

  std::vector<TcpEndpoint::RecordMark> marks;
  marks.push_back({0, wire.size(), 0});
  client_.send(conn, wire, nullptr, std::move(marks));
  loop_.run();

  ASSERT_EQ(server_received_.size(), wire.size());
  // The delivered stream is ciphertext (differs from the posted plaintext)
  // and decrypts correctly under (keys, seq=0).
  EXPECT_NE(server_received_, wire);
  tls::RecordProtection rp(tls::CipherSuite::aes_128_gcm_sha256, keys);
  const auto opened = rp.open(0, server_received_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, body);
}

TEST_F(TcpTest, TlsOffloadRetransmitResyncs) {
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x41);
  keys.iv = Bytes(12, 0x42);
  const auto conn = client_.connect(2, 80);
  offload_client_tls(keys);

  // Drop the first data packet so the record is retransmitted; the driver
  // must resync the NIC context and the receiver still decrypts.
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });

  const Bytes body(1000, 0x55);
  Bytes wire;
  append_u8(wire, 23);
  append_u16be(wire, 0x0303);
  append_u16be(wire, std::uint16_t(body.size() + 1 + 16));
  append(wire, body);
  append_u8(wire, 23);
  wire.resize(wire.size() + 16, 0);
  std::vector<TcpEndpoint::RecordMark> marks;
  marks.push_back({0, wire.size(), 0});
  client_.send(conn, wire, nullptr, std::move(marks));
  loop_.run();

  ASSERT_EQ(server_received_.size(), wire.size());
  tls::RecordProtection rp(tls::CipherSuite::aes_128_gcm_sha256, keys);
  const auto opened = rp.open(0, server_received_);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value().payload, body);
  EXPECT_GT(client_host_.nic().counters().resyncs, 0u);
}

TEST_F(TcpTest, TlsOffloadRetransmitAfterMidRecordAck) {
  // Regression: one record spans three MTU packets. The first arrives and
  // is ACKed (a cumulative ACK inside the record); the other two are lost.
  // The RTO retransmits the whole record from its start, which lies before
  // snd_una, so the sender must still hold the acked head of the record.
  // It used to read those bytes from before its send buffer.
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x51);
  keys.iv = Bytes(12, 0x52);
  const auto conn = client_.connect(2, 80);
  offload_client_tls(keys);

  Bytes body(4000, 0);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = std::uint8_t(i * 7);
  Bytes wire;
  append_u8(wire, 23);
  append_u16be(wire, 0x0303);
  append_u16be(wire, std::uint16_t(body.size() + 1 + 16));
  append(wire, body);
  append_u8(wire, 23);
  wire.resize(wire.size() + 16, 0);
  const std::size_t mss = client_host_.nic().config().mtu_payload;
  const std::size_t first_packets = (wire.size() + mss - 1) / mss;
  ASSERT_EQ(first_packets, 3u);

  // Lose every packet of the first transmission but its first.
  std::size_t data_packets = 0;
  topology_->direct_link()->a2b().set_drop_predicate(
      [&](const sim::Packet& pkt) {
        if (pkt.hdr.type != sim::PacketType::data) return false;
        ++data_packets;
        return data_packets >= 2 && data_packets <= first_packets;
      });
  std::vector<TcpEndpoint::RecordMark> marks;
  marks.push_back({0, wire.size(), 0});
  client_.send(conn, wire, nullptr, std::move(marks));
  loop_.run();

  EXPECT_GT(client_.stats().retransmits, 0u);
  EXPECT_GT(data_packets, first_packets);  // the record went out again
  ASSERT_EQ(server_received_.size(), wire.size());
  tls::RecordProtection rp(tls::CipherSuite::aes_128_gcm_sha256, keys);
  const auto opened = rp.open(0, server_received_);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value().payload, body);
  EXPECT_EQ(client_.unacked_bytes(conn), 0u);
}

}  // namespace
}  // namespace smt::transport
