// Allocation budget of the per-packet datapath. This executable replaces
// the global operator new with a counting one, so each case can assert
// that a packet hop makes no heap allocation once its queues, pools and
// free lists have warmed up. A failure here means a per-hop closure
// outgrew EventCallback's inline store (see the static_assert in
// netsim/packet.hpp) or a packet FIFO stopped recycling its nodes.
#include <gtest/gtest.h>

#include "../common/alloc_counter.hpp"
#include "../common/topology_helpers.hpp"
#include "netsim/link.hpp"
#include "netsim/nic.hpp"
#include "netsim/shard.hpp"
#include "netsim/switch.hpp"
#include "tls/record.hpp"
#include "transport/homa/homa.hpp"

namespace smt::sim {
namespace {

using test::allocations;
using test::allocations_in;

/// `count` packets to `dst_ip`, payloads built up front so the measured
/// region sees only the hops.
std::vector<Packet> make_packets(std::size_t count, std::uint32_t dst_ip) {
  std::vector<Packet> packets(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets[i].hdr.flow = FiveTuple{1, dst_ip, 1000, 80, Proto::homa};
    packets[i].hdr.msg_id = i;
    packets[i].payload.assign(1000, std::uint8_t(i));
  }
  return packets;
}

constexpr std::size_t kBurst = 48;

TEST(DatapathAllocTest, LinkSendToDeliverAllocatesNothing) {
  EventLoop loop;
  LinkDirection link(loop, LinkConfig{});
  std::size_t delivered = 0;
  link.set_receiver([&delivered](Packet) { ++delivered; });
  auto burst = [&] {
    std::vector<Packet> packets = make_packets(kBurst, 2);
    return allocations_in([&] {
      for (Packet& pkt : packets) link.send(std::move(pkt));
      loop.run();
    });
  };
  burst();  // warm-up: the event pool and heap grow to a burst's depth
  EXPECT_EQ(burst(), 0u);
  EXPECT_EQ(delivered, 2 * kBurst);
}

TEST(DatapathAllocTest, LanePushAndPopAllocatesNothing) {
  // Lane events live in the event pool and link through it: once the
  // pool has grown to a burst's depth, pushing onto a lane, cancelling
  // its front and middle, and running it make no allocation.
  EventLoop loop;
  const LaneId lane = loop.new_lane();
  std::size_t ran = 0;
  std::vector<TimerId> ids;
  ids.reserve(2);
  auto burst = [&] {
    ids.clear();
    return allocations_in([&] {
      for (std::size_t i = 0; i < kBurst; ++i) {
        const TimerId id = loop.schedule(lane, SimDuration(i), [&ran] {
          ++ran;
        });
        if (i == 0 || i == kBurst / 2) ids.push_back(id);
      }
      for (const TimerId id : ids) loop.cancel(id);
      loop.run();
    });
  };
  burst();  // warm-up: the pool and heap grow to a burst's depth
  EXPECT_EQ(burst(), 0u);
  EXPECT_EQ(ran, 2 * (kBurst - 2));
}

TEST(DatapathAllocTest, SwitchEnqueueDrainDeliverAllocatesNothing) {
  // A burst queues behind the egress port (the FIFO spans several deque
  // nodes), and each drain schedules the forwarding closure carrying the
  // packet. One port delivers inline, the other through a cable run.
  EventLoop loop;
  Switch sw(loop, SwitchConfig{});
  std::size_t delivered = 0;
  const std::size_t inline_port =
      sw.add_port([&delivered](Packet) { ++delivered; });
  const std::size_t cable_port =
      sw.add_port([&delivered](Packet) { ++delivered; });
  sw.set_port_latency(cable_port, nsec(500));
  sw.set_route(2, inline_port);
  sw.set_route(3, cable_port);
  auto burst = [&] {
    std::vector<Packet> to_inline = make_packets(kBurst, 2);
    std::vector<Packet> to_cable = make_packets(kBurst, 3);
    return allocations_in([&] {
      for (std::size_t i = 0; i < kBurst; ++i) {
        sw.receive(std::move(to_inline[i]));
        sw.receive(std::move(to_cable[i]));
      }
      loop.run();
    });
  };
  burst();
  EXPECT_EQ(burst(), 0u);
  EXPECT_EQ(delivered, 4 * kBurst);
  EXPECT_EQ(sw.stats().dropped + sw.stats().trimmed, 0u);
}

TEST(DatapathAllocTest, NicReceiveInterruptDeliverAllocatesNothing) {
  // Frames land in the RX ring and a coalesced interrupt drains them.
  EventLoop loop;
  NicConfig config;
  config.rx_coalesce_frames = 8;
  config.rx_coalesce_usecs = 2.0;
  Nic nic(loop, config);
  std::size_t delivered = 0;
  nic.set_rx_handler([&delivered](Packet) { ++delivered; });
  auto burst = [&] {
    std::vector<Packet> packets = make_packets(kBurst, 2);
    return allocations_in([&] {
      for (Packet& pkt : packets) nic.receive(std::move(pkt));
      loop.run();
    });
  };
  burst();
  EXPECT_EQ(burst(), 0u);
  EXPECT_EQ(delivered, 2 * kBurst);
}

TEST(DatapathAllocTest, CrossShardPostAllocatesNothing) {
  // Packets bounce between two shards over a pair of cross-shard link
  // directions: every hop is a mailbox post drained between windows.
  // Allocations are counted from round kWarmup to the end, which spans
  // many windows and leaves out the worker threads' start-up.
  constexpr SimDuration kLatency = usec(1);
  constexpr std::size_t kInFlight = 4;
  constexpr std::size_t kRounds = 64;
  constexpr std::size_t kWarmup = 16;
  ShardedEngine engine(2, kLatency);
  LinkConfig link_config;
  link_config.propagation = kLatency;
  LinkDirection there(engine.loop(0), link_config, 0);
  LinkDirection back(engine.loop(1), link_config, 1);
  there.set_remote_scheduler(engine.remote_scheduler(0, 1));
  back.set_remote_scheduler(engine.remote_scheduler(1, 0));
  // A link direction's receiver runs on the far shard: `there` delivers
  // on shard 1, which bounces the packet back; `back` delivers on shard 0.
  there.set_receiver([&back](Packet pkt) { back.send(std::move(pkt)); });
  std::size_t returns = 0;
  std::size_t at_warmup = 0;
  std::size_t at_end = 0;
  back.set_receiver([&](Packet pkt) {
    ++returns;
    if (returns == kWarmup * kInFlight) at_warmup = allocations();
    if (returns == kRounds * kInFlight) at_end = allocations();
    // hdr.seq counts the packet's round trips.
    if (++pkt.hdr.seq < kRounds) there.send(std::move(pkt));
  });
  std::vector<Packet> packets = make_packets(kInFlight, 2);
  for (Packet& pkt : packets) there.send(std::move(pkt));
  engine.run();
  EXPECT_EQ(returns, kRounds * kInFlight);
  ASSERT_GT(at_end, 0u);
  EXPECT_EQ(at_end - at_warmup, 0u);
  EXPECT_EQ(engine.stats().cross_posts, 2 * kRounds * kInFlight);
  EXPECT_GE(engine.stats().windows, kRounds);
}

TEST(DatapathAllocTest, HomaInOrderMessageAllocatesPerMessageNotPerPacket) {
  // Hand-built in-order data packets of one message, injected at the
  // receiving NIC: the message costs a fixed number of allocations (its
  // receive state, reassembly buffer, one interval node, the ACK) however
  // many packets it has.
  ShardedEngine engine(1);
  EventLoop& loop = engine.loop(0);
  std::unique_ptr<stack::Topology> topology = test::two_host_topology(engine);
  stack::Host& server_host = topology->host(1);
  transport::HomaEndpoint server(server_host, 80);
  std::size_t completed = 0;
  server.set_on_message(
      [&completed](transport::HomaEndpoint::MessageMeta, Bytes) {
        ++completed;
      });
  const std::size_t mtu = server_host.nic().config().mtu_payload;
  std::uint64_t next_id = 1;
  auto message = [&](std::size_t packets) {
    const std::uint64_t msg_id = next_id++;
    const PayloadSlice body(Bytes(packets * mtu, std::uint8_t(msg_id)));
    std::vector<Packet> frames(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      PacketHeader& hdr = frames[i].hdr;
      hdr.flow = FiveTuple{1, 2, 1000, 80, Proto::homa};
      hdr.msg_id = msg_id;
      hdr.msg_len = std::uint32_t(packets * mtu);
      hdr.ipid_base = 7;
      hdr.ip_id = std::uint16_t(7 + i);
      frames[i].payload = body.subslice(i * mtu, mtu);
    }
    return allocations_in([&] {
      for (Packet& frame : frames) server_host.nic().receive(std::move(frame));
      loop.run();
    });
  };
  message(8);  // warm-up
  message(32);
  const std::size_t short_message = message(8);
  const std::size_t long_message = message(32);
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(long_message, short_message);
  EXPECT_LT(short_message, 32u);
}

TEST(DatapathAllocTest, HomaRecordSegmentRepostAllocatesOnlyThePostClosure) {
  // A RESEND makes the sender repost a segment that carries a record run
  // whole, for the NIC to encrypt again. The descriptor holds the run in a
  // fixed-size field, so the repost's one allocation is the boxed post
  // closure the softirq core runs. The run is unbound (no pre-post hook),
  // so the NIC sends the shell as it is, without a private copy.
  ShardedEngine engine(1);
  EventLoop& loop = engine.loop(0);
  std::unique_ptr<stack::Topology> topology = test::two_host_topology(engine);
  stack::Host& client_host = topology->host(0);
  // No endpoint listens on the server, so nothing acks the message.
  transport::HomaEndpoint client(client_host, 1000);
  Bytes shell;
  tls::append_record_shell(shell, tls::ContentType::application_data,
                           Bytes(64, 0x5a), 0);
  const std::size_t size = shell.size();
  std::vector<transport::SegmentSpec> segments(1);
  segments[0].payload = PayloadSlice(std::move(shell));
  segments[0].records = InlineTls{0, 0, 1, 0};
  const auto id = client.send_segments(transport::PeerAddr{2, 80},
                                       std::move(segments), size,
                                       std::nullopt);
  ASSERT_TRUE(id.ok());
  loop.run_until(loop.now() + usec(50));

  Packet resend;
  resend.hdr.flow = FiveTuple{2, 1, 80, 1000, Proto::homa};
  resend.hdr.type = PacketType::resend;
  resend.hdr.msg_id = id.value();
  resend.hdr.resend_off = 1;  // from offset 0
  resend.hdr.grant_off = std::uint32_t(size);
  auto repost = [&] {
    return allocations_in([&] {
      client_host.nic().receive(resend);
      loop.run_until(loop.now() + usec(50));
    });
  };
  // Warm-up: the NIC queue's recycled deque nodes come to cover a repost.
  for (int i = 0; i < 4; ++i) repost();
  EXPECT_EQ(repost(), 1u);
  EXPECT_EQ(client.stats().packets_retransmitted, 5u);
  EXPECT_EQ(client_host.nic().counters().segments, 6u);
  EXPECT_EQ(client_host.nic().counters().context_misses, 6u);
}

}  // namespace
}  // namespace smt::sim
