// PayloadSlice lifetime through the NIC datapath: slabs must stay alive
// (and unmutated through aliases) across every place the zero-copy
// refactor parks a view — TX descriptor queues with deferred context
// frees, TSO cuts in flight on the link, RX rings under hold-off, and the
// rebalancer-style flush_rx_ring path. Run under ASan/UBSan and TSan in
// CI, where a dangling slab or an alias-corrupting write dies loudly.
#include <gtest/gtest.h>

#include "netsim/nic.hpp"
#include "tls/record.hpp"

namespace smt::sim {
namespace {

tls::TrafficKeys test_keys() {
  tls::TrafficKeys keys;
  keys.key = Bytes(16, 0x42);
  keys.iv = Bytes(12, 0x24);
  return keys;
}

/// Builds a one-record plaintext shell (header | body+type | tag room).
Bytes record_shell(const Bytes& plaintext) {
  Bytes payload;
  const std::size_t inner_len = plaintext.size() + 1;
  payload.reserve(tls::kRecordHeaderSize + inner_len + 16);
  append_u8(payload, 23);
  append_u16be(payload, 0x0303);
  append_u16be(payload, std::uint16_t(inner_len + 16));
  append(payload, plaintext);
  append_u8(payload, 23);
  payload.resize(payload.size() + 16, 0);
  return payload;
}

TEST(ZeroCopyLifetime, SlabOutlivesDeferredContextFreeWhileInFlight) {
  // A TLS segment sits in the NIC queue pinning its flow context; the
  // driver releases the context (deferred free) and drops every slice it
  // held BEFORE the NIC drains. The descriptor's slice must keep the slab
  // alive, and the record must still encrypt correctly.
  EventLoop loop;
  Link link(loop, LinkConfig{});
  Nic nic(loop, NicConfig{});
  nic.attach_tx(&link.a2b());
  std::vector<Packet> received;
  link.a2b().set_receiver(
      [&](Packet pkt) { received.push_back(std::move(pkt)); });

  const auto keys = test_keys();
  const auto ctx =
      nic.create_flow_context(tls::CipherSuite::aes_128_gcm_sha256, keys, 7);
  ASSERT_TRUE(ctx.ok());

  const Bytes secret = to_bytes(std::string_view("slab lifetime secret"));
  {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::smt;
    d.segment.payload = record_shell(secret);
    d.records = InlineTls{7, ctx.value(), 1, 0};
    nic.post_segment(0, std::move(d));
  }  // the descriptor inside the NIC queue is now the slab's only owner

  nic.release_flow_context(ctx.value());  // deferred: descriptor in flight
  EXPECT_TRUE(nic.context_in_flight(ctx.value()));
  loop.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(nic.active_contexts(), 0u);  // deferred free resolved on drain
  tls::RecordProtection opener(tls::CipherSuite::aes_128_gcm_sha256,
                               test_keys());
  const auto opened = opener.open(7, received[0].payload);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, secret);
}

TEST(ZeroCopyLifetime, InlineCryptoNeverMutatesAliasedPlaintext) {
  // The transport keeps a plaintext slice of the posted segment (its
  // retransmission buffer). NIC inline encryption must copy-on-write into
  // a private slab — the retained alias has to stay plaintext.
  EventLoop loop;
  Link link(loop, LinkConfig{});
  Nic nic(loop, NicConfig{});
  nic.attach_tx(&link.a2b());
  std::vector<Packet> received;
  link.a2b().set_receiver(
      [&](Packet pkt) { received.push_back(std::move(pkt)); });

  const auto ctx = nic.create_flow_context(
      tls::CipherSuite::aes_128_gcm_sha256, test_keys(), 0);
  ASSERT_TRUE(ctx.ok());

  const Bytes secret = to_bytes(std::string_view("retransmit me"));
  SegmentDescriptor d;
  d.segment.hdr.flow.proto = Proto::smt;
  d.segment.payload = record_shell(secret);
  d.records = InlineTls{0, ctx.value(), 1, 0};

  const PayloadSlice retained = d.segment.payload;  // transport's alias
  const Bytes plaintext_wire = retained.to_bytes();
  nic.post_segment(0, std::move(d));
  loop.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(retained.to_bytes(), plaintext_wire)
      << "NIC encryption wrote through a shared slab";
  EXPECT_NE(received[0].payload.to_bytes(), plaintext_wire)
      << "wire bytes should be ciphertext";
  tls::RecordProtection opener(tls::CipherSuite::aes_128_gcm_sha256,
                               test_keys());
  EXPECT_TRUE(opener.open(0, received[0].payload).ok());
}

TEST(ZeroCopyLifetime, AliasedSlicesSurviveHoldOffAndFlush) {
  // TSO cuts of ONE slab land in an RX ring under a hold-off timer; the
  // producing descriptor is long gone, and delivery is forced early by
  // flush_rx_ring (the irqbalance rebalancer's migration path). Every
  // delivered frame must still read the slab's bytes.
  EventLoop loop;
  NicConfig rx_config;
  rx_config.rx_coalesce_frames = 64;   // unreachable threshold ...
  rx_config.rx_coalesce_usecs = 500.0; // ... so frames park in the ring
  Nic rx_nic(loop, rx_config);
  std::vector<Packet> delivered;
  rx_nic.set_rx_handler(
      [&](Packet pkt) { delivered.push_back(std::move(pkt)); });

  Link link(loop, LinkConfig{});
  Nic tx_nic(loop, NicConfig{});
  tx_nic.attach_tx(&link.a2b());
  link.a2b().set_receiver([&](Packet pkt) { rx_nic.receive(std::move(pkt)); });

  Bytes body(4000, 0);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = std::uint8_t(i * 7);
  }
  {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::homa;
    d.segment.hdr.msg_len = std::uint32_t(body.size());
    d.segment.payload = Bytes(body);  // slab owned by the datapath only
    tx_nic.post_segment(0, std::move(d));
  }

  // Run until the frames are parked (hold-off armed, nothing delivered).
  loop.run_until(usec(100));
  const std::size_t ring =
      [&] {  // the ring the flow hashes to
        FiveTuple flow;
        flow.proto = Proto::homa;
        return rx_nic.rx_queue_for(flow);
      }();
  ASSERT_GT(rx_nic.rx_pending(), 0u);
  ASSERT_TRUE(delivered.empty());

  // Rebalancer-style flush: frames deliver NOW, off the hold-off path.
  rx_nic.flush_rx_ring(ring);
  loop.run();

  ASSERT_EQ(delivered.size(), 3u);  // 4000 B at 1500 MTU
  Bytes reassembled;
  for (const Packet& pkt : delivered) append(reassembled, pkt.payload);
  EXPECT_EQ(reassembled, body);
  // Each packet is its own pin on the one shared slab.
  EXPECT_EQ(delivered[0].payload.slab_use_count(), 3);
}

}  // namespace
}  // namespace smt::sim
