// Batched TX datapath: doorbell coalescing cost accounting, batch-order
// preservation, and resync-before-segment ordering within a queue.
#include <gtest/gtest.h>

#include "netsim/nic.hpp"
#include "tls/record.hpp"

namespace smt::sim {
namespace {

class NicBatchingTest : public ::testing::Test {
 protected:
  explicit NicBatchingTest(NicConfig config = make_config())
      : link_(loop_, LinkConfig{}), nic_(loop_, config) {
    nic_.attach_tx(&link_.a2b());
    link_.a2b().set_receiver([this](Packet pkt) {
      received_.push_back({loop_.now(), std::move(pkt)});
    });
  }

  static NicConfig make_config() {
    NicConfig config;
    config.tx_burst = 4;
    return config;
  }

  SegmentDescriptor make_segment(std::uint64_t msg_id, std::size_t size = 100) {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::smt;
    d.segment.hdr.msg_id = msg_id;
    d.segment.hdr.msg_len = std::uint32_t(size);
    d.segment.payload.assign(size, 0x5a);
    return d;
  }

  struct Arrival {
    SimTime when;
    Packet pkt;
  };

  EventLoop loop_;
  Link link_;
  Nic nic_;
  std::vector<Arrival> received_;
};

TEST_F(NicBatchingTest, SingleDescriptorPaysDoorbellPlusDescriptor) {
  nic_.post_segment(0, make_segment(1));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  // Link costs are charged after NIC processing; the NIC hands the packet
  // to the link exactly at doorbell + one descriptor.
  EXPECT_EQ(nic_.counters().doorbells, 1u);
  EXPECT_EQ(nic_.counters().max_burst_drained, 1u);
}

TEST_F(NicBatchingTest, BatchAmortisesDoorbellCost) {
  // 4 descriptors posted back-to-back drain in ONE doorbell event: the
  // NIC spends 350 + 4*80 ns instead of 4*(350 + 80) ns.
  for (std::uint64_t i = 0; i < 4; ++i) nic_.post_segment(0, make_segment(i));
  loop_.run();
  ASSERT_EQ(received_.size(), 4u);
  EXPECT_EQ(nic_.counters().doorbells, 1u);
  EXPECT_EQ(nic_.counters().max_burst_drained, 4u);
  const SimDuration batched = received_.back().when;

  // Same workload through a tx_burst = 1 NIC on a fresh link: 4 doorbells,
  // so completing the drain takes ~3 extra doorbell costs longer (the link
  // serialisation/propagation terms are identical in both runs).
  Link link2(loop_, LinkConfig{});
  NicConfig config = make_config();
  config.tx_burst = 1;
  Nic serial(loop_, config);
  serial.attach_tx(&link2.a2b());
  std::vector<SimTime> arrivals;
  link2.a2b().set_receiver([&](Packet) { arrivals.push_back(loop_.now()); });
  const SimTime start = loop_.now();
  for (std::uint64_t i = 0; i < 4; ++i) serial.post_segment(0, make_segment(i));
  loop_.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(serial.counters().doorbells, 4u);
  const SimDuration unbatched = arrivals.back() - start;
  EXPECT_GT(unbatched, batched + 2 * nsec(350));
}

TEST_F(NicBatchingTest, OverfullRingDrainsInMultipleBursts) {
  for (std::uint64_t i = 0; i < 10; ++i) nic_.post_segment(0, make_segment(i));
  loop_.run();
  ASSERT_EQ(received_.size(), 10u);
  // ceil(10 / 4) = 3 doorbells: 4 + 4 + 2.
  EXPECT_EQ(nic_.counters().doorbells, 3u);
  EXPECT_EQ(nic_.counters().max_burst_drained, 4u);
}

TEST_F(NicBatchingTest, BurstOfOneMatchesUnbatchedCosts) {
  NicConfig config = make_config();
  config.tx_burst = 1;
  Nic serial(loop_, config);
  serial.attach_tx(&link_.a2b());
  for (std::uint64_t i = 0; i < 3; ++i) serial.post_segment(0, make_segment(i));
  loop_.run();
  EXPECT_EQ(serial.counters().doorbells, 3u);
  EXPECT_EQ(serial.counters().max_burst_drained, 1u);
}

TEST_F(NicBatchingTest, BatchPreservesQueueFifoOrder) {
  for (std::uint64_t i = 0; i < 8; ++i) nic_.post_segment(0, make_segment(i));
  loop_.run();
  ASSERT_EQ(received_.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(received_[i].pkt.hdr.msg_id, i);
  }
}

TEST_F(NicBatchingTest, BatchRoundRobinsAcrossQueues) {
  // Queue 0 holds msgs {0, 2}, queue 1 holds {1, 3}: the drain interleaves
  // them per descriptor, exactly like the unbatched round-robin scan.
  nic_.post_segment(0, make_segment(0));
  nic_.post_segment(1, make_segment(1));
  nic_.post_segment(0, make_segment(2));
  nic_.post_segment(1, make_segment(3));
  loop_.run();
  ASSERT_EQ(received_.size(), 4u);
  EXPECT_EQ(received_[0].pkt.hdr.msg_id, 0u);
  EXPECT_EQ(received_[1].pkt.hdr.msg_id, 1u);
  EXPECT_EQ(received_[2].pkt.hdr.msg_id, 2u);
  EXPECT_EQ(received_[3].pkt.hdr.msg_id, 3u);
}

TEST_F(NicBatchingTest, PostInsideDoorbellWindowJoinsTheBatch) {
  nic_.post_segment(0, make_segment(0));
  // Posted before the doorbell fires (350 ns): coalesces, xmit_more-style.
  loop_.schedule(nsec(100), [this] { nic_.post_segment(0, make_segment(1)); });
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(nic_.counters().doorbells, 1u);
  EXPECT_EQ(nic_.counters().max_burst_drained, 2u);
}

TEST_F(NicBatchingTest, PostAfterDrainBeganWaitsForNextDoorbell) {
  nic_.post_segment(0, make_segment(0));
  // Posted after the doorbell fired (at 350 ns) while the batch is being
  // processed: must not join it.
  loop_.schedule(nsec(400), [this] { nic_.post_segment(0, make_segment(1)); });
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(nic_.counters().doorbells, 2u);
  EXPECT_EQ(nic_.counters().max_burst_drained, 1u);
  EXPECT_GT(received_[1].when, received_[0].when);
}

class NicBatchingCryptoTest : public NicBatchingTest {
 protected:
  NicBatchingCryptoTest() {
    keys_.key = Bytes(16, 0x11);
    keys_.iv = Bytes(12, 0x22);
    opener_ = std::make_unique<tls::RecordProtection>(
        tls::CipherSuite::aes_128_gcm_sha256, keys_);
  }

  std::uint32_t make_context(std::uint64_t initial_seq) {
    const auto ctx = nic_.create_flow_context(
        tls::CipherSuite::aes_128_gcm_sha256, keys_, initial_seq);
    EXPECT_TRUE(ctx.ok());
    return ctx.value();
  }

  SegmentDescriptor make_record_segment(std::uint32_t ctx, std::uint64_t seq,
                                        const Bytes& plaintext) {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::smt;
    d.segment.hdr.msg_id = seq;
    const std::size_t inner_len = plaintext.size() + 1;
    Bytes payload;
    append_u8(payload, 23);
    append_u16be(payload, 0x0303);
    append_u16be(payload, std::uint16_t(inner_len + 16));
    append(payload, plaintext);
    append_u8(payload, 23);
    payload.resize(payload.size() + 16, 0);
    d.segment.payload = std::move(payload);

    TlsRecordDesc rec;
    rec.context_id = ctx;
    rec.record_offset = 0;
    rec.plaintext_len = inner_len;
    rec.record_seq = seq;
    d.records.push_back(rec);
    return d;
  }

  tls::TrafficKeys keys_;
  std::unique_ptr<tls::RecordProtection> opener_;
};

TEST_F(NicBatchingCryptoTest, ResyncBeforeSegmentOrderingWithinBatch) {
  // Resync + out-of-order segment posted to ONE queue inside one batch:
  // the resync must be consumed first, so the segment encrypts correctly.
  const std::uint32_t ctx = make_context(1);
  nic_.post_resync(0, ctx, 7);
  nic_.post_segment(0, make_record_segment(ctx, 7, Bytes(32, 0xab)));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(nic_.counters().doorbells, 1u);  // one batch consumed both
  EXPECT_EQ(nic_.counters().resyncs, 1u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
  EXPECT_TRUE(opener_->open(7, received_[0].pkt.payload).ok());
}

TEST_F(NicBatchingCryptoTest, InterleavedResyncSegmentPairsInOneBatch) {
  // Two reuse cycles of one context queued together: R(5) S5 R(9) S9.
  const std::uint32_t ctx = make_context(0);
  nic_.post_resync(0, ctx, 5);
  nic_.post_segment(0, make_record_segment(ctx, 5, Bytes(16, 0x01)));
  nic_.post_resync(0, ctx, 9);
  nic_.post_segment(0, make_record_segment(ctx, 9, Bytes(16, 0x02)));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
  EXPECT_TRUE(opener_->open(5, received_[0].pkt.payload).ok());
  EXPECT_TRUE(opener_->open(9, received_[1].pkt.payload).ok());
}

TEST_F(NicBatchingCryptoTest, DeferredReleaseKeepsInFlightContextAlive) {
  // Releasing a context with queued descriptors must not corrupt them: the
  // NIC defers the free until the ring drains.
  const std::uint32_t ctx = make_context(3);
  nic_.post_segment(0, make_record_segment(ctx, 3, Bytes(16, 0x07)));
  EXPECT_TRUE(nic_.context_in_flight(ctx));
  nic_.release_flow_context(ctx);
  EXPECT_TRUE(nic_.context_seq(ctx).has_value());  // still present
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_TRUE(opener_->open(3, received_[0].pkt.payload).ok());
  EXPECT_EQ(nic_.counters().context_misses, 0u);
  EXPECT_FALSE(nic_.context_seq(ctx).has_value());  // freed after drain
  EXPECT_EQ(nic_.active_contexts(), 0u);
}

TEST_F(NicBatchingCryptoTest, MissingContextCountsAMissNotACrash) {
  SegmentDescriptor d = make_record_segment(777 /* never allocated */, 0,
                                            Bytes(16, 0x0a));
  nic_.post_segment(0, std::move(d));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(nic_.counters().context_misses, 1u);
  EXPECT_EQ(nic_.counters().records_encrypted, 0u);
  // The shell went out unencrypted: it must NOT authenticate.
  EXPECT_FALSE(opener_->open(0, received_[0].pkt.payload).ok());
}

}  // namespace
}  // namespace smt::sim
