// Batched RX datapath: interrupt coalescing (frame threshold vs hold-off
// timer), per-interrupt cost accounting/amortisation, per-flow FIFO
// ordering, and the never-inline delivery guarantee.
#include <gtest/gtest.h>

#include "netsim/nic.hpp"

namespace smt::sim {
namespace {

class NicRxBatchingTest : public ::testing::Test {
 protected:
  static NicConfig make_config() {
    NicConfig config;
    config.num_queues = 2;
    config.rx_burst = 4;
    config.rx_coalesce_frames = 4;
    config.rx_coalesce_usecs = 0.0;
    config.per_interrupt_cost = nsec(1200);
    return config;
  }

  explicit NicRxBatchingTest(NicConfig config = make_config())
      : nic_(loop_, config) {
    nic_.set_rx_handler([this](Packet pkt) {
      arrivals_.push_back({loop_.now(), std::move(pkt)});
    });
  }

  static Packet make_packet(std::uint64_t msg_id, std::uint16_t src_port = 9) {
    Packet pkt;
    pkt.hdr.flow.src_ip = 1;
    pkt.hdr.flow.dst_ip = 2;
    pkt.hdr.flow.src_port = src_port;
    pkt.hdr.flow.dst_port = 80;
    pkt.hdr.flow.proto = Proto::smt;
    pkt.hdr.msg_id = msg_id;
    return pkt;
  }

  struct Arrival {
    SimTime when;
    Packet pkt;
  };

  EventLoop loop_;
  Nic nic_;
  std::vector<Arrival> arrivals_;
};

TEST_F(NicRxBatchingTest, DeliveryIsNeverInline) {
  // The "Nic::deliver mid-drain" fix: receive() must ONLY enqueue; the
  // handler runs from a scheduled drain event, so RX order under
  // coalescing does not depend on when receive() was called.
  nic_.receive(make_packet(1));
  EXPECT_TRUE(arrivals_.empty());
  EXPECT_EQ(nic_.rx_pending(), 1u);
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 1u);
  EXPECT_EQ(arrivals_[0].pkt.hdr.msg_id, 1u);
}

TEST_F(NicRxBatchingTest, InterruptCostDelaysDelivery) {
  nic_.receive(make_packet(1));
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 1u);
  // Immediate-mode interrupt (rx_coalesce_usecs = 0): the only latency is
  // the per-interrupt fixed cost.
  EXPECT_EQ(arrivals_[0].when, nsec(1200));
}

TEST_F(NicRxBatchingTest, BurstAmortisesInterruptCost) {
  // 4 frames arriving back-to-back drain in ONE interrupt: the batch pays
  // per_interrupt_cost once instead of four times.
  for (std::uint64_t i = 0; i < 4; ++i) nic_.receive(make_packet(i));
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 4u);
  EXPECT_EQ(nic_.counters().rx_interrupts, 1u);
  EXPECT_EQ(nic_.counters().max_rx_batch, 4u);
  EXPECT_EQ(nic_.counters().rx_frames, 4u);
  EXPECT_EQ(nic_.counters().rx_delivered, 4u);
}

TEST_F(NicRxBatchingTest, BurstOfOneInterruptsPerFrame) {
  NicConfig config = make_config();
  config.rx_burst = 1;
  Nic serial(loop_, config);
  std::vector<SimTime> times;
  serial.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  for (std::uint64_t i = 0; i < 4; ++i) serial.receive(make_packet(i));
  loop_.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(serial.counters().rx_interrupts, 4u);
  EXPECT_EQ(serial.counters().max_rx_batch, 1u);
  // Back-to-back interrupts: each frame waits for its own interrupt cost.
  EXPECT_EQ(times.back(), 4 * nsec(1200));
}

TEST_F(NicRxBatchingTest, OverfullRingsDrainInMultipleInterrupts) {
  for (std::uint64_t i = 0; i < 10; ++i) nic_.receive(make_packet(i));
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 10u);
  // ceil(10 / 4) = 3 interrupts: 4 + 4 + 2.
  EXPECT_EQ(nic_.counters().rx_interrupts, 3u);
  EXPECT_EQ(nic_.counters().max_rx_batch, 4u);
}

TEST_F(NicRxBatchingTest, FrameThresholdFiresBeforeTimer) {
  NicConfig config = make_config();
  config.rx_coalesce_usecs = 50.0;  // long hold-off...
  config.rx_coalesce_frames = 3;    // ...preempted by the 3rd frame
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  nic.receive(make_packet(0));
  nic.receive(make_packet(1));
  nic.receive(make_packet(2));
  loop_.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(nic.counters().rx_interrupts, 1u);
  // Fired at the threshold (t = 0), not at the 50 us timer.
  EXPECT_EQ(times.back(), nsec(1200));
}

TEST_F(NicRxBatchingTest, SupersededHoldOffIsCancelled) {
  // Frame 0 arms a 50 us hold-off; the 3rd frame fires the interrupt at
  // t = 0 and cancels it, leaving only the drain pending. A frame at 30 us
  // arms a fresh hold-off and must wait the full 50 us: the superseded
  // timer (due at 50 us) must not interrupt for it early.
  NicConfig config = make_config();
  config.rx_coalesce_usecs = 50.0;
  config.rx_coalesce_frames = 3;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  for (std::uint64_t i = 0; i < 3; ++i) nic.receive(make_packet(i));
  EXPECT_EQ(loop_.pending(), 1u);
  loop_.schedule(usec(30), [&] { nic.receive(make_packet(3)); });
  loop_.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(nic.counters().rx_interrupts, 2u);
  EXPECT_EQ(times[2], nsec(1200));
  EXPECT_EQ(times[3], usec(30) + usec(50) + nsec(1200));
}

TEST_F(NicRxBatchingTest, HoldOffTimerFiresBelowThreshold) {
  NicConfig config = make_config();
  config.rx_coalesce_usecs = 10.0;
  config.rx_coalesce_frames = 8;  // never reached
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  nic.receive(make_packet(0));
  loop_.schedule(usec(2), [&] { nic.receive(make_packet(1)); });
  loop_.run();
  ASSERT_EQ(times.size(), 2u);
  // One interrupt for both frames, at hold-off expiry + interrupt cost.
  EXPECT_EQ(nic.counters().rx_interrupts, 1u);
  EXPECT_EQ(times[0], usec(10) + nsec(1200));
  EXPECT_EQ(times[1], times[0]);
}

TEST_F(NicRxBatchingTest, LeftoverFramesRepollWithoutFreshHoldOff) {
  // NAPI re-poll: frames beyond the burst already waited out a hold-off;
  // the follow-up interrupt fires immediately after the drain, not after
  // another rx_coalesce_usecs.
  NicConfig config = make_config();
  config.rx_coalesce_usecs = 50.0;
  config.rx_coalesce_frames = 4;
  config.rx_burst = 4;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  for (std::uint64_t i = 0; i < 5; ++i) nic.receive(make_packet(i));
  loop_.run();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_EQ(nic.counters().rx_interrupts, 2u);
  // Threshold fired at t=0; burst of 4 at 1200; leftover at 2400 — NOT at
  // 50 us + interrupt cost.
  EXPECT_EQ(times[3], nsec(1200));
  EXPECT_EQ(times[4], 2 * nsec(1200));
}

TEST_F(NicRxBatchingTest, SameFlowStaysFifoAcrossBatches) {
  for (std::uint64_t i = 0; i < 9; ++i) nic_.receive(make_packet(i));
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 9u);
  // All packets share the five-tuple, so they share a ring: strict FIFO.
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(arrivals_[i].pkt.hdr.msg_id, i);
  }
}

TEST_F(NicRxBatchingTest, DistinctFlowsHashToDistinctRings) {
  // Find two source ports that land on different rings, then verify each
  // flow's frames stay FIFO relative to ITS OWN ring under interleaving.
  std::uint16_t port_a = 100, port_b = 101;
  const auto ring_of = [this](std::uint16_t port) {
    return nic_.rx_queue_for(make_packet(0, port).hdr.flow);
  };
  while (ring_of(port_b) == ring_of(port_a)) ++port_b;

  nic_.receive(make_packet(0, port_a));
  nic_.receive(make_packet(1, port_b));
  nic_.receive(make_packet(2, port_a));
  nic_.receive(make_packet(3, port_b));
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 4u);
  std::vector<std::uint64_t> a_order, b_order;
  for (const auto& arrival : arrivals_) {
    (arrival.pkt.hdr.flow.src_port == port_a ? a_order : b_order)
        .push_back(arrival.pkt.hdr.msg_id);
  }
  EXPECT_EQ(a_order, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(b_order, (std::vector<std::uint64_t>{1, 3}));
}

TEST_F(NicRxBatchingTest, FramesArrivingDuringInterruptWindowJoinBatch) {
  nic_.receive(make_packet(0));
  // Arrives while the interrupt is in flight (before the drain at 1200 ns):
  // joins the batch, NAPI-style.
  loop_.schedule(nsec(600), [this] { nic_.receive(make_packet(1)); });
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 2u);
  EXPECT_EQ(nic_.counters().rx_interrupts, 1u);
  EXPECT_EQ(nic_.counters().max_rx_batch, 2u);
  EXPECT_EQ(arrivals_[0].when, arrivals_[1].when);
}

// Finds `count` source ports whose flows hash to `count` DISTINCT RX
// rings on `nic` (RSS), so tests can target rings individually.
std::vector<std::uint16_t> ports_on_distinct_rings(const Nic& nic,
                                                   std::size_t count) {
  std::vector<std::uint16_t> ports;
  std::vector<bool> used(nic.config().num_queues, false);
  for (std::uint16_t port = 100; ports.size() < count; ++port) {
    Packet probe;
    probe.hdr.flow.src_ip = 1;
    probe.hdr.flow.dst_ip = 2;
    probe.hdr.flow.src_port = port;
    probe.hdr.flow.dst_port = 80;
    probe.hdr.flow.proto = Proto::smt;
    const std::size_t ring = nic.rx_queue_for(probe.hdr.flow);
    if (used[ring]) continue;
    used[ring] = true;
    ports.push_back(port);
  }
  return ports;
}

TEST_F(NicRxBatchingTest, CoalesceThresholdIsPerRingNotGlobal) {
  // Regression for the global-threshold bug: maybe_fire_rx_interrupt used
  // to compare the HOST-GLOBAL pending count against rx_coalesce_frames,
  // so 4 rings receiving 8 frames each fired on the 16th global frame —
  // none of the rings had reached the configured per-ring threshold. The
  // ethtool rx-frames contract is per ring: with 8 < 16 pending each,
  // every ring must wait for its hold-off timer instead.
  NicConfig config;
  config.num_queues = 4;
  config.rx_burst = 16;
  config.rx_coalesce_frames = 16;
  config.rx_coalesce_usecs = 50.0;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });

  const auto ports = ports_on_distinct_rings(nic, 4);
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (const std::uint16_t port : ports) {
      nic.receive(make_packet(i, port));
    }
  }
  // 32 frames pending host-wide, 8 per ring: the buggy global comparison
  // would have fired two interrupts by now. Per-ring, nothing fires until
  // the hold-off expires.
  loop_.run_until(usec(49));
  EXPECT_EQ(times.size(), 0u);
  EXPECT_EQ(nic.counters().rx_interrupts, 0u);

  loop_.run();
  EXPECT_EQ(times.size(), 32u);
  // One timer-driven interrupt per ring — the rate scales with active
  // rings under the per-ring contract.
  EXPECT_EQ(nic.counters().rx_interrupts, 4u);
  for (std::size_t ring = 0; ring < 4; ++ring) {
    const RxRingStats stats = nic.rx_ring_stats(ring);
    EXPECT_EQ(stats.interrupts, 1u) << "ring " << ring;
    EXPECT_EQ(stats.frames, 8u) << "ring " << ring;
    EXPECT_EQ(stats.delivered, 8u) << "ring " << ring;
  }
}

TEST_F(NicRxBatchingTest, RingReachingItsOwnThresholdFiresImmediately) {
  // The flip side of the per-ring contract: 16 frames into ONE ring fire
  // that ring's interrupt at the threshold, not at the timer — and the
  // other rings stay silent.
  NicConfig config;
  config.num_queues = 4;
  config.rx_burst = 16;
  config.rx_coalesce_frames = 16;
  config.rx_coalesce_usecs = 50.0;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });

  const auto ports = ports_on_distinct_rings(nic, 2);
  for (std::uint64_t i = 0; i < 16; ++i) nic.receive(make_packet(i, ports[0]));
  nic.receive(make_packet(99, ports[1]));  // 1 frame: waits for its timer

  loop_.run_until(usec(10));
  EXPECT_EQ(times.size(), 16u);  // threshold ring drained at t=0+cost
  EXPECT_EQ(nic.counters().rx_interrupts, 1u);
  loop_.run();
  EXPECT_EQ(times.size(), 17u);  // timer ring followed at 50 us
  EXPECT_EQ(nic.counters().rx_interrupts, 2u);
}

TEST_F(NicRxBatchingTest, BoundedRingTailDropsOnOverflow) {
  NicConfig config = make_config();
  config.rx_coalesce_usecs = 0.0;  // fire immediately; drain at 1200 ns
  config.rx_ring_size = 2;
  Nic nic(loop_, config);
  std::size_t delivered = 0;
  nic.set_rx_handler([&](Packet) { ++delivered; });
  // All four arrive before the drain at 1200 ns: the ring holds 2, the
  // rest tail-drop like a real descriptor ring under overflow.
  for (std::uint64_t i = 0; i < 4; ++i) nic.receive(make_packet(i));
  loop_.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(nic.counters().rx_frames, 2u);
  EXPECT_EQ(nic.counters().rx_dropped, 2u);
  const std::size_t ring = nic.rx_queue_for(make_packet(0).hdr.flow);
  EXPECT_EQ(nic.rx_ring_stats(ring).dropped, 2u);
}

TEST_F(NicRxBatchingTest, FullBoundedRingFiresBeforeHoldOffExpires) {
  // Ring pressure beats the hold-off: a bounded ring whose coalesce
  // threshold exceeds its capacity would otherwise NEVER trip the frame
  // threshold and would tail-drop through the entire hold-off window.
  NicConfig config = make_config();
  config.rx_ring_size = 2;
  config.rx_coalesce_frames = 16;  // unreachable: > rx_ring_size
  config.rx_coalesce_usecs = 50.0;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });
  nic.receive(make_packet(0));
  nic.receive(make_packet(1));  // ring full -> interrupt fires NOW
  loop_.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times.back(), nsec(1200));  // interrupt cost only, not 50 us
  EXPECT_EQ(nic.counters().rx_dropped, 0u);
}

TEST_F(NicRxBatchingTest, AdaptiveModerationNarrowsUnderLatencyProbes) {
  // DIM: sparse single-frame interrupts are a latency probe — the ring
  // walks its hold-off down to fire-immediately.
  NicConfig config;
  config.num_queues = 2;
  config.rx_burst = 16;
  config.rx_coalesce_frames = 16;  // seeds the ladder at {16 frames, 16 us}
  config.rx_coalesce_usecs = 16.0;
  config.adaptive_rx_coalesce = true;
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });

  const std::size_t ring = nic.rx_queue_for(make_packet(0).hdr.flow);
  EXPECT_GT(nic.rx_ring_stats(ring).coalesce_usecs, 0.0);

  std::vector<SimTime> sent_at;
  for (int i = 0; i < 16; ++i) {
    loop_.schedule(usec(100) * SimDuration(i), [&nic, &sent_at, this] {
      sent_at.push_back(loop_.now());
      nic.receive(make_packet(std::uint64_t(sent_at.size())));
    });
  }
  loop_.run();
  ASSERT_EQ(times.size(), 16u);

  const RxRingStats stats = nic.rx_ring_stats(ring);
  EXPECT_EQ(stats.coalesce_frames, 1u);
  EXPECT_EQ(stats.coalesce_usecs, 0.0);
  // Early probes paid the 16 us hold-off; once narrowed, an interrupt
  // fires on arrival and the probe only pays the interrupt cost.
  EXPECT_EQ(times.front() - sent_at.front(), usec(16) + nsec(1200));
  EXPECT_EQ(times.back() - sent_at.back(), nsec(1200));
}

TEST_F(NicRxBatchingTest, AdaptiveModerationWidensUnderFlood) {
  // DIM: sustained budget-exhausted batches are a flood — the ring widens
  // its hold-off to amortise more frames per interrupt.
  NicConfig config;
  config.num_queues = 2;
  config.rx_burst = 16;
  config.rx_coalesce_frames = 1;  // seeds the ladder at fire-immediately
  config.rx_coalesce_usecs = 0.0;
  config.adaptive_rx_coalesce = true;
  Nic nic(loop_, config);
  std::size_t delivered = 0;
  nic.set_rx_handler([&](Packet) { ++delivered; });

  const std::size_t ring = nic.rx_queue_for(make_packet(0).hdr.flow);
  EXPECT_EQ(nic.rx_ring_stats(ring).coalesce_frames, 1u);

  for (std::uint64_t i = 0; i < 128; ++i) nic.receive(make_packet(i));
  loop_.run();
  EXPECT_EQ(delivered, 128u);

  const RxRingStats stats = nic.rx_ring_stats(ring);
  EXPECT_GE(stats.coalesce_frames, 4u);
  EXPECT_GT(stats.coalesce_usecs, 0.0);
  // 8 budget-exhausted drains of 16; far fewer interrupts than frames.
  EXPECT_LE(nic.counters().rx_interrupts, 9u);
}

TEST_F(NicRxBatchingTest, FramesAfterDrainWaitForNextInterrupt) {
  nic_.receive(make_packet(0));
  // Arrives after the drain completed (at 1200 ns): a second interrupt.
  loop_.schedule(nsec(1300), [this] { nic_.receive(make_packet(1)); });
  loop_.run();
  ASSERT_EQ(arrivals_.size(), 2u);
  EXPECT_EQ(nic_.counters().rx_interrupts, 2u);
  EXPECT_GT(arrivals_[1].when, arrivals_[0].when);
}

}  // namespace
}  // namespace smt::sim
