// irqbalance-style periodic re-affinity: hot-ring migration to the idlest
// core, delivery of pending/held-off frames on the OLD core across a
// migration (no lost or duplicated interrupts), hysteresis under balanced
// load, and the single-flow indirection spread.
#include <gtest/gtest.h>

#include <set>

#include "stack/host.hpp"

namespace smt::stack {
namespace {

HostConfig make_config(std::size_t softirq_cores) {
  HostConfig config;
  config.ip = 1;
  config.app_cores = 2;
  config.softirq_cores = softirq_cores;
  return config;
}

sim::Packet make_packet(std::uint64_t msg_id, std::uint16_t src_port = 1234) {
  sim::Packet pkt;
  pkt.hdr.flow.src_ip = 9;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.flow.src_port = src_port;
  pkt.hdr.flow.dst_port = 7;
  pkt.hdr.flow.proto = sim::Proto::smt;
  pkt.hdr.msg_id = msg_id;
  return pkt;
}

using sim::Nic;

constexpr SimDuration kPeriod = usec(50);

TEST(IrqRebalance, MovesHotRingAffinityToIdlestCoreWithinOnePeriod) {
  sim::EventLoop loop;
  Host host(loop, make_config(3));
  std::vector<std::pair<SimTime, std::uint64_t>> delivered;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet pkt) {
    delivered.emplace_back(loop.now(), pkt.hdr.msg_id);
  });

  const sim::FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t ring = host.nic().rx_queue_for(flow);
  const std::size_t hot = host.irq_affinity(ring);
  const std::size_t busy = (hot + 1) % 3;  // some IRQ load, but not idlest
  const std::size_t idlest = 3 - hot - busy;

  host.enable_irq_rebalance(kPeriod);
  // `busy` carries real (but smaller) IRQ load in the same window, so the
  // rebalancer must pick `idlest`, not just "any other core".
  host.softirq_core(busy).charge_irq(usec(30));
  // Flood the ring: one frame every 1.5 us fires one interrupt each
  // (default rx-usecs = 0), 38.4 us of IRQ on `hot` inside the 50 us period.
  for (int i = 0; i < 30; ++i) {
    loop.schedule(nsec(1500) * SimDuration(i),
                  [&host, i] { host.nic().receive(make_packet(i)); });
  }
  loop.run();

  // Every frame exactly once, in order, one interrupt after its arrival:
  // the last lands at 44.7 us, so the 50 us tick finds the ring empty and
  // its flush fires nothing.
  ASSERT_EQ(delivered.size(), 30u);
  for (std::uint64_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].second, i) << "frame " << i;
    EXPECT_EQ(delivered[i].first,
              nsec(1500) * SimDuration(i) + Nic::kPerInterruptCost)
        << "frame " << i;
  }
  EXPECT_EQ(host.irq_affinity(ring), idlest);
  EXPECT_EQ(host.irq_rebalance_stats().migrations, 1u);
  // The flood is all of the ring's load, so the ring's indirection entries
  // are spread onto the other rings too. The ring was idle at the tick,
  // so every entry flips at once and the flow now hashes elsewhere.
  EXPECT_EQ(host.irq_rebalance_stats().rss_spreads, 1u);
  EXPECT_EQ(host.nic().counters().rss_deferred_entries, 0u);
  EXPECT_NE(host.nic().rx_queue_for(flow), ring);
  // Per-core IRQ time: the 30 interrupts on `hot`, the charged 30 us on
  // `busy`, and on `idlest` only the table write of the spread.
  const auto per_frame =
      std::uint64_t(Nic::kPerInterruptCost + Nic::kPerRxFrameCost);
  EXPECT_EQ(host.softirq_core(hot).irq_busy_ns(), 30 * per_frame);
  EXPECT_EQ(host.ring_irq_busy_ns(ring), 30 * per_frame);
  EXPECT_EQ(host.softirq_core(busy).irq_busy_ns(), std::uint64_t(usec(30)));
  EXPECT_EQ(host.softirq_core(idlest).irq_busy_ns(),
            std::uint64_t(Nic::kRssReprogramCost));
}

TEST(IrqRebalance, PendingHeldOffFramesDeliverOnOldCoreAcrossMigration) {
  sim::EventLoop loop;
  HostConfig config = make_config(2);
  config.nic.rx_coalesce_frames = 4;
  config.nic.rx_coalesce_usecs = 200.0;  // hold-off far beyond the test
  Host host(loop, config);
  std::vector<std::pair<SimTime, std::uint64_t>> delivered;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet pkt) {
    delivered.emplace_back(loop.now(), pkt.hdr.msg_id);
  });

  const sim::FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t ring = host.nic().rx_queue_for(flow);
  const std::size_t old_core = host.irq_affinity(ring);
  const std::size_t new_core = 1 - old_core;
  const std::uint64_t intr4 =  // one 4-frame threshold interrupt
      std::uint64_t(Nic::kPerInterruptCost + 4 * Nic::kPerRxFrameCost);

  host.enable_irq_rebalance(kPeriod);
  // Phase 1: 8 groups of 4 frames trip the rx-frames threshold — 8
  // interrupts (~12 us) on old_core inside the first period.
  std::uint64_t next_id = 0;
  for (int group = 0; group < 8; ++group) {
    loop.schedule(usec(5) * SimDuration(group), [&host, &next_id] {
      for (int i = 0; i < 4; ++i) host.nic().receive(make_packet(next_id++));
    });
  }
  // Phase 2: 2 frames below the threshold at 40 us — held off until the
  // 200 us timer, UNLESS the migration flushes them.
  loop.schedule(usec(40), [&host, &next_id] {
    host.nic().receive(make_packet(next_id++));
    host.nic().receive(make_packet(next_id++));
  });
  loop.run();

  // No lost or duplicated interrupts across the migration: every frame
  // delivered exactly once, in order.
  ASSERT_EQ(delivered.size(), 34u);
  for (std::uint64_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].second, i) << "frame " << i;
  }
  // The rebalance tick at 50 us flushed the held-off frames: delivered at
  // tick + kPerInterruptCost under the OLD vector, not at the 200 us
  // hold-off expiry.
  EXPECT_EQ(delivered[32].first, usec(50) + Nic::kPerInterruptCost);
  EXPECT_EQ(delivered[33].first, delivered[32].first);
  EXPECT_EQ(host.irq_affinity(ring), new_core);
  EXPECT_EQ(host.irq_rebalance_stats().migrations, 1u);
  // The ring carried all the load, so its entries are spread as well. The
  // flushed ring was still draining at the tick, so all 32 of its entries
  // flip only once that drain is done: the two flushed frames cannot be
  // overtaken.
  EXPECT_EQ(host.irq_rebalance_stats().rss_spreads, 1u);
  EXPECT_EQ(host.nic().counters().rss_deferred_entries, 32u);
  // All interrupt time so far (8 threshold batches + the flushed 2-frame
  // batch) landed on the old core; the new core was charged only the
  // spread's table write.
  const std::uint64_t flush_intr =
      std::uint64_t(Nic::kPerInterruptCost + 2 * Nic::kPerRxFrameCost);
  const auto reprogram = std::uint64_t(Nic::kRssReprogramCost);
  EXPECT_EQ(host.softirq_core(old_core).irq_busy_ns(), 8 * intr4 + flush_intr);
  EXPECT_EQ(host.softirq_core(new_core).irq_busy_ns(), reprogram);

  // Frames arriving after the migration follow the flow's new entry. The
  // spread dealt the ring's entries round robin over the other rings,
  // those pinned to the cold core first, and this flow's entry drew the
  // one ring still pinned to the old core.
  const std::size_t moved_to = host.nic().rx_queue_for(flow);
  EXPECT_NE(moved_to, ring);
  EXPECT_EQ(host.irq_affinity(moved_to), old_core);
  const SimTime phase3 = loop.now();
  for (int i = 0; i < 4; ++i) host.nic().receive(make_packet(next_id++));
  loop.run();
  ASSERT_EQ(delivered.size(), 38u);
  for (std::uint64_t i = 34; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].second, i) << "frame " << i;
    EXPECT_EQ(delivered[i].first, phase3 + Nic::kPerInterruptCost);
  }
  EXPECT_EQ(host.ring_irq_busy_ns(moved_to), intr4);
  EXPECT_EQ(host.softirq_core(old_core).irq_busy_ns(),
            8 * intr4 + flush_intr + intr4);
  EXPECT_EQ(host.softirq_core(new_core).irq_busy_ns(), reprogram);
  EXPECT_EQ(host.irq_rebalance_stats().migrations, 1u);
}

TEST(IrqRebalance, BalancedLoadProducesZeroMigrations) {
  sim::EventLoop loop;
  Host host(loop, make_config(2));
  std::size_t delivered = 0;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet) { ++delivered; });

  // Two flows whose rings are affined to DIFFERENT cores, flooded at the
  // same rate: the hysteresis must hold — zero migrations, zero spreads.
  std::uint16_t port_a = 1000;
  while (host.irq_affinity(host.nic().rx_queue_for(
             make_packet(0, port_a).hdr.flow)) != 0) {
    ++port_a;
  }
  std::uint16_t port_b = port_a + 1;
  while (host.irq_affinity(host.nic().rx_queue_for(
             make_packet(0, port_b).hdr.flow)) != 1) {
    ++port_b;
  }

  host.enable_irq_rebalance(kPeriod);
  for (int i = 0; i < 60; ++i) {
    loop.schedule(nsec(1500) * SimDuration(i), [&host, i, port_a, port_b] {
      host.nic().receive(make_packet(2 * i, port_a));
      host.nic().receive(make_packet(2 * i + 1, port_b));
    });
  }
  loop.run();

  EXPECT_EQ(delivered, 120u);
  EXPECT_GE(host.irq_rebalance_stats().ticks, 1u);
  EXPECT_EQ(host.irq_rebalance_stats().migrations, 0u);
  EXPECT_EQ(host.irq_rebalance_stats().rss_spreads, 0u);
  EXPECT_EQ(host.nic().counters().rss_reprograms, 0u);
}

TEST(IrqRebalance, SingleFlowSpreadRotatesRingsWithoutReordering) {
  // The single-flow pathology: RSS cannot spread one flow by hashing, so
  // the rebalancer reprograms the flow's indirection entry onto colder
  // rings period after period. Multiple rings serve the flow over the run,
  // yet delivery order is strictly preserved (the deferred-flip guard).
  sim::EventLoop loop;
  Host host(loop, make_config(4));
  std::vector<std::uint64_t> order;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet pkt) {
    order.push_back(pkt.hdr.msg_id);
  });

  host.enable_irq_rebalance(kPeriod);
  for (int i = 0; i < 200; ++i) {
    loop.schedule(usec(2) * SimDuration(i),
                  [&host, i] { host.nic().receive(make_packet(i)); });
  }
  loop.run();

  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "reorder at " << i;
  }
  EXPECT_GE(host.irq_rebalance_stats().migrations, 1u);
  EXPECT_GE(host.irq_rebalance_stats().rss_spreads, 1u);
  EXPECT_GE(host.nic().counters().rss_reprograms, 1u);
  std::size_t active_rings = 0;
  for (std::size_t r = 0; r < host.nic().rx_ring_count(); ++r) {
    if (host.nic().rx_ring_stats(r).frames > 0) ++active_rings;
  }
  EXPECT_GE(active_rings, 2u);
}

TEST(IrqRebalance, DormantWhenIdleAndRearmedByInterrupts) {
  // The rebalance timer must not keep the event loop alive: with no IRQ
  // activity it goes dormant after one tick (loop.run() terminates), and
  // the next interrupt re-arms it.
  sim::EventLoop loop;
  Host host(loop, make_config(2));
  host.register_endpoint(sim::Proto::smt, 7, [](sim::Packet) {});

  host.enable_irq_rebalance(kPeriod);
  loop.run();  // would hang forever if the tick re-armed unconditionally
  EXPECT_EQ(host.irq_rebalance_stats().ticks, 1u);

  host.nic().receive(make_packet(0));
  loop.run();
  // The interrupt re-armed the sampler; its tick saw the activity and one
  // more idle tick put it back to sleep.
  EXPECT_GE(host.irq_rebalance_stats().ticks, 2u);

  host.disable_irq_rebalance();
  host.nic().receive(make_packet(1));
  loop.run();  // disabled: no new ticks
  const std::uint64_t ticks = host.irq_rebalance_stats().ticks;
  host.nic().receive(make_packet(2));
  loop.run();
  EXPECT_EQ(host.irq_rebalance_stats().ticks, ticks);
}

TEST(IrqRebalance, HostConfigPeriodEnablesItFromConstruction) {
  // HostConfig::irq_rebalance_period arms the sampler in the constructor,
  // before anything else is scheduled: its one idle tick lands exactly
  // one period in, and a zero period leaves the host without one.
  sim::EventLoop loop;
  HostConfig config = make_config(2);
  config.irq_rebalance_period = kPeriod;
  Host host(loop, config);
  Host plain(loop, make_config(2));
  loop.run();
  EXPECT_EQ(loop.now(), kPeriod);
  EXPECT_EQ(host.irq_rebalance_stats().ticks, 1u);
  EXPECT_EQ(plain.irq_rebalance_stats().ticks, 0u);
}

}  // namespace
}  // namespace smt::stack
