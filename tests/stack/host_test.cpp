#include "stack/host.hpp"

#include <gtest/gtest.h>

namespace smt::stack {
namespace {

HostConfig make_config(std::uint32_t ip) {
  HostConfig config;
  config.ip = ip;
  config.app_cores = 4;
  config.softirq_cores = 2;
  return config;
}

TEST(Host, DemuxesByProtoAndPort) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  int homa_hits = 0, tcp_hits = 0;
  host.register_endpoint(sim::Proto::homa, 100,
                         [&](sim::Packet) { ++homa_hits; });
  host.register_endpoint(sim::Proto::tcp, 100,
                         [&](sim::Packet) { ++tcp_hits; });

  sim::Packet pkt;
  pkt.hdr.flow.proto = sim::Proto::homa;
  pkt.hdr.flow.dst_port = 100;
  host.nic().receive(pkt);
  pkt.hdr.flow.proto = sim::Proto::tcp;
  host.nic().receive(pkt);
  pkt.hdr.flow.dst_port = 999;  // unregistered: dropped
  host.nic().receive(pkt);
  loop.run();  // RX delivery is interrupt-driven, never inline

  EXPECT_EQ(homa_hits, 1);
  EXPECT_EQ(tcp_hits, 1);
}

TEST(Host, UnregisterStopsDelivery) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  int hits = 0;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet) { ++hits; });
  sim::Packet pkt;
  pkt.hdr.flow.proto = sim::Proto::smt;
  pkt.hdr.flow.dst_port = 7;
  host.nic().receive(pkt);
  loop.run();  // deliver the first packet before unregistering
  host.unregister_endpoint(sim::Proto::smt, 7);
  host.nic().receive(pkt);
  loop.run();
  EXPECT_EQ(hits, 1);
}

TEST(Host, FlowAffinityIsStable) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  sim::FiveTuple flow;
  flow.src_ip = 1;
  flow.dst_ip = 2;
  flow.src_port = 1000;
  flow.dst_port = 2000;
  const std::size_t idx = host.softirq_index_for_flow(flow);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(host.softirq_index_for_flow(flow), idx);
  }
}

TEST(Host, DifferentFlowsSpreadAcrossCores) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  std::set<std::size_t> cores;
  for (std::uint16_t port = 1000; port < 1100; ++port) {
    sim::FiveTuple flow;
    flow.src_port = port;
    flow.dst_port = 80;
    cores.insert(host.softirq_index_for_flow(flow));
  }
  EXPECT_EQ(cores.size(), host.softirq_core_count());
}

TEST(Host, LeastLoadedSoftirqPicksIdleCore) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  host.softirq_core(0).charge(usec(100));
  EXPECT_EQ(host.least_loaded_softirq_index(), 1u);
  host.softirq_core(1).charge(usec(200));
  EXPECT_EQ(host.least_loaded_softirq_index(), 0u);
}

TEST(Host, LeastLoadedBreaksTiesRoundRobin) {
  // Regression: ties used to resolve by lowest index, permanently handing
  // every message on an idle host to the first non-reserved core. With all
  // cores idle the picks must rotate through [start_from, n).
  sim::EventLoop loop;
  HostConfig config = make_config(1);
  config.softirq_cores = 4;
  Host host(loop, config);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 1u);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 2u);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 3u);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 1u);  // wraps, skips core 0
  // A loaded core drops out of the rotation; the remaining ties still
  // rotate.
  host.softirq_core(2).charge(usec(100));
  EXPECT_EQ(host.least_loaded_softirq_index(1), 3u);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 1u);
  EXPECT_EQ(host.least_loaded_softirq_index(1), 3u);
}

TEST(Host, LeastLoadedSkipsInterruptSoakedCore) {
  // IRQ-aware SRPT placement: between interrupts the soaked core's
  // instantaneous backlog reads zero, but its decaying irq_load() keeps
  // the next message off it.
  sim::EventLoop loop;
  HostConfig config = make_config(1);
  config.softirq_cores = 4;
  Host host(loop, config);
  host.softirq_core(1).charge_irq(usec(50));
  // Drain the backlog: only the decayed IRQ pressure remains.
  loop.run_until(usec(60));
  EXPECT_EQ(host.softirq_core(1).backlog(), 0);
  EXPECT_GT(host.softirq_core(1).irq_load(), 0u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(host.least_loaded_softirq_index(1), 1u);
  }
  // The pressure decays: several half-lives later the core is placeable
  // again (score ties back to zero at >= 64 half-lives).
  loop.run_until(usec(60) + 64 * CpuCore::kIrqLoadHalfLife);
  EXPECT_EQ(host.softirq_core(1).irq_load(), 0u);
}

TEST(Host, LeastLoadedClampsOutOfRangeStartToLastCore) {
  // Regression: an out-of-range start_from used to silently wrap to core 0
  // — the reserved Homa pacer core — handing it per-message work it must
  // never see. The clamp goes to the LAST valid core instead.
  sim::EventLoop loop;
  Host host(loop, make_config(1));  // 2 softirq cores
  // Core 1 is busier than core 0, but a clamped start_from=5 must still
  // land on core 1: core 0 is outside the allowed range.
  host.softirq_core(1).charge(usec(100));
  EXPECT_EQ(host.least_loaded_softirq_index(5), 1u);

  HostConfig single = make_config(2);
  single.softirq_cores = 1;
  Host one_core(loop, single);
  EXPECT_EQ(one_core.least_loaded_softirq_index(1), 0u);
  EXPECT_EQ(one_core.least_loaded_softirq_index(7), 0u);
}

TEST(Host, RxInterruptChargedToAffinityCore) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  host.register_endpoint(sim::Proto::smt, 7, [](sim::Packet) {});

  sim::Packet pkt;
  pkt.hdr.flow.src_ip = 9;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.flow.src_port = 1234;
  pkt.hdr.flow.dst_port = 7;
  pkt.hdr.flow.proto = sim::Proto::smt;
  const std::size_t ring = host.nic().rx_queue_for(pkt.hdr.flow);
  const std::size_t core = host.irq_affinity(ring);
  EXPECT_EQ(core, ring % host.softirq_core_count());

  host.nic().receive(pkt);
  loop.run();

  // kPerInterruptCost + one frame's completion work, all on the affinity
  // core, all tagged as IRQ-class time.
  const std::uint64_t expected =
      std::uint64_t(sim::Nic::kPerInterruptCost + sim::Nic::kPerRxFrameCost);
  EXPECT_EQ(host.softirq_core(core).irq_busy_ns(), expected);
  EXPECT_EQ(host.total_irq_busy_ns(), expected);
  EXPECT_EQ(host.total_softirq_busy_ns(), expected);  // included in busy
  for (std::size_t i = 0; i < host.softirq_core_count(); ++i) {
    if (i != core) {
      EXPECT_EQ(host.softirq_core(i).irq_busy_ns(), 0u);
    }
  }
  EXPECT_EQ(host.nic().counters().irq_cpu_ns, expected);
}

TEST(Host, RxDeliveryDelayedBehindBackloggedAffinityCore) {
  // The §5.2 story: interrupt servicing CONTENDS with protocol work. A
  // backlogged affinity core postpones the ring's drain — delivery waits
  // for the backlog plus the interrupt cost, deterministically.
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  std::vector<SimTime> delivered_at;
  std::vector<std::uint64_t> order;
  host.register_endpoint(sim::Proto::smt, 7, [&](sim::Packet p) {
    delivered_at.push_back(loop.now());
    order.push_back(p.hdr.msg_id);
  });

  sim::Packet pkt;
  pkt.hdr.flow.src_ip = 9;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.flow.src_port = 1234;
  pkt.hdr.flow.dst_port = 7;
  pkt.hdr.flow.proto = sim::Proto::smt;
  const std::size_t core = host.irq_affinity(host.nic().rx_queue_for(pkt.hdr.flow));

  host.softirq_core(core).charge(usec(100));  // protocol backlog
  pkt.hdr.msg_id = 1;
  host.nic().receive(pkt);
  pkt.hdr.msg_id = 2;
  host.nic().receive(pkt);
  loop.run();

  ASSERT_EQ(delivered_at.size(), 2u);
  // Drain ran only after the backlog cleared + kPerInterruptCost; both
  // frames of the batch delivered then, in arrival order.
  EXPECT_EQ(delivered_at[0], usec(100) + sim::Nic::kPerInterruptCost);
  EXPECT_EQ(delivered_at[1], delivered_at[0]);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Host, SetIrqAffinityRedirectsInterruptCharging) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  host.register_endpoint(sim::Proto::smt, 7, [](sim::Packet) {});

  sim::Packet pkt;
  pkt.hdr.flow.src_ip = 9;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.flow.src_port = 1234;
  pkt.hdr.flow.dst_port = 7;
  pkt.hdr.flow.proto = sim::Proto::smt;
  const std::size_t ring = host.nic().rx_queue_for(pkt.hdr.flow);
  const std::size_t other = (host.irq_affinity(ring) + 1) % host.softirq_core_count();

  host.set_irq_affinity(ring, other);  // irqbalance-style repin
  host.nic().receive(pkt);
  loop.run();

  EXPECT_GT(host.softirq_core(other).irq_busy_ns(), 0u);
  for (std::size_t i = 0; i < host.softirq_core_count(); ++i) {
    if (i != other) {
      EXPECT_EQ(host.softirq_core(i).irq_busy_ns(), 0u);
    }
  }
}

TEST(Host, DoorbellChargedToPostingCore) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  sim::SegmentDescriptor d;
  d.segment.hdr.flow.proto = sim::Proto::homa;
  d.segment.hdr.flow.dst_port = 5;
  CpuCore& poster = host.app_core(0);
  host.nic().post_segment(0, std::move(d), doorbell_charge(&poster));
  loop.run();
  const auto doorbell = std::uint64_t(sim::Nic::kPerDoorbellCost);
  EXPECT_EQ(poster.irq_busy_ns(), doorbell);
  EXPECT_EQ(host.nic().counters().doorbell_cpu_ns, doorbell);
  EXPECT_EQ(host.total_irq_busy_ns(), doorbell);
}

TEST(Host, BusyAccountingAggregates) {
  sim::EventLoop loop;
  Host host(loop, make_config(1));
  host.app_core(0).charge(usec(10));
  host.app_core(1).charge(usec(20));
  host.softirq_core(0).charge(usec(5));
  EXPECT_EQ(host.total_app_busy_ns(), usec(30));
  EXPECT_EQ(host.total_softirq_busy_ns(), usec(5));
}

}  // namespace
}  // namespace smt::stack
