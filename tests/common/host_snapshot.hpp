// Shared determinism-test snapshots: every per-host counter a run can
// leave behind (CPU busy time by class, per-core and per-ring IRQ time,
// IRQ affinity, RX ring stats, the RSS table, NIC counters and the IRQ
// rebalancer's tallies), and a two-host RpcFabric run (its final virtual
// time, every RPC completion and both hosts), each comparable with one ==.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/rpc.hpp"
#include "stack/host.hpp"

namespace smt::test {

struct HostSnapshot {
  std::uint64_t app_busy_ns = 0;
  std::uint64_t softirq_busy_ns = 0;
  std::uint64_t irq_busy_ns = 0;
  std::vector<std::uint64_t> core_irq_ns;
  std::vector<std::uint64_t> ring_irq_ns;
  std::vector<std::size_t> irq_affinity;
  std::vector<sim::RxRingStats> rings;
  std::vector<std::size_t> rss_table;
  sim::NicCounters nic;
  std::uint64_t ticks = 0, migrations = 0, spreads = 0;

  friend bool operator==(const HostSnapshot&, const HostSnapshot&) = default;
};

inline HostSnapshot snapshot_host(stack::Host& host) {
  HostSnapshot snap;
  snap.app_busy_ns = host.total_app_busy_ns();
  snap.softirq_busy_ns = host.total_softirq_busy_ns();
  snap.irq_busy_ns = host.total_irq_busy_ns();
  for (std::size_t i = 0; i < host.softirq_core_count(); ++i) {
    snap.core_irq_ns.push_back(host.softirq_core(i).irq_busy_ns());
  }
  for (std::size_t r = 0; r < host.nic().rx_ring_count(); ++r) {
    snap.ring_irq_ns.push_back(host.ring_irq_busy_ns(r));
    snap.irq_affinity.push_back(host.irq_affinity(r));
    snap.rings.push_back(host.nic().rx_ring_stats(r));
  }
  snap.rss_table = host.nic().rss_indirection();
  snap.nic = host.nic().counters();
  snap.ticks = host.irq_rebalance_stats().ticks;
  snap.migrations = host.irq_rebalance_stats().migrations;
  snap.spreads = host.irq_rebalance_stats().rss_spreads;
  return snap;
}

struct FabricSnapshot {
  SimTime final_time = 0;  // the client host's clock once the run drains
  apps::ClosedLoopResult rpc;
  HostSnapshot client, server;

  friend bool operator==(const FabricSnapshot&,
                         const FabricSnapshot&) = default;
};

/// Call after the run has drained (loop().run() or engine.run()).
inline FabricSnapshot snapshot_fabric(apps::RpcFabric& fabric,
                                      const apps::ClosedLoop& rpcs) {
  return {fabric.loop().now(), rpcs.result(),
          snapshot_host(fabric.client_host()),
          snapshot_host(fabric.server_host())};
}

}  // namespace smt::test
