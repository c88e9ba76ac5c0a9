// TopologyBuilder: the single way benches, tests, and tools construct
// simulated networks — from the paper's two-host back-to-back testbed up
// to a multi-pod Clos fabric — from one stack::ScenarioConfig:
//
//   stack::ScenarioConfig scenario;
//   scenario.topology.racks = 8;
//   scenario.topology.hosts_per_rack = 16;
//   scenario.topology.spines = 4;
//   scenario.edge_link = edge;
//   auto topo = stack::TopologyBuilder(scenario).build(engine);  // Result
//
// Shapes:
//   * DIRECT (the default 1 rack x 2 hosts, no spines): two hosts wired
//     back-to-back over a Link — bit-for-bit the classic hand-wired
//     testbed. This is the 2-host degenerate-case guarantee: anything
//     built through the builder with the default shape behaves
//     byte-identically to the hand-wired testbeds it replaced.
//   * SINGLE ToR (1 rack of 1 or 3+ hosts, no spines): hosts hang off one
//     Switch (queueing/trimming scenarios; a 1 x 3 rack with an idle
//     third host is the smallest switched two-party testbed).
//   * FABRIC (spines > 0): 2-tier leaf-spine or 3-tier Clos via
//     sim::Fabric with ECMP multipath (see netsim/fabric.hpp). Fabric
//     wires take the edge link's rate and propagation.
//
// Sharding: build(engine) places rack r — its ToR and hosts — on shard
// r % shard_count, so host<->ToR hops stay shard-local and only fabric
// hops cross shards. In DIRECT mode host_shard() overrides placement
// per host (the two-host cross-shard testbeds).
//
// Host IPs are assigned by index: host i has IP i + 1.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "netsim/fabric.hpp"
#include "netsim/link.hpp"
#include "netsim/shard.hpp"
#include "stack/host.hpp"
#include "stack/scenario.hpp"

namespace smt::stack {

class TopologyBuilder;

/// A built network: owns the hosts, switches, and links. Accessors expose
/// the pieces tests need (per-host handles, the direct link's fault
/// injection, switch counters); everything is wired before the first
/// event runs.
class Topology {
 public:
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  ~Topology() = default;

  std::size_t host_count() const noexcept { return hosts_.size(); }
  Host& host(std::size_t i) { return *hosts_.at(i); }
  std::uint32_t ip_of(std::size_t i) const { return std::uint32_t(i + 1); }
  std::size_t shard_of(std::size_t i) const { return host_shards_.at(i); }
  sim::EventLoop& loop_of(std::size_t i) { return hosts_.at(i)->loop(); }

  /// DIRECT mode: the back-to-back link (for drop predicates, loss
  /// snooping). nullptr in switched modes.
  sim::Link* direct_link() noexcept { return link_.get(); }

  /// Switched modes: the fabric (ToR/agg/spine switches and their
  /// counters). nullptr in DIRECT mode.
  sim::Fabric* fabric() noexcept { return fabric_.get(); }

  /// Switched modes: host i's uplink into its ToR (tests re-point the
  /// receiver to snoop packets). nullptr in DIRECT mode.
  sim::LinkDirection* uplink(std::size_t i) {
    return i < uplinks_.size() ? uplinks_[i].get() : nullptr;
  }

  /// Aggregate switch counters (zeroes in DIRECT mode).
  sim::Switch::Stats switch_totals() const {
    return fabric_ ? fabric_->totals() : sim::Switch::Stats{};
  }

  /// Everything the network has counted, comparable with one ==: the
  /// determinism tests' whole-run witness. Read it after the run drains.
  struct Counters {
    std::vector<HostCounters> hosts;
    /// DIRECT: the link's a2b and b2a; switched: each host's uplink.
    std::vector<sim::LinkDirection::Stats> links;
    /// Per switch (ToRs, aggs, spines), its ports' counters.
    std::vector<std::vector<sim::Switch::PortStats>> switch_ports;
    sim::Switch::Stats switch_totals;

    friend bool operator==(const Counters&, const Counters&) = default;
  };
  Counters counters() const;

  const ScenarioConfig& scenario() const noexcept { return scenario_; }

 private:
  friend class TopologyBuilder;
  Topology() = default;

  ScenarioConfig scenario_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::size_t> host_shards_;
  std::unique_ptr<sim::Link> link_;      // DIRECT
  std::unique_ptr<sim::Fabric> fabric_;  // VIA-ToR / FABRIC
  std::vector<std::unique_ptr<sim::LinkDirection>> uplinks_;
};

class TopologyBuilder {
 public:
  /// Every knob comes from the scenario (a parsed scenario file, or one
  /// built in code); the default is the two-host direct testbed.
  explicit TopologyBuilder(ScenarioConfig scenario = {})
      : scenario_(std::move(scenario)) {}

  /// Per-host override (asymmetric testbeds: client vs server cores).
  TopologyBuilder& host_config(std::size_t index, const HostConfig& config) {
    host_overrides_[index] = config;
    return *this;
  }

  /// DIRECT mode only: pins host `index` to a shard of build()'s engine
  /// (fabric placement is rack-affine by construction).
  TopologyBuilder& host_shard(std::size_t index, std::size_t shard) {
    shard_overrides_[index] = shard;
    return *this;
  }

  /// Builds on `engine`. A one-shard engine is the plain single-loop
  /// simulation: drive it with engine.loop(0).run() or engine.run().
  Result<std::unique_ptr<Topology>> build(sim::ShardedEngine& engine);

 private:
  ScenarioConfig scenario_;
  std::map<std::size_t, HostConfig> host_overrides_;
  std::map<std::size_t, std::size_t> shard_overrides_;
};

}  // namespace smt::stack
