// Clos datacenter fabric: ToR / aggregation / spine tiers of the
// output-queued Switch, with ECMP multipath between tiers.
//
// Shapes (picked from the FabricShape, validated by its validate()):
//   * racks == 1, spines == 0          — a single ToR star;
//   * racks >= 1, spines > 0, aggs_per_pod == 0
//                                      — 2-tier leaf-spine (ToR -> spines);
//   * additionally aggs_per_pod > 0    — 3-tier (ToR -> pod aggs -> spines),
//                                        pods = racks / racks_per_pod.
//
// Routing is static and programmed at attach_host time: a ToR routes its
// own hosts to their ports and everything else up an ECMP group; an agg
// routes in-pod racks down and everything else up; a spine has a full
// table (down-pod ECMP over the pod's aggs). ECMP selection reuses the
// packet's memoized flow hash with a per-switch seed (see switch.hpp), so
// one hash computation per segment feeds NIC RSS and every hop's path
// choice, while consecutive hops stay decorrelated.
//
// Sharding: rack r (its ToR and, by the stack layer's convention, its
// hosts) lives on shard r % shard_count; agg a and spine s live on shards
// a % shard_count and s % shard_count. Host<->ToR hops are therefore
// always shard-local; only fabric hops cross shards, which is why create()
// checks the propagation against the engine's lookahead only when the
// fabric has spines.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "netsim/fault.hpp"
#include "netsim/shard.hpp"
#include "netsim/switch.hpp"

namespace smt::sim {

/// The Clos shape; stack::TopologySpec names the same struct.
struct FabricShape {
  std::size_t racks = 1;
  std::size_t hosts_per_rack = 2;
  std::size_t spines = 0;
  std::size_t aggs_per_pod = 0;   // 0 = 2-tier when spines > 0
  std::size_t racks_per_pod = 0;  // 0 = all racks in one pod
  /// > 0 derives ToR uplink bandwidth from the classic ratio:
  /// uplink_gbps = bandwidth_gbps * hosts_per_rack / (uplinks * oversub).
  double oversubscription = 0.0;

  std::size_t host_count() const noexcept { return racks * hosts_per_rack; }
  std::size_t resolved_racks_per_pod() const noexcept {
    return racks_per_pod == 0 ? racks : racks_per_pod;
  }
  std::size_t pods() const noexcept {
    return aggs_per_pod == 0 ? 0 : racks / resolved_racks_per_pod();
  }
  Status validate() const;
};

struct FabricSpec {
  FabricShape shape;
  SwitchConfig switch_config;
  /// Every wire's rate (ToR uplinks may be oversubscribed, above) and
  /// propagation: ToR downlinks and switch-to-switch ports alike.
  double bandwidth_gbps = 100.0;
  SimDuration propagation = usec(1);
  /// Fault profile applied to every switch-to-switch (fabric-core) wire.
  /// Each wire gets a decorrelated RNG stream from a fabric-wide wire
  /// index, and flap phases are ALSO decorrelated per wire (offset
  /// perturbed by mix_seed(seed, wire) % flap_period) — one profile
  /// models independent per-link outages, not a fabric-wide synchronized
  /// blackout. Defaults to "off"; host<->ToR edge faults stay on the
  /// stack layer's LinkDirections.
  FaultProfile fabric_fault;

  Status validate() const;
};

class Fabric {
 public:
  /// Base for the per-switch ECMP hash perturbation seeds: switch i (ToRs,
  /// then aggs, then spines) gets mix_seed(kEcmpSeed, i).
  static constexpr std::uint64_t kEcmpSeed = 0x9e3779b97f4a7c15ull;

  /// Places switches per the sharding convention above; rejects fabrics
  /// whose cross-shard hop latency would violate the engine's lookahead.
  static Result<std::unique_ptr<Fabric>> create(ShardedEngine& engine,
                                                FabricSpec spec);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Adds host `index`'s ToR downlink port (delivering via `deliver` after
  /// queueing + serialisation + propagation) and programs routes for the
  /// host's IP (index + 1) on every tier. Returns the ToR the host's
  /// uplink must feed. Call once per host.
  Switch& attach_host(std::size_t index, PacketHandler deliver);

  std::size_t rack_of_host(std::size_t index) const noexcept {
    return index / spec_.shape.hosts_per_rack;
  }
  /// The shard a rack (and its hosts) belongs to under the fabric's
  /// placement convention.
  std::size_t shard_of_rack(std::size_t rack) const noexcept {
    return rack % engine_.shard_count();
  }
  std::size_t shard_of_host(std::size_t index) const noexcept {
    return shard_of_rack(rack_of_host(index));
  }
  std::size_t shard_of_agg(std::size_t a) const noexcept {
    return a % engine_.shard_count();
  }
  std::size_t shard_of_spine(std::size_t s) const noexcept {
    return s % engine_.shard_count();
  }

  std::size_t tor_count() const noexcept { return tors_.size(); }
  std::size_t agg_count() const noexcept { return aggs_.size(); }
  std::size_t spine_count() const noexcept { return spines_.size(); }
  Switch& tor(std::size_t r) { return *tors_.at(r); }

  /// Aggregate counters over every switch in the fabric.
  Switch::Stats totals() const;
  /// Every switch: the ToRs, then the aggs, then the spines.
  std::vector<const Switch*> switches() const;

 private:
  Fabric(ShardedEngine& engine, FabricSpec spec);

  /// Wires a switch-to-switch egress port src -> dst (`gbps`, the spec's
  /// propagation; a cross-shard mailbox hop when the tiers' shards
  /// differ). Returns the port index on `src`.
  std::size_t wire(Switch& src, std::size_t src_shard, Switch& dst,
                   std::size_t dst_shard, double gbps);

  FabricSpec spec_;
  ShardedEngine& engine_;
  std::vector<std::unique_ptr<Switch>> tors_;
  std::vector<std::unique_ptr<Switch>> aggs_;
  std::vector<std::unique_ptr<Switch>> spines_;
  double tor_uplink_gbps_ = 0.0;
  // Fabric-wide wire counter: every switch-to-switch port gets the next
  // index as its fault-RNG stream. Construction order is fixed by the
  // spec alone, so stream assignment is identical across shard counts.
  std::uint64_t fault_streams_ = 0;
  // Port maps filled at construction, consumed by attach_host's route
  // programming.
  std::vector<std::vector<std::size_t>> tor_uplink_ports_;  // [rack][i]
  std::vector<std::vector<std::size_t>> agg_down_ports_;    // [agg][local rack]
  std::vector<std::vector<std::size_t>> agg_up_ports_;      // [agg][spine]
  std::vector<std::vector<std::size_t>> spine_down_ports_;  // [spine][agg|rack]
};

}  // namespace smt::sim
