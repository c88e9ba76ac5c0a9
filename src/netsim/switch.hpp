// Output-queued switch with priorities, NDP-style packet trimming, and
// ECMP multipath egress.
//
// The paper argues SMT is compatible with the trimming used by NDP and
// UET (§7): when a queue overflows, the switch TRIMS the packet — payload
// dropped, headers kept — and forwards the stub at high priority. This
// only helps if the transport metadata the receiver needs (message ID,
// length, TSO offset) is PLAINTEXT, which is exactly SMT's wire format
// choice (§4.3). An encrypted-header design (QUIC-style, §6.3) would make
// trimmed stubs useless.
//
// Homa priorities map to queue priorities; control packets (grants,
// resends, acks) and trimmed stubs ride the high-priority queue.
//
// ECMP: a destination may route to a GROUP of ports; the next hop is
// picked from the packet's memoized 5-tuple hash (PacketHeader::
// flow_hash_cache — the same single hash computation that feeds NIC RSS)
// perturbed by a per-switch seed, so consecutive switches on a path make
// decorrelated choices (real fabrics perturb the hash per hop for the
// same reason). Selection is a pure function of (flow, seed): a flow
// takes one path for its lifetime, across runs and shard counts.
//
// Fabric-core faults + link health: an egress port may carry a
// FaultProfile (set_port_fault), run by the same sim::FaultState pipeline
// as LinkDirection (netsim/fault.hpp) at serialisation time. On top of
// it sits a deterministic per-port health state machine: consecutive
// fault-killed egress attempts past `health_dark_threshold` mark the
// port DARK; ECMP then excludes it by rank-preserving group shrink (the
// selection over the surviving ports keeps today's exact pure-function
// shape, so the healthy path stays byte-identical), and a probe on a
// fixed `health_probe_interval` schedule re-checks the RNG-free flap
// phase and restores the port, re-expanding the group.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "netsim/event.hpp"
#include "netsim/fault.hpp"
#include "netsim/packet.hpp"
#include "netsim/recycling.hpp"

namespace smt::sim {

struct SwitchConfig {
  std::size_t queue_capacity_bytes = 64 * 1024;  // shallow DC buffers
  bool trimming_enabled = true;  // NDP-style trim-on-overflow
  std::uint64_t ecmp_seed = 0;   // per-switch flow-hash perturbation
  /// Link-health state machine, 0 = disabled: a port marks itself dark
  /// after this many CONSECUTIVE fault-killed egress attempts (flap-down
  /// drops or sustained Gilbert–Elliott loss); any successful egress
  /// resets the count.
  std::size_t health_dark_threshold = 0;
  /// Probe/restore cadence for dark ports. Each probe re-checks the
  /// RNG-free flap phase: still down => stay dark and re-arm; up (or no
  /// flaps configured, i.e. GE-driven darkness) => restore optimistically.
  /// Probes never draw from the fault RNG, so the per-packet draw
  /// sequence is unperturbed by health state.
  SimDuration health_probe_interval = usec(100);
};

/// The one SwitchConfig check, shared by FabricSpec::validate and the
/// scenario layer.
Status validate(const SwitchConfig& config);

class Switch {
 public:
  static constexpr std::size_t kNoRoute = std::size_t(-1);
  /// Ingress-to-egress lookup delay before a port starts draining.
  static constexpr SimDuration kForwardingLatency = nsec(300);

  Switch(EventLoop& loop, SwitchConfig config)
      : loop_(loop), config_(config) {}

  /// Adds an output port; returns its index. `deliver` receives packets
  /// after queueing + serialisation (+ the port's egress latency, if set).
  std::size_t add_port(PacketHandler deliver) {
    Port port;
    port.deliver = std::move(deliver);
    port.egress_lane = loop_.new_lane();
    ports_.push_back(std::move(port));
    return ports_.size() - 1;
  }

  /// Marks a port's egress as CROSS-SHARD: after queueing + serialisation
  /// on this switch's shard, delivery becomes a mailbox post to the
  /// attached host's shard at now + egress_latency (the cable run to the
  /// remote host; must be >= the engine's lookahead). Queue accounting,
  /// trimming, and drain order stay on the switch's shard — only the
  /// deliver handler runs remotely. Wire before run().
  void set_port_remote(std::size_t port, RemoteScheduler remote,
                       SimDuration egress_latency) {
    ports_.at(port).remote = std::move(remote);
    ports_.at(port).egress_latency = egress_latency;
  }

  /// Per-port egress propagation for LOCAL (same-shard) ports: delivery
  /// fires at serialisation-end + latency while the port keeps draining
  /// (the cable is a pipeline, not a stop-and-wait). 0 (the default)
  /// delivers inline at serialisation end — the original behaviour.
  void set_port_latency(std::size_t port, SimDuration latency) {
    ports_.at(port).egress_latency = latency;
  }

  /// A port's egress bandwidth (100 Gb/s until set). Fabric sets every
  /// port it builds: the edge rate, or a ToR uplink's oversubscribed rate.
  void set_port_bandwidth(std::size_t port, double gbps) {
    ports_.at(port).bandwidth_gbps = gbps;
  }

  /// Routes an IP to a single port (static forwarding table).
  void set_route(std::uint32_t dst_ip, std::size_t port) {
    routes_[dst_ip] = {port};
  }

  /// Routes an IP to an ECMP group: the egress port is picked from the
  /// packet's memoized flow hash perturbed by this switch's ecmp_seed.
  void set_ecmp_route(std::uint32_t dst_ip, std::vector<std::size_t> ports) {
    routes_[dst_ip] = std::move(ports);
  }

  /// Fallback ECMP group for destinations with no explicit route (the
  /// "default via uplinks" entry of a ToR/agg table). Empty = drop.
  void set_default_route(std::vector<std::size_t> ports) {
    default_route_ = std::move(ports);
  }

  /// Applies a FaultProfile to an egress port through the same FaultState
  /// pipeline as LinkDirection. Flaps and Gilbert–Elliott loss kill the
  /// packet at serialisation time (the slot is still charged: a killed
  /// packet occupied the wire, same drop-accounting contract as
  /// LinkDirection); corruption delivers with hdr.corrupted set; reorder
  /// jitter only ever ADDS to the egress delay, so the cross-shard
  /// lookahead contract (arrival >= serialisation end + egress_latency)
  /// holds. `stream` picks the decorrelated fault-RNG stream via
  /// mix_seed — Fabric uses a fabric-wide wire index. Wire before run().
  void set_port_fault(std::size_t port, const FaultProfile& fault,
                      std::uint64_t stream) {
    ports_.at(port).fault = FaultState(fault, stream);
  }

  /// Whether the health state machine currently has this port dark.
  bool port_dark(std::size_t port) const { return ports_.at(port).dark; }

  /// The port this header would egress on — a pure function of
  /// (destination route, flow hash, ecmp_seed) and the ports' current
  /// health state, exposed so tests can assert path determinism without
  /// running traffic. With every port healthy this is EXACTLY the
  /// historical selection; a dark nominal port re-steers to the
  /// rank-preserving healthy subset (select_healthy below). kNoRoute if
  /// unroutable or every port in the group is dark.
  std::size_t route_port(const PacketHeader& hdr) const {
    const std::vector<std::size_t>* group = lookup_group(hdr);
    if (group == nullptr) return kNoRoute;
    const std::size_t nominal = select_nominal(*group, hdr);
    if (!ports_[nominal].dark) return nominal;
    return select_healthy(*group, hdr);
  }

  /// Ingress: forwards to the routed port's queue; trims or drops on
  /// overflow.
  void receive(Packet pkt);

  /// One field list for a port, a switch (the sum of its ports) and a
  /// fabric (Fabric::totals(), the sum of its switches).
  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t trimmed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t fault_dropped = 0;     // killed by a port's FaultProfile
    std::uint64_t corrupted = 0;         // flagged by a port's FaultProfile
    std::uint64_t dark_transitions = 0;  // healthy->dark flips
    std::uint64_t resteered_flows = 0;   // distinct flows steered off dark
    std::uint64_t dropped_dark = 0;      // every port in the group dark

    Stats& operator+=(const Stats& o) noexcept {
      forwarded += o.forwarded;
      trimmed += o.trimmed;
      dropped += o.dropped;
      fault_dropped += o.fault_dropped;
      corrupted += o.corrupted;
      dark_transitions += o.dark_transitions;
      resteered_flows += o.resteered_flows;
      dropped_dark += o.dropped_dark;
      return *this;
    }
    friend bool operator==(const Stats&, const Stats&) = default;
  };

  /// Per-egress-port counters, the only store of the switch's facts
  /// (overflow drops/trims are charged to the port whose queue overflowed;
  /// dark-path counters to the port the flow NOMINALLY hashed onto).
  struct PortStats : Stats {
    std::size_t max_queued_bytes = 0;

    friend bool operator==(const PortStats&, const PortStats&) = default;
  };
  const PortStats& port_stats(std::size_t port) const {
    return ports_.at(port).stats;
  }

  /// The sum over ports, plus the unrouted packets (which reach no port).
  Stats stats() const noexcept {
    Stats total;
    total.dropped = unrouted_dropped_;
    for (const Port& port : ports_) total += port.stats;
    return total;
  }
  std::size_t port_count() const noexcept { return ports_.size(); }

 private:
  struct Port {
    PacketHandler deliver;
    RecyclingDeque<Packet> high_queue;  // control + trimmed stubs
    RecyclingDeque<Packet> data_queue;
    RemoteScheduler remote;  // set => egress crosses a shard boundary
    std::size_t queued_bytes = 0;
    SimDuration egress_latency = 0;
    double bandwidth_gbps = 100.0;  // until set_port_bandwidth
    SimTime next_free = 0;
    bool draining = false;
    LaneId egress_lane;  // local deliveries through the cable run
    PortStats stats;
    // Fabric-link fault state (set_port_fault): the same sender-side
    // pipeline as LinkDirection, one decorrelated RNG stream per port.
    FaultState fault;
    // Health state machine (config_.health_dark_threshold > 0).
    bool dark = false;
    std::size_t consecutive_fault_drops = 0;
    TimerId probe;  // the pending probe/restore timer
    // Flow hashes steered off this port while dark — an ordered set so
    // the distinct-flow count is deterministic and re-insertion is free.
    std::set<std::uint64_t> resteered;
  };

  /// The route group for a header, nullptr if unroutable (no entry and
  /// no default, or an empty group).
  const std::vector<std::size_t>* lookup_group(const PacketHeader& hdr) const {
    const std::vector<std::size_t>* group = nullptr;
    const auto route = routes_.find(hdr.flow.dst_ip);
    if (route != routes_.end()) {
      group = &route->second;
    } else if (!default_route_.empty()) {
      group = &default_route_;
    }
    if (group == nullptr || group->empty()) return nullptr;
    return group;
  }

  /// Historical ECMP selection, health-blind — byte-identical to every
  /// prior release when nothing is dark.
  std::size_t select_nominal(const std::vector<std::size_t>& group,
                             const PacketHeader& hdr) const {
    if (group.size() == 1) return group.front();
    return group[mix64(hdr.flow_hash() ^ config_.ecmp_seed) % group.size()];
  }

  /// Rank-preserving group shrink: selection over the healthy subset in
  /// group order, with the same pure-function shape as select_nominal —
  /// group[i] dark just deletes rank i, it never permutes the survivors.
  /// Depends only on (flow hash, seed, which ports are dark), so
  /// re-steered paths replay byte-identically too. kNoRoute if every
  /// port in the group is dark.
  std::size_t select_healthy(const std::vector<std::size_t>& group,
                             const PacketHeader& hdr) const {
    std::size_t healthy = 0;
    for (const std::size_t p : group) {
      if (!ports_[p].dark) ++healthy;
    }
    if (healthy == 0) return kNoRoute;
    std::size_t rank =
        mix64(hdr.flow_hash() ^ config_.ecmp_seed) % healthy;
    for (const std::size_t p : group) {
      if (ports_[p].dark) continue;
      if (rank == 0) return p;
      --rank;
    }
    return kNoRoute;  // unreachable
  }

  void enqueue(std::size_t port_index, Packet pkt, bool high_priority);
  void drain(std::size_t port_index);
  /// A fault kill is a health observation: count it, and past the
  /// threshold go dark and arm the probe/restore schedule.
  void observe_fault_drop(std::size_t port_index);
  void schedule_probe(std::size_t port_index);

  EventLoop& loop_;
  SwitchConfig config_;
  std::vector<Port> ports_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>, TableHash>
      routes_;
  std::vector<std::size_t> default_route_;
  std::uint64_t unrouted_dropped_ = 0;
};

}  // namespace smt::sim
