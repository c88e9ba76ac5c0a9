#include "netsim/switch.hpp"

#include <cassert>

namespace smt::sim {

Status validate(const SwitchConfig& config) {
  if (config.queue_capacity_bytes == 0) {
    return make_error(Errc::invalid_argument,
                      "switch: queue capacity must be positive");
  }
  if (config.health_dark_threshold > 0 && config.health_probe_interval <= 0) {
    return make_error(Errc::invalid_argument,
                      "switch: health_probe_interval must be positive when "
                      "health_dark_threshold is set");
  }
  return Status::success();
}

void Switch::receive(Packet pkt) {
  const std::vector<std::size_t>* group = lookup_group(pkt.hdr);
  if (group == nullptr) {
    ++unrouted_dropped_;
    return;
  }
  std::size_t port_index = select_nominal(*group, pkt.hdr);
  if (ports_[port_index].dark) {
    // Health-aware ECMP: the nominal port is dark, re-steer the flow to
    // the rank-preserving healthy subset. The re-steer is charged to the
    // NOMINAL port (it is the one that lost the flow).
    Port& nominal = ports_[port_index];
    const std::size_t steered = select_healthy(*group, pkt.hdr);
    if (steered == kNoRoute) {
      // Every port in the group is dark: nothing can carry the packet.
      ++nominal.stats.dropped_dark;
      return;
    }
    if (nominal.resteered.insert(pkt.hdr.flow_hash()).second) {
      ++nominal.stats.resteered_flows;
    }
    port_index = steered;
  }
  Port& port = ports_[port_index];

  const bool is_control = pkt.hdr.type != PacketType::data || pkt.hdr.trimmed;
  if (!is_control && port.queued_bytes + pkt.wire_size() >
                         config_.queue_capacity_bytes) {
    if (config_.trimming_enabled && !pkt.payload.empty()) {
      // NDP trim: drop the payload, keep the headers — the plaintext
      // message ID / length / offsets still tell the receiver exactly
      // what was lost (§7). The stub rides the high-priority queue.
      pkt.hdr.trimmed = true;
      pkt.hdr.trimmed_len = std::uint32_t(pkt.payload.size());
      pkt.payload.clear();
      ++port.stats.trimmed;
      enqueue(port_index, std::move(pkt), /*high_priority=*/true);
    } else {
      ++port.stats.dropped;
    }
    return;
  }
  enqueue(port_index, std::move(pkt), is_control);
}

void Switch::enqueue(std::size_t port_index, Packet pkt, bool high_priority) {
  Port& port = ports_[port_index];
  port.queued_bytes += pkt.wire_size();
  if (port.queued_bytes > port.stats.max_queued_bytes) {
    port.stats.max_queued_bytes = port.queued_bytes;
  }
  if (high_priority) {
    port.high_queue.push_back(std::move(pkt));
  } else {
    port.data_queue.push_back(std::move(pkt));
  }
  ++port.stats.forwarded;
  if (!port.draining) {
    port.draining = true;
    loop_.schedule(kForwardingLatency,
                   [this, port_index] { drain(port_index); });
  }
}

void Switch::drain(std::size_t port_index) {
  Port& port = ports_[port_index];
  if (port.high_queue.empty() && port.data_queue.empty()) {
    port.draining = false;
    return;
  }
  // Strict priority: control/trimmed stubs first.
  RecyclingDeque<Packet>& queue =
      port.high_queue.empty() ? port.data_queue : port.high_queue;
  Packet pkt = std::move(queue.front());
  queue.pop_front();
  port.queued_bytes -= pkt.wire_size();

  // Port fault model (set_port_fault), applied at serialisation time by
  // the same FaultState pipeline as LinkDirection::send. A killed packet
  // still charges the wire slot.
  FaultState::Impairment fault;
  fault.killed = port.fault.flap(loop_.now(), port.next_free);
  if (!fault.killed) fault = port.fault.impair(pkt);
  if (fault.corrupted) {
    ++port.stats.corrupted;
  }

  const double bits = double(pkt.wire_size()) * 8.0;
  const SimDuration serialization = SimDuration(bits / port.bandwidth_gbps);
  const SimTime start = std::max(loop_.now(), port.next_free);
  port.next_free = start + serialization;

  if (fault.killed) {
    ++port.stats.fault_dropped;
    observe_fault_drop(port_index);
    loop_.schedule_at(port.next_free,
                      [this, port_index] { drain(port_index); });
    return;
  }
  port.consecutive_fault_drops = 0;  // a success resets the health count

  loop_.schedule_at(port.next_free, [this, port_index, jitter = fault.jitter,
                                     pkt = std::move(pkt)]() mutable {
    Port& out = ports_[port_index];
    // Fault jitter only ADDS to the egress delay, preserving the
    // cross-shard lookahead contract (arrival >= now + egress_latency).
    if (out.remote) {
      // Cross-shard egress: the deliver handler runs on the attached
      // host's shard at now + egress_latency; drain continues here.
      out.remote(loop_.now() + out.egress_latency + jitter,
                 [this, port_index, pkt = std::move(pkt)]() mutable {
                   ports_[port_index].deliver(std::move(pkt));
                 });
    } else if (out.egress_latency + jitter > 0) {
      // Local port with a cable run: propagation is pipelined — the
      // packet is in flight while the port serialises the next one, so
      // the deliveries queue on the port's lane.
      loop_.schedule(out.egress_lane, out.egress_latency + jitter,
                     [this, port_index, pkt = std::move(pkt)]() mutable {
                       ports_[port_index].deliver(std::move(pkt));
                     });
    } else {
      out.deliver(std::move(pkt));
    }
    drain(port_index);
  });
}

void Switch::observe_fault_drop(std::size_t port_index) {
  Port& port = ports_[port_index];
  if (config_.health_dark_threshold == 0 || port.dark) return;
  if (++port.consecutive_fault_drops < config_.health_dark_threshold) return;
  port.dark = true;
  ++port.stats.dark_transitions;
  schedule_probe(port_index);
}

void Switch::schedule_probe(std::size_t port_index) {
  TimerId& probe = ports_[port_index].probe;
  loop_.cancel(probe);  // one probe per port: a new one supersedes
  probe = loop_.schedule(config_.health_probe_interval, [this, port_index] {
    Port& port = ports_[port_index];
    assert(port.dark && "only a dark port has a probe pending");
    if (port.fault.down_at(loop_.now())) {
      // Probe lost into the flap window: stay dark, re-arm. Pure phase
      // arithmetic — probes never draw from the fault RNG, so packet
      // draws replay identically whatever the health state does.
      schedule_probe(port_index);
      return;
    }
    // Restore: the port rejoins every ECMP group it is ranked in (the
    // group re-expands with no table rewrite), and the flows steered
    // away snap back to their nominal rank. GE-driven darkness restores
    // optimistically here — if loss persists, the threshold re-trips.
    port.dark = false;
    port.consecutive_fault_drops = 0;
    port.resteered.clear();
  });
}

}  // namespace smt::sim
