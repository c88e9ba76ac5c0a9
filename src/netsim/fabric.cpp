#include "netsim/fabric.hpp"

#include <string>

#include "common/rng.hpp"

namespace smt::sim {

// Per-switch ECMP seeds derive via smt::mix_seed (common/rng.hpp) — the same
// stream-decorrelation step LinkDirection and FaultState use for their RNGs.

Status FabricShape::validate() const {
  if (racks == 0) return make_error(Errc::invalid_argument, "fabric: racks must be >= 1");
  if (hosts_per_rack == 0) {
    return make_error(Errc::invalid_argument,
                      "fabric: hosts_per_rack must be >= 1");
  }
  if (spines == 0 && racks > 1) {
    return make_error(Errc::invalid_argument,
                      "fabric: a multi-rack fabric needs spines >= 1 "
                      "(a single ToR only serves one rack)");
  }
  if (aggs_per_pod > 0) {
    if (spines == 0) {
      return make_error(Errc::invalid_argument,
                        "fabric: aggs_per_pod > 0 requires spines >= 1");
    }
    const std::size_t rpp = resolved_racks_per_pod();
    if (racks % rpp != 0) {
      return make_error(
          Errc::invalid_argument,
          "fabric: racks_per_pod (" + std::to_string(rpp) +
              ") must divide racks (" + std::to_string(racks) + ")");
    }
  } else if (racks_per_pod > 0) {
    return make_error(Errc::invalid_argument,
                      "fabric: racks_per_pod without aggs_per_pod has no "
                      "meaning (no aggregation tier)");
  }
  if (oversubscription < 0.0) {
    return make_error(Errc::invalid_argument,
                      "fabric: oversubscription must be >= 0");
  }
  return Status::success();
}

Status FabricSpec::validate() const {
  if (Status st = shape.validate(); !st.ok()) return st;
  if (bandwidth_gbps <= 0.0) {
    return make_error(Errc::invalid_argument,
                      "fabric: bandwidth must be positive");
  }
  if (Status st = sim::validate(switch_config); !st.ok()) return st;
  return sim::validate(fabric_fault, "fabric: fabric_fault");
}

Result<std::unique_ptr<Fabric>> Fabric::create(ShardedEngine& engine,
                                               FabricSpec spec) {
  const Status valid = spec.validate();
  if (!valid.ok()) return valid.error();
  if (spec.shape.spines > 0) {
    // The fabric_fault profile rides on these wires: jitter only ever
    // ADDS to the egress delay and flap/loss kills never deliver, so
    // the propagation alone bounds cross-shard arrivals from below and
    // this single check covers the faulted fabric too.
    const Status contract = engine.validate_lookahead(
        spec.propagation, "fabric: propagation (cross-shard hops are "
                          "fabric hops; fault jitter only adds on top)");
    if (!contract.ok()) return contract.error();
  }
  return std::unique_ptr<Fabric>(new Fabric(engine, spec));
}

Fabric::Fabric(ShardedEngine& engine, FabricSpec spec)
    : spec_(spec), engine_(engine) {
  const FabricShape& shape = spec_.shape;
  std::uint64_t next_switch = 0;
  auto make_switch = [&](std::size_t shard) {
    SwitchConfig sc = spec_.switch_config;
    sc.ecmp_seed = mix_seed(kEcmpSeed, next_switch++);
    return std::make_unique<Switch>(engine_.loop(shard), sc);
  };

  for (std::size_t r = 0; r < shape.racks; ++r) {
    tors_.push_back(make_switch(shard_of_rack(r)));
  }
  const std::size_t pods = shape.pods();
  if (pods > 0) {
    for (std::size_t a = 0; a < pods * shape.aggs_per_pod; ++a) {
      aggs_.push_back(make_switch(shard_of_agg(a)));
    }
  }
  for (std::size_t s = 0; s < shape.spines; ++s) {
    spines_.push_back(make_switch(shard_of_spine(s)));
  }

  // ToR uplink bandwidth: the spec's bandwidth, or derived from the
  // oversubscription ratio against the rack's aggregate edge capacity.
  const std::size_t tor_fanout =
      pods > 0 ? shape.aggs_per_pod : shape.spines;
  tor_uplink_gbps_ = spec_.bandwidth_gbps;
  if (shape.oversubscription > 0.0 && tor_fanout > 0) {
    tor_uplink_gbps_ = spec_.bandwidth_gbps *
                       double(shape.hosts_per_rack) /
                       (double(tor_fanout) * shape.oversubscription);
  }

  tor_uplink_ports_.resize(shape.racks);
  if (pods > 0) {
    // 3-tier: ToR <-> pod aggs, aggs <-> every spine.
    const std::size_t rpp = shape.resolved_racks_per_pod();
    agg_down_ports_.resize(aggs_.size());
    agg_up_ports_.resize(aggs_.size());
    spine_down_ports_.assign(spines_.size(),
                             std::vector<std::size_t>(aggs_.size(), 0));
    for (std::size_t r = 0; r < shape.racks; ++r) {
      const std::size_t pod = r / rpp;
      for (std::size_t j = 0; j < shape.aggs_per_pod; ++j) {
        const std::size_t a = pod * shape.aggs_per_pod + j;
        tor_uplink_ports_[r].push_back(wire(*tors_[r], shard_of_rack(r),
                                            *aggs_[a], shard_of_agg(a),
                                            tor_uplink_gbps_));
        agg_down_ports_[a].push_back(wire(*aggs_[a], shard_of_agg(a),
                                          *tors_[r], shard_of_rack(r),
                                          spec_.bandwidth_gbps));
      }
      tors_[r]->set_default_route(tor_uplink_ports_[r]);
    }
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      for (std::size_t s = 0; s < spines_.size(); ++s) {
        agg_up_ports_[a].push_back(wire(*aggs_[a], shard_of_agg(a),
                                        *spines_[s], shard_of_spine(s),
                                        spec_.bandwidth_gbps));
        spine_down_ports_[s][a] = wire(*spines_[s], shard_of_spine(s),
                                       *aggs_[a], shard_of_agg(a),
                                       spec_.bandwidth_gbps);
      }
      aggs_[a]->set_default_route(agg_up_ports_[a]);
    }
  } else if (shape.spines > 0) {
    // 2-tier leaf-spine: every ToR <-> every spine.
    spine_down_ports_.assign(spines_.size(),
                             std::vector<std::size_t>(shape.racks, 0));
    for (std::size_t r = 0; r < shape.racks; ++r) {
      for (std::size_t s = 0; s < spines_.size(); ++s) {
        tor_uplink_ports_[r].push_back(wire(*tors_[r], shard_of_rack(r),
                                            *spines_[s], shard_of_spine(s),
                                            tor_uplink_gbps_));
        spine_down_ports_[s][r] = wire(*spines_[s], shard_of_spine(s),
                                       *tors_[r], shard_of_rack(r),
                                       spec_.bandwidth_gbps);
      }
      tors_[r]->set_default_route(tor_uplink_ports_[r]);
    }
  }
}

std::size_t Fabric::wire(Switch& src, std::size_t src_shard, Switch& dst,
                         std::size_t dst_shard, double gbps) {
  Switch* target = &dst;
  const std::size_t port =
      src.add_port([target](Packet pkt) { target->receive(std::move(pkt)); });
  src.set_port_bandwidth(port, gbps);
  if (src_shard != dst_shard) {
    src.set_port_remote(port,
                        engine_.remote_scheduler(src_shard, dst_shard),
                        spec_.propagation);
  } else {
    src.set_port_latency(port, spec_.propagation);
  }
  if (spec_.fabric_fault.enabled()) {
    FaultProfile fault = spec_.fabric_fault;
    if (fault.flaps_enabled()) {
      // Decorrelate flap phase per wire: independent per-link outages,
      // not a fabric-wide synchronized blackout. Pure arithmetic on the
      // wire index, so the schedule is identical across shard counts.
      fault.flap_offset += SimDuration(std::int64_t(
          mix_seed(fault.seed, fault_streams_) %
          std::uint64_t(fault.flap_period)));
    }
    src.set_port_fault(port, fault, fault_streams_);
  }
  ++fault_streams_;
  return port;
}

Switch& Fabric::attach_host(std::size_t index, PacketHandler deliver) {
  const FabricShape& shape = spec_.shape;
  const std::size_t r = rack_of_host(index);
  const std::uint32_t ip = std::uint32_t(index + 1);
  Switch& tor = *tors_.at(r);
  const std::size_t port = tor.add_port(std::move(deliver));
  tor.set_port_bandwidth(port, spec_.bandwidth_gbps);
  tor.set_port_latency(port, spec_.propagation);
  tor.set_route(ip, port);

  const std::size_t pods = shape.pods();
  if (pods > 0) {
    const std::size_t rpp = shape.resolved_racks_per_pod();
    const std::size_t pod = r / rpp;
    const std::size_t local = r % rpp;
    for (std::size_t j = 0; j < shape.aggs_per_pod; ++j) {
      const std::size_t a = pod * shape.aggs_per_pod + j;
      aggs_[a]->set_route(ip, agg_down_ports_[a][local]);
    }
    for (std::size_t s = 0; s < spines_.size(); ++s) {
      std::vector<std::size_t> down;
      for (std::size_t j = 0; j < shape.aggs_per_pod; ++j) {
        down.push_back(spine_down_ports_[s][pod * shape.aggs_per_pod + j]);
      }
      spines_[s]->set_ecmp_route(ip, std::move(down));
    }
  } else if (shape.spines > 0) {
    for (std::size_t s = 0; s < spines_.size(); ++s) {
      spines_[s]->set_route(ip, spine_down_ports_[s][r]);
    }
  }
  return tor;
}

Switch::Stats Fabric::totals() const {
  Switch::Stats total;
  for (const Switch* sw : switches()) total += sw->stats();
  return total;
}

std::vector<const Switch*> Fabric::switches() const {
  std::vector<const Switch*> all;
  for (const auto* tier : {&tors_, &aggs_, &spines_}) {
    for (const auto& sw : *tier) all.push_back(sw.get());
  }
  return all;
}

}  // namespace smt::sim
