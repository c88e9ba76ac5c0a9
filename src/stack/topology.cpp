#include "stack/topology.hpp"

#include <string>

namespace smt::stack {

Result<std::unique_ptr<Topology>> TopologyBuilder::build(
    sim::ShardedEngine& engine) {
  // The single validation path: every constructor route funnels here.
  if (Status st = scenario_.validate(); !st.ok()) return st.error();
  const TopologySpec& t = scenario_.topology;
  const std::size_t n = t.host_count();
  for (const auto& [index, hc] : host_overrides_) {
    if (index >= n) {
      return make_error(Errc::invalid_argument,
                        "topology: host_config override for host " +
                            std::to_string(index) + " of " +
                            std::to_string(n));
    }
    if (Status st = validate_host(hc); !st.ok()) return st.error();
  }

  auto host_config_of = [this](std::size_t index) {
    const auto it = host_overrides_.find(index);
    HostConfig hc = it == host_overrides_.end() ? scenario_.host : it->second;
    hc.ip = std::uint32_t(index + 1);
    return hc;
  };

  auto topo = std::unique_ptr<Topology>(new Topology());
  topo->scenario_ = scenario_;

  if (direct(t)) {
    for (const auto& [index, shard] : shard_overrides_) {
      if (index >= n) {
        return make_error(Errc::invalid_argument,
                          "topology: host_shard override for host " +
                              std::to_string(index) + " of " +
                              std::to_string(n));
      }
      if (shard >= engine.shard_count()) {
        return make_error(Errc::invalid_argument,
                          "topology: shard " + std::to_string(shard) +
                              " out of range (engine has " +
                              std::to_string(engine.shard_count()) +
                              " shards)");
      }
    }
    const auto shard_of = [this](std::size_t index) {
      const auto it = shard_overrides_.find(index);
      return it == shard_overrides_.end() ? std::size_t{0} : it->second;
    };
    const std::size_t shard0 = shard_of(0);
    const std::size_t shard1 = shard_of(1);
    if (shard0 != shard1 &&
        scenario_.edge_link.propagation < engine.lookahead()) {
      return make_error(Errc::invalid_argument,
                        "topology: a cross-shard link needs propagation >= "
                        "the engine's lookahead");
    }
    sim::EventLoop& loop0 = engine.loop(shard0);
    sim::EventLoop& loop1 = engine.loop(shard1);
    topo->hosts_.push_back(std::make_unique<Host>(loop0, host_config_of(0)));
    topo->hosts_.push_back(std::make_unique<Host>(loop1, host_config_of(1)));
    topo->host_shards_ = {shard0, shard1};
    topo->link_ =
        std::make_unique<sim::Link>(loop0, loop1, scenario_.edge_link);
    // Back-to-back wiring. A host belongs to the shard whose loop built it,
    // so the link's two directions are the only cross-shard edges: when
    // the shards differ, each delivery becomes a mailbox post.
    Host& a = *topo->hosts_[0];
    Host& b = *topo->hosts_[1];
    sim::Link& link = *topo->link_;
    a.nic().attach_tx(&link.a2b());
    b.nic().attach_tx(&link.b2a());
    link.a2b().set_receiver(
        [&b](sim::Packet pkt) { b.nic().receive(std::move(pkt)); });
    link.b2a().set_receiver(
        [&a](sim::Packet pkt) { a.nic().receive(std::move(pkt)); });
    if (shard0 != shard1) {
      link.a2b().set_remote_scheduler(engine.remote_scheduler(shard0, shard1));
      link.b2a().set_remote_scheduler(engine.remote_scheduler(shard1, shard0));
    }
  } else {
    if (!shard_overrides_.empty()) {
      return make_error(Errc::invalid_argument,
                        "topology: host_shard() only applies to the direct "
                        "2-host shape; fabric placement is rack-affine");
    }
    auto fabric = sim::Fabric::create(
        engine, sim::FabricSpec{
                    .shape = t,
                    .switch_config = scenario_.switch_config,
                    .bandwidth_gbps = scenario_.edge_link.bandwidth_gbps,
                    .propagation = scenario_.edge_link.propagation,
                    .fabric_fault = scenario_.fabric_fault.value_or(
                        sim::FaultProfile{})});
    if (!fabric.ok()) return fabric.error();
    topo->fabric_ = std::move(fabric).take();

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t shard = topo->fabric_->shard_of_host(i);
      sim::EventLoop& host_loop = engine.loop(shard);
      topo->hosts_.push_back(
          std::make_unique<Host>(host_loop, host_config_of(i)));
      topo->host_shards_.push_back(shard);
      Host* host = topo->hosts_.back().get();
      // Uplink: a host-owned link direction into the ToR (sender-side
      // serialisation on the host's shard; the ToR is shard-local by the
      // placement convention). Downlink: a ToR egress port delivering
      // into the host's NIC after serialisation + edge latency.
      // Stream index = host index: every uplink draws decorrelated
      // loss/fault patterns from the one shared edge_link seed (same
      // discipline as the per-switch ECMP seeds).
      auto uplink = std::make_unique<sim::LinkDirection>(
          host_loop, scenario_.edge_link, /*stream=*/i);
      sim::Switch& tor = topo->fabric_->attach_host(
          i, [host](sim::Packet pkt) { host->nic().receive(std::move(pkt)); });
      sim::Switch* tor_ptr = &tor;
      uplink->set_receiver(
          [tor_ptr](sim::Packet pkt) { tor_ptr->receive(std::move(pkt)); });
      host->nic().attach_tx(uplink.get());
      topo->uplinks_.push_back(std::move(uplink));
    }
  }
  return topo;
}

Topology::Counters Topology::counters() const {
  Counters c;
  for (const auto& host : hosts_) c.hosts.push_back(host->counters());
  if (link_) c.links = {link_->a2b().stats(), link_->b2a().stats()};
  for (const auto& uplink : uplinks_) c.links.push_back(uplink->stats());
  if (fabric_) {
    for (const sim::Switch* sw : fabric_->switches()) {
      auto& ports = c.switch_ports.emplace_back();
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        ports.push_back(sw->port_stats(p));
      }
    }
  }
  c.switch_totals = switch_totals();
  return c;
}

}  // namespace smt::stack
