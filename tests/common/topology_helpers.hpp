// Shared test scaffolding: every two-host testbed goes through the
// TopologyBuilder degenerate topology (host 0 = ip 1, host 1 = ip 2),
// the same construction path the benches and sharded engine use.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "stack/topology.hpp"

namespace smt::test {

inline std::unique_ptr<stack::Topology> two_host_topology(
    sim::ShardedEngine& engine, const stack::HostConfig& hc = {},
    const sim::LinkConfig& lc = {}) {
  stack::ScenarioConfig scenario;
  scenario.host = hc;
  scenario.edge_link = lc;
  auto built = stack::TopologyBuilder(scenario).build(engine);
  if (!built.ok()) {
    ADD_FAILURE() << "topology build failed: " << built.error().message;
    std::abort();
  }
  return std::move(built).take();
}

}  // namespace smt::test
