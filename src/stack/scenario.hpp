// Layered scenario configuration: the single description of a simulated
// network that every bench, test, and tool builds from.
//
//   ScenarioConfig
//     ├── TopologySpec   — shape: racks, spines, pods, oversubscription
//     ├── HostConfig     — the per-host template (cores, NIC, cost model)
//     ├── LinkConfig     — every link: host<->ToR / direct, and the
//     │                    switch-to-switch wires' rate and propagation
//     ├── SwitchConfig   — queueing, trimming, link health
//     └── WorkloadSpec   — what the benches drive over the topology
//
// One validation path: every constructor route (TopologyBuilder,
// RpcFabricConfig conversion, text scenario files) funnels through
// ScenarioConfig::validate (plus sim::validate for the netsim types) and
// reports misconfiguration as a common::Result error — never an assert.
//
// Text scenarios (tools/scenarios/*.toml) are a minimal INI/TOML subset —
// `[section]` headers and `key = value` lines, '#' comments — parsed with
// no external dependencies.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "netsim/fabric.hpp"
#include "netsim/link.hpp"
#include "netsim/switch.hpp"
#include "stack/host.hpp"

namespace smt::stack {

/// Shape of the network (netsim/fabric.hpp). The degenerate default
/// (1 rack x 2 hosts, no spines) is the paper's back-to-back two-host
/// topology.
using TopologySpec = sim::FabricShape;

/// Direct host<->host wiring (no switch): exactly two hosts, no fabric.
/// Every other shape hangs its hosts off ToR switches.
inline bool direct(const TopologySpec& spec) noexcept {
  return spec.racks == 1 && spec.hosts_per_rack == 2 && spec.spines == 0;
}

/// What a bench drives over the topology (carried along so scenario files
/// fully describe an experiment; the stack layer itself ignores it).
struct WorkloadSpec {
  std::string transport = "smt_hw";  // parsed by apps::parse_transport
  std::size_t request_bytes = 1024;
  std::size_t response_bytes = 64;
  std::size_t concurrency = 1;        // in-flight RPCs per client
  std::size_t ops_per_client = 16;
  std::size_t clients = 0;            // 0 = every non-server host
};

Status validate_host(const HostConfig& config);

struct ScenarioConfig {
  TopologySpec topology;
  HostConfig host;              // template; .ip is assigned per host
  /// Every link's rate and propagation; its fault profile (`[fault]`)
  /// impairs the edge links only.
  sim::LinkConfig edge_link;
  /// `[fabric_fault]`: impairments on the switch-to-switch core wires
  /// (netsim/fabric.hpp applies it to every fabric port). Needs spines.
  std::optional<sim::FaultProfile> fabric_fault;
  sim::SwitchConfig switch_config;
  WorkloadSpec workload;

  Status validate() const;

  /// Parses scenario text. Unknown sections/keys are hard errors with the
  /// offending line number, so a typo never silently runs the default.
  static Result<ScenarioConfig> parse(std::string_view text);
  static Result<ScenarioConfig> load_file(const std::string& path);
};

}  // namespace smt::stack
