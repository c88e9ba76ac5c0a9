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
// One validation path: every constructor route (fluent TopologyBuilder,
// RpcFabricConfig conversion, text scenario files) funnels through the
// validate_* functions here (plus sim::validate for the netsim types) and
// reports misconfiguration as a common::Result error — never an assert.
//
// Text scenarios (tools/scenarios/*.toml) are a minimal INI/TOML subset —
// `[section]` headers and `key = value` lines, '#' comments — parsed with
// no external dependencies.
#pragma once

#include <string>
#include <string_view>

#include "common/result.hpp"
#include "netsim/link.hpp"
#include "netsim/switch.hpp"
#include "stack/host.hpp"

namespace smt::stack {

/// Shape of the network. The degenerate default (1 rack x 2 hosts, no
/// spines) is the paper's back-to-back two-host topology.
struct TopologySpec {
  std::size_t racks = 1;
  std::size_t hosts_per_rack = 2;
  std::size_t spines = 0;         // 0 = no fabric tier
  std::size_t aggs_per_pod = 0;   // 0 = 2-tier leaf-spine when spines > 0
  std::size_t racks_per_pod = 0;  // 0 = one pod
  double oversubscription = 0.0;  // 0 = off (see netsim/fabric.hpp)

  std::size_t host_count() const noexcept { return racks * hosts_per_rack; }
  /// Direct host<->host wiring (no switch): exactly two hosts, no fabric.
  /// Every other shape hangs its hosts off ToR switches.
  bool direct() const noexcept {
    return racks == 1 && hosts_per_rack == 2 && spines == 0;
  }
};

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

Status validate_topology(const TopologySpec& spec);
Status validate_host(const HostConfig& config);
/// Link checks; the edge `[fault]` profile goes through sim::validate.
Status validate_link(const sim::LinkConfig& config);
Status validate_workload(const WorkloadSpec& spec);

struct ScenarioConfig {
  TopologySpec topology;
  HostConfig host;              // template; .ip is assigned per host
  /// Every link's rate and propagation; its fault profile (`[fault]`)
  /// impairs the edge links only.
  sim::LinkConfig edge_link;
  /// `[fabric_fault]`: impairments on the switch-to-switch core wires
  /// (netsim/fabric.hpp applies it to every fabric port).
  sim::FaultProfile fabric_fault;
  bool fabric_fault_set = false;
  sim::SwitchConfig switch_config;
  WorkloadSpec workload;

  Status validate() const;

  /// Parses scenario text. Unknown sections/keys are hard errors with the
  /// offending line number, so a typo never silently runs the default.
  static Result<ScenarioConfig> parse(std::string_view text);
  static Result<ScenarioConfig> load_file(const std::string& path);
};

}  // namespace smt::stack
