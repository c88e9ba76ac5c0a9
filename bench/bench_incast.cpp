// N-to-1 incast over a Clos fabric (the topology-layer headline scenario):
// many clients spread across racks fire closed-loop RPCs at one server,
// so every request crosses the oversubscribed fabric and converges on the
// server's ToR port. Compares the paper's transports (§5) on goodput into
// the server, RPC tail latency, and switch-level trims/drops.
//
// Flags:
//   --smoke            tiny 2-rack fabric (CI)
//   --shards N         run on a ShardedEngine with N shards (default 1;
//                      results are byte-identical run-to-run per N)
//   --scenario FILE    load the topology/workload from a scenario file
//                      (tools/scenarios/*.toml) instead of the defaults;
//                      runs only the scenario's workload.transport
#include "bench_common.hpp"

#include <optional>

namespace smt::bench {
namespace {

stack::ScenarioConfig default_scenario() {
  stack::ScenarioConfig scenario;
  if (smoke()) {
    scenario.topology.racks = 2;
    scenario.topology.hosts_per_rack = 4;
    scenario.topology.spines = 2;
    scenario.workload.clients = 4;
    scenario.workload.ops_per_client = 8;
  } else {
    scenario.topology.racks = 8;
    scenario.topology.hosts_per_rack = 16;
    scenario.topology.spines = 4;
    scenario.topology.aggs_per_pod = 2;
    scenario.topology.racks_per_pod = 4;
    scenario.topology.oversubscription = 4.0;
    scenario.workload.clients = 32;
    scenario.workload.ops_per_client = 16;
  }
  // Modest hosts: the bench scales by fan-in, not by per-host parallelism.
  scenario.host.app_cores = 2;
  scenario.host.softirq_cores = 2;
  scenario.workload.request_bytes = 16 * 1024;  // the congesting direction
  scenario.workload.response_bytes = 64;
  scenario.workload.concurrency = 2;
  return scenario;
}

/// Client hosts round-robined across racks (offset-major), so fan-in
/// always crosses the fabric instead of clustering under the server's ToR.
std::vector<std::size_t> pick_clients(const stack::TopologySpec& topology,
                                      std::size_t server_index,
                                      std::size_t want) {
  std::vector<std::size_t> clients;
  const std::size_t hpr = topology.hosts_per_rack;
  if (want == 0) want = topology.host_count() - 1;
  for (std::size_t offset = 0; offset < hpr && clients.size() < want; ++offset) {
    for (std::size_t rack = 0; rack < topology.racks && clients.size() < want;
         ++rack) {
      const std::size_t host = rack * hpr + offset;
      if (host != server_index) clients.push_back(host);
    }
  }
  return clients;
}

struct IncastResult {
  double goodput_gbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double drops = 0;  // switch trims + drops
  std::size_t completed = 0;
};

IncastResult run_incast(const stack::ScenarioConfig& scenario,
                        TransportKind kind, std::size_t shards) {
  sim::ShardedEngine engine(shards, usec(1));
  auto built = stack::TopologyBuilder(scenario).build(engine);
  if (!built.ok()) {
    std::fprintf(stderr, "incast topology: %s\n",
                 built.error().message.c_str());
    std::abort();
  }
  auto topology = std::move(built).take();

  const std::size_t server_index = 0;
  const std::vector<std::size_t> clients =
      pick_clients(scenario.topology, server_index, scenario.workload.clients);

  RpcFabricConfig config;
  config.kind = kind;
  RpcFabric fabric(config, *topology, server_index, clients);

  const stack::WorkloadSpec& w = scenario.workload;
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = w.concurrency,
                                 .ops_per_client = w.ops_per_client,
                                 .request_bytes = w.request_bytes,
                                 .response_bytes = w.response_bytes});
  rpcs.start();
  engine.run();

  const apps::ClosedLoopResult rpc = rpcs.result();
  IncastResult result;
  result.completed = rpc.completions.size();
  const Percentiles rtt = rtt_percentiles_us(rpc);
  result.p50_us = rtt.p50;
  result.p99_us = rtt.p99;
  // Goodput INTO the server: request payload delivered over the run.
  const double bits = double(result.completed) * double(w.request_bytes) * 8.0;
  const SimTime last_completion = rpc.last_completion();
  result.goodput_gbps = last_completion > 0 ? bits / double(last_completion) : 0;
  const sim::Switch::Stats totals = topology->switch_totals();
  result.drops = double(totals.trimmed + totals.dropped);
  return result;
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  using namespace smt;
  using namespace smt::bench;
  init(argc, argv);

  std::size_t shards = 1;
  std::optional<std::string> scenario_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::size_t(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_path = argv[++i];
    }
  }
  if (shards == 0) shards = 1;

  stack::ScenarioConfig scenario;
  std::vector<TransportKind> kinds;
  if (scenario_path) {
    auto loaded = stack::ScenarioConfig::load_file(*scenario_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
      return 1;
    }
    scenario = std::move(loaded).take();
    auto kind = apps::parse_transport(scenario.workload.transport);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.error().message.c_str());
      return 1;
    }
    kinds.push_back(kind.value());
  } else {
    scenario = default_scenario();
    kinds = {TransportKind::tcp, TransportKind::ktls_hw, TransportKind::homa,
             TransportKind::smt_hw};
  }

  const std::size_t fan_in = scenario.workload.clients != 0
                                 ? scenario.workload.clients
                                 : scenario.topology.host_count() - 1;
  std::printf(
      "Incast: %zu racks x %zu hosts, %zu spines, %zu clients -> 1 server, "
      "%zu B requests, %zu shard(s)\n",
      scenario.topology.racks, scenario.topology.hosts_per_rack,
      scenario.topology.spines, fan_in, scenario.workload.request_bytes,
      shards);
  std::printf("%-10s %14s %10s %10s %10s\n", "transport", "goodput_gbps",
              "p50_us", "p99_us", "drops");

  for (const TransportKind kind : kinds) {
    const IncastResult r = run_incast(scenario, kind, shards);
    std::printf("%-10s %14.2f %10.1f %10.1f %10.0f\n",
                apps::transport_key(kind), r.goodput_gbps, r.p50_us, r.p99_us,
                r.drops);
    const std::string key = apps::transport_key(kind);
    json_metric("incast_goodput_gbps_" + key, r.goodput_gbps);
    json_metric("incast_p99_us_" + key, r.p99_us);
    json_metric("incast_drops_" + key, r.drops);
    if (kind == TransportKind::smt_hw || kinds.size() == 1) {
      // Headline keys (the smt_hw row, or the scenario's only transport).
      json_metric("incast_goodput_gbps", r.goodput_gbps);
      json_metric("incast_p99_us", r.p99_us);
      json_metric("incast_drops", r.drops);
    }
  }
  return 0;
}
