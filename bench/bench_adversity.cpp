// Adversity scenario matrix: the deterministic fault model exercised end
// to end. Each row pits one adverse condition against the paper's hardened
// transports (smt_hw / smt_sw / ktls_hw) on the two-host RPC fabric:
//
//   clean       no faults — the baseline the other rows degrade from
//   wan_loss    WAN-grade uniform loss + bounded reorder/jitter + a trickle
//               of corruption (the TCP-over-mobile-ad-hoc workload shape)
//   burst_flap  Gilbert–Elliott burst loss plus periodic link flaps. The
//               flap period (2 ms) divides TCP's 10 ms min-RTO, so without
//               RTO backoff retransmissions phase-lock into the down
//               window; with backoff + the retry cap wedged ktls
//               connections are abandoned (ETIMEDOUT) and show up as
//               completed < issued
//   nic_reset   clean wire, but the SERVER NIC resets mid-run: every TLS
//               flow context, queued descriptor, and RX frame is lost.
//               SMT re-establishes transparently through the flow-context
//               manager; ktls_hw limps back through per-record driver
//               resyncs — same completions, roughly half the goodput
//   flood       hostile short-packet flood from spoofed flows into the
//               server NIC: varied five-tuples spread across RSS rings and
//               push DIM, single-packet messages complete at the transport
//               and die in the session/replay defenses (no_session drops,
//               dedup absorption) while the real workload keeps running
//
// Reported per row: goodput over delivered payload, p50/p99 RTT, CPU
// microseconds per completed RPC, and the completion count. Every number
// is virtual-time deterministic: byte-identical run-to-run per shard count
// (the smoke run re-checks one fault row to keep that honest).
//
// A second matrix exercises FABRIC-CORE faults on a 4-rack leaf-spine
// Clos: every switch-to-switch wire carries a [fabric_fault]-style
// profile (periodic flaps with per-wire decorrelated phase plus a
// Gilbert–Elliott component), the switches run the per-port link-health
// state machine (dark after 2 consecutive fault kills, probe/restore on
// a 500 us schedule), and ECMP re-steers flows around dark paths by
// rank-preserving group shrink. The core_flood rows add an OPEN-LOOP
// arrival-process flood into the server — inter-arrival gaps are a pure
// counter function (mix_seed of the packet index), never paced by
// completion, so sweeping the mean gap walks the load right through the
// RSS/DIM saturation knee while the core is flapping.
//
// Flags:
//   --smoke     tiny iteration budget (CI); also runs the determinism
//               self-check
//   --shards N  run on a ShardedEngine with N shards (default 1; client on
//               shard 0, server on shard N-1)
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "stack/topology.hpp"

namespace smt::bench {
namespace {

struct Adversity {
  const char* name;
  sim::FaultProfile fault;
  bool reset_server_nic = false;
  bool flood = false;
};

std::vector<Adversity> scenario_matrix() {
  std::vector<Adversity> rows;
  rows.push_back({"clean", {}, false, false});

  sim::FaultProfile wan;
  wan.good_loss_rate = 0.01;  // uniform 1% via the GE good state
  wan.p_bad_to_good = 1.0;
  wan.reorder_rate = 0.1;
  wan.reorder_jitter = usec(50);
  wan.corrupt_rate = 0.001;
  wan.seed = 11;
  rows.push_back({"wan_loss", wan, false, false});

  sim::FaultProfile burst;
  burst.p_good_to_bad = 0.01;
  burst.p_bad_to_good = 0.1;
  burst.bad_loss_rate = 0.5;
  burst.flap_period = msec(2);
  burst.flap_down = usec(200);
  burst.flap_offset = usec(500);
  burst.seed = 12;
  rows.push_back({"burst_flap", burst, false, false});

  rows.push_back({"nic_reset", {}, true, false});
  rows.push_back({"flood", {}, false, true});
  return rows;
}

struct RowResult {
  double goodput_gbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_rpc = 0;
  std::size_t completed = 0;
  std::size_t issued = 0;
  // The whole run, for the smoke determinism self-check.
  apps::ClosedLoopResult rpc;
  stack::Topology::Counters counters;
};

/// Goodput over delivered request + response payload, RTT percentiles and
/// CPU per completed RPC (both hosts' busy and IRQ time).
RowResult summarize(RpcFabric& fabric, const apps::ClosedLoopResult& rpc,
                    std::size_t bytes_per_rpc) {
  RowResult result;
  result.rpc = rpc;
  result.counters = fabric.topology().counters();
  result.issued = rpc.issued;
  result.completed = rpc.completions.size();
  const Percentiles rtt = rtt_percentiles_us(rpc);
  result.p50_us = rtt.p50;
  result.p99_us = rtt.p99;
  const double bits = double(result.completed) * double(bytes_per_rpc) * 8.0;
  const SimTime last_completion = rpc.last_completion();
  result.goodput_gbps =
      last_completion > 0 ? bits / double(last_completion) : 0;
  const double cpu_ns = double(fabric.client_busy_ns()) +
                        double(fabric.server_busy_ns()) +
                        double(fabric.client_irq_ns()) +
                        double(fabric.server_irq_ns());
  result.cpu_us_per_rpc =
      result.completed > 0 ? cpu_ns / 1e3 / double(result.completed) : 0;
  return result;
}

/// Spoofed short-packet flood into the server NIC: `count` single-packet
/// smt-proto messages, one every 500 ns starting at t0, from rotating
/// never-registered five-tuples (plus every 8th a REPLAY of the real
/// client's message 0 — absorbed by the transport dedup / replay filter).
/// Injected on the server's shard, so multi-shard runs stay deterministic.
void schedule_flood(RpcFabric& fabric, std::size_t count, SimTime t0) {
  stack::Host& server = fabric.server_host();
  for (std::size_t k = 0; k < count; ++k) {
    server.loop().schedule_at(t0 + SimTime(k) * 500, [&server, k] {
      sim::Packet pkt;
      const bool replay = k % 8 == 7;
      pkt.hdr.set_flow(sim::FiveTuple{
          replay ? 1u : 1000u + std::uint32_t(k % 32), server.ip(),
          replay ? std::uint16_t(1000) : std::uint16_t(20000 + k % 97),
          std::uint16_t(80), sim::Proto::smt});
      pkt.hdr.type = sim::PacketType::data;
      pkt.hdr.msg_id = replay ? 0 : 1 + k;
      pkt.hdr.msg_len = 64;
      pkt.hdr.ip_id = std::uint16_t(k);
      pkt.hdr.ipid_base = std::uint16_t(k);
      pkt.payload.assign(64, 0xee);
      server.nic().receive(std::move(pkt));
    });
  }
}

RowResult run_row(const Adversity& row, TransportKind kind,
                  std::size_t shards) {
  RpcFabricConfig config;
  config.kind = kind;
  config.link.propagation = usec(1);
  config.link.fault = row.fault;

  sim::ShardedEngine engine(shards, usec(1));
  RpcFabric fabric(config, engine, 0, shards - 1);

  // One client host: its 8 channels share the whole op budget.
  const std::size_t request_bytes = 2048;
  const std::size_t response_bytes = 512;
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = 8,
                                 .ops_per_client = smoke() ? 120u : 2000u,
                                 .request_bytes = request_bytes,
                                 .response_bytes = response_bytes});

  if (row.reset_server_nic) {
    // Two resets while traffic is in flight. Scheduled on the server's
    // own loop (its shard), from outside any NIC delivery callback.
    fabric.server_host().loop().schedule_at(
        usec(100), [&] { fabric.server_host().reset_nic(); });
    fabric.server_host().loop().schedule_at(
        usec(250), [&] { fabric.server_host().reset_nic(); });
  }
  if (row.flood) {
    schedule_flood(fabric, smoke() ? 200 : 5000, usec(20));
  }

  rpcs.start();
  engine.run();
  return summarize(fabric, rpcs.result(), request_bytes + response_bytes);
}

// ---------------------------------------------------------------------------
// Fabric-core fault matrix.

/// OPEN-LOOP arrival-process flood: unlike schedule_flood's fixed 500 ns
/// slots, inter-arrival gaps are drawn per packet from a deterministic
/// counter-based process — gap_k = mean/2 + mix_seed(seed, k) % mean,
/// uniform in [mean/2, 3*mean/2) with no RNG state — and arrivals are
/// never paced by completion: the injector keeps pushing at the
/// configured mean rate however far behind the receiver falls, which is
/// what exposes the RSS/DIM saturation knee. All arrival times are
/// precomputed on the server's shard before run().
void schedule_open_loop_flood(RpcFabric& fabric, std::size_t count,
                              SimTime t0, SimDuration mean_gap,
                              std::uint64_t seed) {
  stack::Host& server = fabric.server_host();
  SimTime when = t0;
  for (std::size_t k = 0; k < count; ++k) {
    when += mean_gap / 2 +
            SimDuration(mix_seed(seed, k) % std::uint64_t(mean_gap));
    server.loop().schedule_at(when, [&server, k] {
      sim::Packet pkt;
      pkt.hdr.set_flow(sim::FiveTuple{
          2000u + std::uint32_t(k % 64), server.ip(),
          std::uint16_t(30000 + k % 113), std::uint16_t(80),
          sim::Proto::smt});
      pkt.hdr.type = sim::PacketType::data;
      pkt.hdr.msg_id = 1 + k;
      pkt.hdr.msg_len = 64;
      pkt.hdr.ip_id = std::uint16_t(k);
      pkt.hdr.ipid_base = std::uint16_t(k);
      pkt.payload.assign(64, 0xee);
      server.nic().receive(std::move(pkt));
    });
  }
}

struct CoreRow {
  std::string name;
  SimDuration flood_gap = 0;  // 0 = no flood; else mean inter-arrival
};

/// The flapping-core scenario: 4 racks x 2 hosts over 2 spines, health
/// state machine on, every fabric wire flapping (decorrelated phases)
/// with a Gilbert–Elliott component so both dark triggers fire.
stack::ScenarioConfig core_scenario() {
  stack::ScenarioConfig scenario;
  scenario.topology.racks = 4;
  scenario.topology.hosts_per_rack = 2;
  scenario.topology.spines = 2;
  scenario.host.app_cores = 2;
  scenario.host.softirq_cores = 2;
  scenario.switch_config.health_dark_threshold = 2;
  scenario.switch_config.health_probe_interval = usec(500);
  sim::FaultProfile& core = scenario.fabric_fault.emplace();
  core.flap_period = msec(2);
  core.flap_down = usec(300);
  core.p_good_to_bad = 0.005;
  core.p_bad_to_good = 0.05;
  core.bad_loss_rate = 0.5;
  core.seed = 21;
  scenario.workload.request_bytes = 2048;
  scenario.workload.response_bytes = 512;
  scenario.workload.concurrency = 2;
  scenario.workload.clients = 4;
  scenario.workload.ops_per_client = smoke() ? 15 : 250;
  return scenario;
}

RowResult run_core_row(const CoreRow& core, TransportKind kind,
                       std::size_t shards) {
  const stack::ScenarioConfig scenario = core_scenario();
  sim::ShardedEngine engine(shards, usec(1));
  auto built = stack::TopologyBuilder(scenario).build(engine);
  if (!built.ok()) {
    std::fprintf(stderr, "corefault topology: %s\n",
                 built.error().message.c_str());
    std::abort();
  }
  auto topology = std::move(built).take();

  // Server on rack 0; clients offset-major across the OTHER racks so
  // every RPC crosses the flapping core.
  const std::size_t server_index = 0;
  std::vector<std::size_t> clients;
  const stack::TopologySpec& t = scenario.topology;
  for (std::size_t offset = 0;
       offset < t.hosts_per_rack && clients.size() < scenario.workload.clients;
       ++offset) {
    for (std::size_t rack = 1;
         rack < t.racks && clients.size() < scenario.workload.clients;
         ++rack) {
      clients.push_back(rack * t.hosts_per_rack + offset);
    }
  }

  RpcFabricConfig config;
  config.kind = kind;
  RpcFabric fabric(config, *topology, server_index, clients);

  const stack::WorkloadSpec& w = scenario.workload;
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = w.concurrency,
                                 .ops_per_client = w.ops_per_client,
                                 .request_bytes = w.request_bytes,
                                 .response_bytes = w.response_bytes});

  if (core.flood_gap > 0) {
    schedule_open_loop_flood(fabric, smoke() ? 200 : 5000, usec(20),
                             core.flood_gap, /*seed=*/31);
  }

  rpcs.start();
  engine.run();
  return summarize(fabric, rpcs.result(), w.request_bytes + w.response_bytes);
}

std::vector<CoreRow> core_matrix() {
  std::vector<CoreRow> rows;
  rows.push_back({"core_flap", 0});
  if (smoke()) {
    rows.push_back({"core_flood_g500", nsec(500)});
  } else {
    // Sweep the open-loop arrival rate through the RSS/DIM knee.
    rows.push_back({"core_flood_g1000", nsec(1000)});
    rows.push_back({"core_flood_g500", nsec(500)});
    rows.push_back({"core_flood_g250", nsec(250)});
  }
  return rows;
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  using namespace smt;
  using namespace smt::bench;
  init(argc, argv);

  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::size_t(std::atoi(argv[++i]));
    }
  }
  if (shards == 0) shards = 1;

  const std::vector<TransportKind> kinds = {
      TransportKind::smt_hw, TransportKind::smt_sw, TransportKind::ktls_hw};
  const std::vector<Adversity> rows = scenario_matrix();

  std::printf("Adversity matrix: 2-host RPC fabric, 2048 B req / 512 B resp, "
              "%zu shard(s)\n", shards);
  std::printf("%-12s %-8s %13s %9s %9s %12s %10s\n", "scenario", "transport",
              "goodput_gbps", "p50_us", "p99_us", "cpu_us_rpc", "completed");

  for (const Adversity& row : rows) {
    for (const TransportKind kind : kinds) {
      const RowResult r = run_row(row, kind, shards);
      std::printf("%-12s %-8s %13.3f %9.1f %9.1f %12.2f %7zu/%zu\n", row.name,
                  apps::transport_key(kind), r.goodput_gbps, r.p50_us,
                  r.p99_us, r.cpu_us_per_rpc, r.completed, r.issued);
      const std::string key =
          std::string(row.name) + "_" + apps::transport_key(kind);
      json_metric("adversity_goodput_gbps_" + key, r.goodput_gbps);
      json_metric("adversity_p99_us_" + key, r.p99_us);
      json_metric("adversity_cpu_us_per_rpc_" + key, r.cpu_us_per_rpc);
      json_metric("adversity_completed_" + key, double(r.completed));
    }
  }
  // ---- Fabric-core fault matrix --------------------------------------
  const std::vector<CoreRow> core_rows = core_matrix();
  std::printf("\nCore-fault matrix: 4-rack leaf-spine Clos, flapping core "
              "wires, dark-path re-steering, %zu shard(s)\n", shards);
  std::printf("%-16s %-8s %13s %9s %11s %6s %8s %9s\n", "scenario",
              "transport", "goodput_gbps", "p99_us", "completed", "dark",
              "resteer", "darkdrop");
  std::uint64_t corefault_resteered_total = 0;
  for (const CoreRow& row : core_rows) {
    for (const TransportKind kind : kinds) {
      const RowResult r = run_core_row(row, kind, shards);
      const sim::Switch::Stats& s = r.counters.switch_totals;
      corefault_resteered_total += s.resteered_flows;
      std::printf("%-16s %-8s %13.3f %9.1f %8zu/%zu %6llu %8llu %9llu\n",
                  row.name.c_str(), apps::transport_key(kind),
                  r.goodput_gbps, r.p99_us, r.completed, r.issued,
                  static_cast<unsigned long long>(s.dark_transitions),
                  static_cast<unsigned long long>(s.resteered_flows),
                  static_cast<unsigned long long>(s.dropped_dark));
      const std::string key = row.name + "_" + apps::transport_key(kind);
      json_metric("corefault_goodput_gbps_" + key, r.goodput_gbps);
      json_metric("corefault_p99_us_" + key, r.p99_us);
      json_metric("corefault_completed_" + key, double(r.completed));
      json_metric("corefault_dark_transitions_" + key,
                  double(s.dark_transitions));
      json_metric("corefault_resteered_" + key, double(s.resteered_flows));
      json_metric("corefault_dropped_dark_" + key, double(s.dropped_dark));
    }
  }
  if (corefault_resteered_total == 0) {
    // The whole point of the matrix is the re-steering path; a core-fault
    // run that never re-steers means the health machine or the group
    // shrink regressed. Hard-fail so CI catches it.
    std::fprintf(stderr,
                 "CORE-FAULT FAILURE: no flows were re-steered around dark "
                 "paths across the whole matrix\n");
    return 1;
  }

  if (smoke()) {
    // Determinism self-check: the nastiest link-fault row and the core-flap
    // row must replay byte-identically run-to-run at this shard count, every
    // RPC completion and every counter of the topology alike.
    const std::pair<const char*, std::function<RowResult()>> checks[] = {
        {"burst_flap",
         [&] { return run_row(rows[2], TransportKind::smt_hw, shards); }},
        {"core_flap", [&] {
           return run_core_row(core_rows[0], TransportKind::smt_hw, shards);
         }}};
    for (const auto& [name, run] : checks) {
      const RowResult a = run();
      const RowResult b = run();
      if (a.rpc != b.rpc || a.counters != b.counters) {
        std::fprintf(stderr,
                     "DETERMINISM FAILURE: %s smt_hw diverged run-to-run at "
                     "%zu shard(s)\n", name, shards);
        return 1;
      }
      std::printf("determinism self-check: %s x smt_hw byte-identical "
                  "run-to-run at %zu shard(s)\n", name, shards);
    }
  }
  return 0;
}
