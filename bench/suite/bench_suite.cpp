// bench_suite: the repository benchmark. Four fixed closed-loop workloads
// are built through the public apps::RpcFabric / stack::TopologyBuilder API
// and timed from outside; every response byte is checked. README.md in this
// directory defines the workloads, metrics, estimators and bounds.
//
//   bench_suite [--workload NAME] [--seed N] [--rounds N | --seconds S]
//               [--out FILE] [--trace FILE] [--smoke]
//
// Each rep builds a fresh topology, fabric and channels (timed as set-up),
// then runs its RPCs to completion (timed as the run). One warm-up rep per
// workload comes first; the timed rounds then run round-robin across the
// selected workloads, so a slow phase of a shared host hits all of them.
// --trace adds one rep per workload with span recording on, the layer
// replays and (incast_clos) a 1-shard rep, and prints the per-layer table.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "accounting.hpp"
#include "apps/rpc.hpp"
#include "crypto/drbg.hpp"
#include "replay.hpp"
#include "stack/topology.hpp"

namespace smt::bench::suite {
namespace {

using apps::RpcChannel;
using apps::RpcFabric;
using apps::RpcFabricConfig;
using apps::TransportKind;

struct Workload {
  const char* name;
  TransportKind kind;
  std::size_t request_bytes;
  std::size_t response_bytes;
  std::size_t clients;      // client hosts; 1 = the two-host testbed
  std::size_t outstanding;  // channels (closed-loop callers) per client
  std::size_t rpcs;         // per rep, over all clients
  std::size_t shards;
  const char* shape;        // one-line description for the report
};

// Why these four (README.md has the long form): rpc_small is bound by
// per-event and per-message overhead, rpc_large by bytes (AES-GCM, TSO,
// copies), ktls_stream drives the same NIC, crypto and event layers through
// the TCP byte-stream baseline, and incast_clos is the only workload with
// switches, ECMP, queue drops and cross-shard mailboxes. Each rep is sized
// to roughly one second of wall time on a 4-core x86-64 host.
constexpr Workload kWorkloads[] = {
    {"rpc_small", TransportKind::smt_hw, 64, 64, 1, 200, 80'000, 1,
     "smt_hw, 64 B / 64 B, 200 outstanding, two hosts back to back"},
    {"rpc_large", TransportKind::smt_hw, 65'536, 65'536, 1, 16, 3'200, 1,
     "smt_hw, 64 KiB / 64 KiB, 16 outstanding, two hosts back to back"},
    {"ktls_stream", TransportKind::ktls_hw, 1'024, 1'024, 1, 200, 48'000, 1,
     "ktls_hw over TCP, 1 KiB / 1 KiB, 200 outstanding, two hosts"},
    {"incast_clos", TransportKind::smt_hw, 16'384, 64, 32, 2, 5'120, 2,
     "smt_hw, 16 KiB / 64 B, 32 clients x 2 outstanding -> host 0, "
     "8x16 3-tier Clos, 2 shards"},
};

// RpcFabric's wire protocol (apps/rpc.hpp): request = corr(8) + resp_len(4)
// + payload, response = corr(8) + payload; stream transports prefix each
// message with a 4-byte length.
constexpr std::size_t kRequestHeader = 12;
constexpr std::size_t kResponseHeader = 8;
constexpr std::size_t kStreamFrame = 4;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool is_smt(const Workload& w) { return w.kind == TransportKind::smt_hw; }

double seconds_since(std::uint64_t start_ns) {
  return double(clock_ns() - start_ns) / 1e9;
}

// --- inputs ------------------------------------------------------------------

/// Request payloads generated from --seed: kVariants distinct byte strings
/// per workload. Each call copies one and writes its RPC id over the first
/// 8 bytes, so the program receives only seed-derived bytes and every
/// response can be checked byte for byte.
class Payloads {
 public:
  static constexpr std::size_t kVariants = 16;

  Payloads(std::uint64_t seed, const Workload& w)
      : response_bytes_(w.response_bytes) {
    crypto::HmacDrbg rng(to_bytes(std::string("bench-suite-") + w.name + "-" +
                                  std::to_string(seed)));
    for (Bytes& variant : variants_) variant = rng.generate(w.request_bytes);
  }

  Bytes request(std::uint64_t rpc_id) const {
    Bytes out = variant(rpc_id);
    store_u64be(out.data(), rpc_id);
    return out;
  }

  /// The server's reply: the first response_bytes of the request.
  Bytes echo(ByteView request) const {
    const std::size_t n = std::min(request.size(), response_bytes_);
    return Bytes(request.begin(), request.begin() + std::ptrdiff_t(n));
  }

  bool echoed(std::uint64_t rpc_id, ByteView response) const {
    const Bytes& expected = variant(rpc_id);
    return response.size() == response_bytes_ &&
           load_u64be(response.data()) == rpc_id &&
           std::equal(response.begin() + 8, response.end(),
                      expected.begin() + 8);
  }

 private:
  const Bytes& variant(std::uint64_t rpc_id) const {
    return variants_[(rpc_id ^ (rpc_id >> 32)) % kVariants];
  }

  std::size_t response_bytes_;
  std::array<Bytes, kVariants> variants_;
};

// --- one rep -----------------------------------------------------------------

struct RepResult {
  // Wall clock.
  double topology_s = 0;
  double fabric_s = 0;
  double channels_s = 0;
  double run_s = 0;  // first call through the end of engine.run()
  std::size_t worker_threads = 1;
  std::uint64_t allocs = 0;         // operator new calls in the run
  std::uint64_t engine_allocs = 0;  // ... inside engine.run() alone
  double heap_peak_mib = 0;

  // Outcome.
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;   // responses that differ from the echo
  std::uint64_t failed = 0;  // RPCs charged as failed
  std::string failure;       // first failed check; empty when all passed

  // Simulated (virtual time): identical in every rep of a workload.
  std::uint64_t events = 0;
  double sim_mrpc_per_s = 0;
  std::size_t rtt_samples = 0;
  std::size_t beyond_p99 = 0;
  std::optional<double> rtt_p50_us;
  std::optional<double> rtt_p99_us;
  double rtt_max_us = 0;
  SimTime last_completion = 0;

  // Layer counters.
  sim::NicCounters nic;  // summed over the fabric's hosts
  stack::FlowContextManager::Stats flow;
  std::uint64_t server_softirq_ns = 0;
  std::uint64_t server_app_ns = 0;
  std::uint64_t server_irq_ns = 0;
  std::uint64_t client_app_ns = 0;
  std::size_t server_softirq_cores = 0;
  std::size_t server_app_cores = 0;
  std::size_t client_app_cores = 0;
  bool switched = false;
  sim::Switch::Stats switches;
  std::size_t server_port_max_queued = 0;
  sim::ShardedEngine::Stats shard;
  double pending_mean = 0;  // traced reps: loop.pending() at completions

  void fail(std::string what) {
    if (failure.empty()) failure = std::move(what);
  }
};

struct alignas(64) ClientState {
  sim::EventLoop* loop = nullptr;
  std::size_t quota = 0;
  std::size_t issued = 0;
  std::uint64_t wrong = 0;
  std::vector<std::pair<SimTime, SimDuration>> done;  // (completed at, RTT)
  double pending_sum = 0;
};

struct RepContext {
  const Workload* workload = nullptr;
  const Payloads* payloads = nullptr;
  bool traced = false;
  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::int64_t> heap_peak{0};

  void sample_heap() {
    const std::int64_t now = heap_in_use_bytes();
    std::int64_t seen = heap_peak.load(std::memory_order_relaxed);
    while (now > seen && !heap_peak.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }
};

/// One closed-loop caller: a channel with at most one RPC in flight. A
/// slot is touched only by its client host's shard thread.
struct alignas(64) Slot {
  RepContext* rep = nullptr;
  RpcChannel* channel = nullptr;
  ClientState* client = nullptr;
  std::uint64_t id_base = 0;  // (slot index + 1) << 32: no RPC id is 0
  std::uint64_t next_seq = 0;
  std::uint64_t current = 0;  // id of the RPC in flight
};

void issue(Slot& slot);

void complete(Slot& slot, SimDuration rtt, Bytes response) {
  SpanScope span("apps.done", slot.current);
  ClientState& client = *slot.client;
  RepContext& rep = *slot.rep;
  if (!rep.payloads->echoed(slot.current, response)) ++client.wrong;
  client.done.emplace_back(client.loop->now(), rtt);
  if (rep.traced) client.pending_sum += double(client.loop->pending());
  if (rep.completions.fetch_add(1, std::memory_order_relaxed) % 256 == 255) {
    rep.sample_heap();
  }
  issue(slot);
}

void issue(Slot& slot) {
  ClientState& client = *slot.client;
  if (client.issued == client.quota) return;
  ++client.issued;
  slot.current = slot.id_base | slot.next_seq++;
  Bytes request = slot.rep->payloads->request(slot.current);
  SpanScope span("apps.call", slot.current);
  slot.channel->call(std::move(request),
                     std::uint32_t(slot.rep->workload->response_bytes),
                     [&slot](SimDuration rtt, Bytes response) {
                       complete(slot, rtt, std::move(response));
                     });
}

/// Client hosts round-robined across racks (offset-major), skipping the
/// server, so the fan-in always crosses the fabric.
std::vector<std::size_t> pick_clients(const stack::TopologySpec& spec,
                                      std::size_t server, std::size_t want) {
  std::vector<std::size_t> clients;
  for (std::size_t offset = 0; offset < spec.hosts_per_rack; ++offset) {
    for (std::size_t rack = 0; rack < spec.racks; ++rack) {
      const std::size_t host = rack * spec.hosts_per_rack + offset;
      if (host != server && clients.size() < want) clients.push_back(host);
    }
  }
  return clients;
}

std::unique_ptr<stack::Topology> build_topology(const Workload& w,
                                                const RpcFabricConfig& config,
                                                sim::ShardedEngine& engine) {
  Result<std::unique_ptr<stack::Topology>> built = [&] {
    if (w.clients == 1) {
      // The paper's two-host testbed, wired as RpcFabric's two-host
      // constructor wires it: host 0 = client, host 1 = server.
      stack::TopologyBuilder builder(apps::to_scenario(config));
      builder.host_config(
          0, apps::host_config_of(config, config.client_app_cores));
      builder.host_config(
          1, apps::host_config_of(config, config.server_app_cores));
      return builder.build(engine);
    }
    // The incast_128 scenario's shape: 8 racks x 16 hosts, 2 aggs per
    // 4-rack pod, 4 spines, 4:1 oversubscribed, 2+2-core hosts.
    stack::ScenarioConfig scenario;
    scenario.topology.racks = 8;
    scenario.topology.hosts_per_rack = 16;
    scenario.topology.spines = 4;
    scenario.topology.aggs_per_pod = 2;
    scenario.topology.racks_per_pod = 4;
    scenario.topology.oversubscription = 4.0;
    scenario.host.app_cores = 2;
    scenario.host.softirq_cores = 2;
    return stack::TopologyBuilder(scenario).build(engine);
  }();
  if (!built.ok()) {
    std::fprintf(stderr, "bench_suite: %s topology: %s\n", w.name,
                 built.error().message.c_str());
    std::exit(1);
  }
  return std::move(built).take();
}

/// Whole-run checks and the simulated results of one finished rep.
void finish_rep(std::size_t rpcs, RpcFabric& fabric,
                stack::Topology& topology, std::size_t server,
                std::vector<ClientState>& clients, RepResult& r) {
  std::vector<std::pair<SimTime, SimDuration>> done;
  done.reserve(rpcs);
  double pending_sum = 0;
  for (const ClientState& c : clients) {
    r.issued += c.issued;
    r.completed += c.done.size();
    r.wrong += c.wrong;
    pending_sum += c.pending_sum;
    done.insert(done.end(), c.done.begin(), c.done.end());
  }
  if (r.wrong > 0) {
    r.fail(std::to_string(r.wrong) + " responses differ from the echoed "
                                     "request bytes");
  }
  if (r.issued != rpcs || r.completed != rpcs) {
    r.fail(std::to_string(r.completed) + " of " + std::to_string(rpcs) +
           " RPCs completed (" + std::to_string(r.issued) + " issued)");
  }
  r.failed = (rpcs - std::min<std::uint64_t>(rpcs, r.completed)) + r.wrong;

  std::vector<stack::Host*> hosts;
  for (std::size_t i = 0; i < fabric.client_count(); ++i) {
    hosts.push_back(&fabric.client_host(i));
  }
  hosts.push_back(&fabric.server_host());
  for (stack::Host* host : hosts) {
    const sim::NicCounters& n = host->nic().counters();
    if (n.out_of_sequence_records != 0 || n.context_alloc_failures != 0) {
      r.fail("host ip " + std::to_string(host->ip()) + ": " +
             std::to_string(n.out_of_sequence_records) +
             " out-of-sequence records, " +
             std::to_string(n.context_alloc_failures) +
             " context allocation failures");
    }
    r.nic.segments += n.segments;
    r.nic.packets += n.packets;
    r.nic.resyncs += n.resyncs;
    r.nic.records_encrypted += n.records_encrypted;
    r.nic.context_misses += n.context_misses;
    r.nic.doorbells += n.doorbells;
    r.nic.rx_frames += n.rx_frames;
    r.nic.rx_interrupts += n.rx_interrupts;
    r.nic.rx_dropped += n.rx_dropped;
    const auto& f = host->flow_contexts().stats();
    r.flow.misses += f.misses;
    r.flow.evictions += f.evictions;
  }
  // A rep that fails a whole-run check charges every RPC it issued.
  if (!r.failure.empty() && r.failed == 0) r.failed = rpcs;

  stack::Host& srv = fabric.server_host();
  r.server_softirq_ns = srv.total_softirq_busy_ns();
  r.server_app_ns = srv.total_app_busy_ns();
  r.server_irq_ns = srv.total_irq_busy_ns();
  r.server_softirq_cores = srv.softirq_core_count();
  r.server_app_cores = srv.app_core_count();
  for (std::size_t i = 0; i < fabric.client_count(); ++i) {
    r.client_app_ns += fabric.client_host(i).total_app_busy_ns();
    r.client_app_cores += fabric.client_host(i).app_core_count();
  }
  if (sim::Fabric* switches = topology.fabric()) {
    r.switched = true;
    r.switches = topology.switch_totals();
    sim::PacketHeader to_server;
    to_server.flow.dst_ip = topology.ip_of(server);
    sim::Switch& tor = switches->tor(switches->rack_of_host(server));
    const std::size_t port = tor.route_port(to_server);
    if (port != sim::Switch::kNoRoute) {
      r.server_port_max_queued = tor.port_stats(port).max_queued_bytes;
    }
  }
  r.pending_mean = done.empty() ? 0 : pending_sum / double(done.size());

  // Simulated results after warm-up: the first 10% of completions (in
  // virtual time) are dropped, the rate is taken over the rest.
  if (done.size() < 2) return;
  std::sort(done.begin(), done.end());
  const std::size_t warm = std::max<std::size_t>(1, done.size() / 10);
  const SimTime from = done[warm - 1].first;
  r.last_completion = done.back().first;
  if (r.last_completion > from) {
    r.sim_mrpc_per_s = double(done.size() - warm) * 1e3 /
                       double(r.last_completion - from);
  }
  PercentileRecorder rtts;
  for (std::size_t i = warm; i < done.size(); ++i) {
    rtts.add(to_usec(done[i].second));
  }
  r.rtt_samples = rtts.count();
  r.beyond_p99 = rtts.beyond(0.99);
  r.rtt_p50_us = rtts.percentile(0.50);
  r.rtt_p99_us = rtts.percentile(0.99);
  r.rtt_max_us = rtts.max().value_or(0);
}

RepResult run_rep(const Workload& w, const Payloads& payloads,
                  std::size_t rpcs, std::size_t shards, bool traced) {
  RepResult r;
  RepContext rep;
  rep.workload = &w;
  rep.payloads = &payloads;
  rep.traced = traced;
  std::vector<ClientState> clients(w.clients);
  for (ClientState& c : clients) {
    c.quota = rpcs / w.clients;
    c.done.reserve(c.quota);
  }
  std::vector<Slot> slots(w.clients * w.outstanding);
  const std::int64_t heap_base = heap_in_use_bytes();
  rep.heap_peak = heap_base;

  RpcFabricConfig config;
  config.kind = w.kind;
  std::unique_ptr<sim::ShardedEngine> engine;
  std::unique_ptr<stack::Topology> topology;
  std::unique_ptr<RpcFabric> fabric;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  const std::size_t server = w.clients == 1 ? 1 : 0;

  std::uint64_t lap = clock_ns();
  {
    SpanScope span("setup.topology");
    engine = std::make_unique<sim::ShardedEngine>(shards, usec(1));
    topology = build_topology(w, config, *engine);
  }
  r.topology_s = seconds_since(lap);
  lap = clock_ns();
  {
    SpanScope span("setup.fabric");
    const std::vector<std::size_t> client_hosts =
        w.clients == 1
            ? std::vector<std::size_t>{0}
            : pick_clients(topology->scenario().topology, server, w.clients);
    fabric = std::make_unique<RpcFabric>(config, *topology, server,
                                         client_hosts);
    fabric->set_handler([&payloads](ByteView request) {
      SpanScope handler_span("apps.handler", load_u64be(request.data()));
      return apps::RpcReply{payloads.echo(request), 0};
    });
  }
  r.fabric_s = seconds_since(lap);
  lap = clock_ns();
  {
    SpanScope span("setup.channels");
    for (std::size_t c = 0; c < w.clients; ++c) {
      for (std::size_t k = 0; k < w.outstanding; ++k) {
        channels.push_back(fabric->make_channel(c, k));
      }
    }
  }
  r.channels_s = seconds_since(lap);

  for (std::size_t c = 0; c < w.clients; ++c) {
    clients[c].loop = &fabric->client_host(c).loop();
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].rep = &rep;
    slots[i].channel = channels[i].get();
    slots[i].client = &clients[i / w.outstanding];
    slots[i].id_base = std::uint64_t(i + 1) << 32;
  }

  const std::uint64_t allocs_before = total_allocs();
  const std::uint64_t run_start = clock_ns();
  for (Slot& slot : slots) issue(slot);
  const std::uint64_t engine_allocs_before = total_allocs();
  {
    SpanScope span("engine.run");
    r.events = engine->run();
  }
  r.run_s = seconds_since(run_start);
  r.engine_allocs = total_allocs() - engine_allocs_before;
  r.allocs = total_allocs() - allocs_before;
  rep.sample_heap();
  r.heap_peak_mib = double(rep.heap_peak.load() - heap_base) / kMiB;
  // ShardedEngine::run sizes its worker pool the same way.
  const std::size_t hw = std::thread::hardware_concurrency();
  r.worker_threads = shards == 1 ? 1 : std::min(shards, hw == 0 ? shards : hw);
  r.shard = engine->stats();

  finish_rep(rpcs, *fabric, *topology, server, clients, r);
  return r;
}

/// The simulated results every rep of a workload must reproduce exactly.
bool same_simulation(const RepResult& a, const RepResult& b) {
  return a.events == b.events && a.completed == b.completed &&
         a.sim_mrpc_per_s == b.sim_mrpc_per_s &&
         a.rtt_samples == b.rtt_samples && a.rtt_p50_us == b.rtt_p50_us &&
         a.rtt_p99_us == b.rtt_p99_us &&
         a.last_completion == b.last_completion;
}

// --- statistics --------------------------------------------------------------

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Python's statistics.quantiles(values, n=4) ("exclusive" method), so the
/// printed spread matches compare.py.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 0) return {kNaN, kNaN, kNaN};
  if (ld == 1) return {v[0], v[0], v[0]};
  const auto cut = [&](std::size_t i) {
    const std::size_t m = ld + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const double delta = double(i * m) - double(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

template <typename F>
std::vector<double> collect(const std::vector<RepResult>& reps, F&& field) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(field(r));
  return out;
}

template <typename F>
double median_of(const std::vector<RepResult>& reps, F&& field) {
  return quartiles(collect(reps, field)).median;
}

double rpc_rate(const RepResult& r) { return double(r.completed) / r.run_s; }
double best_rate(const std::vector<RepResult>& reps) {
  const std::vector<double> rates = collect(reps, rpc_rate);
  return *std::max_element(rates.begin(), rates.end());
}
double setup_s(const RepResult& r) {
  return r.topology_s + r.fabric_s + r.channels_s;
}

// --- spans -------------------------------------------------------------------

struct SpanTotals {
  double call_ns = 0;
  double call_allocs = 0;
  double handler_ns = 0;
  double done_self_ns = 0;     // apps.done minus the apps.call it issues
  double apps_outer_ns = 0;    // apps spans not nested in another apps span
  double apps_outer_allocs = 0;
  double run_ns = 0;           // the engine.run span
};

SpanTotals aggregate_spans(std::uint32_t phase) {
  SpanTotals t;
  std::uint64_t run_start = std::numeric_limits<std::uint64_t>::max();
  for (const auto& buffer : span_buffers()) {
    for (const Span& s : buffer->spans) {
      if (s.phase == phase && std::string_view(s.name) == "engine.run") {
        run_start = s.start_ns;
        t.run_ns = double(s.end_ns - s.start_ns);
      }
    }
  }
  for (const auto& buffer : span_buffers()) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.phase == phase && s.parent >= 0) {
        child_ns[std::size_t(s.parent)] += double(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string_view name(s.name);
      if (s.phase != phase || !name.starts_with("apps.")) continue;
      const double ns = double(s.end_ns - s.start_ns);
      if (name == "apps.call") {
        t.call_ns += ns;
        t.call_allocs += double(s.allocs);
      } else if (name == "apps.handler") {
        t.handler_ns += ns;
      } else if (name == "apps.done") {
        t.done_self_ns += ns - child_ns[i];
      }
      const bool nested =
          s.parent >= 0 && std::string_view(spans[std::size_t(s.parent)].name)
                               .starts_with("apps.");
      if (!nested && s.start_ns >= run_start) {
        t.apps_outer_ns += ns;
        t.apps_outer_allocs += double(s.allocs);
      }
    }
  }
  return t;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::string detail;
};

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  std::printf("  %-40s %16s  %-15s %s\n", "metric", "value", "unit", "detail");
  for (const Metric& m : metrics) {
    if (std::isnan(m.value)) {
      std::printf("  %-40s %16s  %-15s %s\n", m.name.c_str(), "n/a", m.unit,
                  m.detail.c_str());
    } else {
      std::printf("  %-40s %16.6g  %-15s %s\n", m.name.c_str(), m.value,
                  m.unit, m.detail.c_str());
    }
  }
}

void write_json_object(std::FILE* out, const std::vector<Metric>& metrics) {
  std::fprintf(out, "{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\": ", i == 0 ? "" : ", ",
                 metrics[i].name.c_str());
    if (std::isfinite(metrics[i].value)) {
      std::fprintf(out, "%.17g", metrics[i].value);
    } else {
      std::fprintf(out, "null");
    }
  }
  std::fprintf(out, "}");
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// --- the suite ---------------------------------------------------------------

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  std::size_t rounds = 7;
  double seconds = 0;  // > 0: timed rounds until this much wall time
  std::string out;
  std::string trace;
  bool smoke = false;
};

/// Timed rounds under --seconds never drop below this, so the best-of and
/// the quartiles always have several reps behind them.
constexpr std::size_t kMinRounds = 3;

struct WorkloadRun {
  const Workload* w = nullptr;
  std::unique_ptr<Payloads> payloads;
  std::size_t rpcs = 0;
  RepResult reference;  // the warm-up rep
  std::vector<RepResult> reps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failure;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;

  /// Books one rep's outcome; a rep that does not reproduce the warm-up
  /// rep's simulated results fails (tracing must not change them either).
  void account(RepResult& r, bool check_determinism) {
    if (check_determinism && !same_simulation(reference, r)) {
      r.fail("simulated results differ from the warm-up rep (events " +
             std::to_string(r.events) + " vs " +
             std::to_string(reference.events) + ")");
      r.failed = rpcs;
    }
    attempted += rpcs;
    failed += r.failed;
    if (failure.empty() && !r.failure.empty()) failure = r.failure;
  }
};

std::vector<Metric> end_to_end_metrics(const WorkloadRun& run) {
  const std::vector<RepResult>& reps = run.reps;
  const std::vector<double> rates = collect(reps, rpc_rate);
  const std::vector<double> setups = collect(reps, setup_s);
  const Quartiles rate_q = quartiles(rates);
  const Quartiles setup_q = quartiles(setups);
  const RepResult& ref = run.reference;
  const double n = double(reps.size());
  std::vector<Metric> m;
  m.push_back({"rpc_per_wall_s", best_rate(reps), "rpc/s",
               fmt("best of %.0f; median %.6g [q1 %.6g", n, rate_q.median,
                   rate_q.q1) +
                   fmt(", q3 %.6g]", rate_q.q3)});
  m.push_back({"setup_s", setup_q.median, "s",
               fmt("median of %.0f; min %.6g", n,
                   *std::min_element(setups.begin(), setups.end()))});
  m.push_back({"allocs_per_rpc", median_of(reps, [](const RepResult& r) {
                 return double(r.allocs) / double(r.completed);
               }),
               "count", "median over reps"});
  m.push_back({"heap_peak_mib",
               median_of(reps,
                         [](const RepResult& r) { return r.heap_peak_mib; }),
               "MiB", "median over reps"});
  m.push_back({"sim_mrpc_per_s", ref.sim_mrpc_per_s, "Mrpc/virtual_s",
               "after the first 10% of completions"});
  m.push_back({"sim_rtt_p50_us", ref.rtt_p50_us.value_or(kNaN), "virtual_us",
               fmt("%.0f samples", double(ref.rtt_samples))});
  m.push_back({"sim_rtt_p99_us", ref.rtt_p99_us.value_or(kNaN), "virtual_us",
               fmt("%.0f samples, %.0f beyond; max %.6g",
                   double(ref.rtt_samples), double(ref.beyond_p99),
                   ref.rtt_max_us)});
  m.push_back({"fail_ratio", double(run.failed) / double(run.attempted),
               "ratio", fmt("%.0f RPCs issued", double(run.attempted))});
  return m;
}

struct Replays {
  CryptoReplay crypto;
  double event_ns = 0;
  HandshakeReplay handshake;
};

std::vector<Metric> layer_metrics(const WorkloadRun& run,
                                  const RepResult& traced,
                                  const SpanTotals& spans,
                                  const Replays& replays,
                                  const RepResult* one_shard) {
  const Workload& w = *run.w;
  const double n = double(traced.completed);
  const double threads = double(traced.worker_threads);
  // Wall time is counted in thread-ns: the 2-shard workload runs events on
  // two threads at once.
  const double run_thread_ns = spans.run_ns * threads;
  const double events = double(traced.events);
  const double span_s = to_sec(traced.last_completion);
  const sim::NicCounters& nic = traced.nic;
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit, ""});
  };

  add("apps.call_ns_per_rpc", spans.call_ns / n, "ns");
  add("apps.handler_ns_per_rpc", spans.handler_ns / n, "ns");
  add("apps.done_ns_per_rpc", spans.done_self_ns / n, "ns");
  add("engine.self_ns_per_rpc", (run_thread_ns - spans.apps_outer_ns) / n,
      "ns");
  add("apps.call_allocs_per_rpc", spans.call_allocs / n, "count");
  add("engine.self_allocs_per_rpc",
      (double(traced.engine_allocs) - spans.apps_outer_allocs) / n, "count");
  add("setup.topology_s",
      median_of(run.reps, [](const RepResult& r) { return r.topology_s; }),
      "s");
  add("setup.fabric_s",
      median_of(run.reps, [](const RepResult& r) { return r.fabric_s; }),
      "s");
  add("setup.channels_s",
      median_of(run.reps, [](const RepResult& r) { return r.channels_s; }),
      "s");

  add("netsim.event.events_per_rpc", events / n, "count");
  add("netsim.event.pending_mean", traced.pending_mean, "count");
  add("netsim.event.wall_ns_per_event", run_thread_ns / events, "ns");
  add("netsim.event.ns_per_event", replays.event_ns, "ns");
  if (w.shards > 1) {
    const double windows = double(traced.shard.windows);
    add("netsim.shard.windows_per_rpc", windows / n, "count");
    add("netsim.shard.cross_posts_per_rpc",
        double(traced.shard.cross_posts) / n, "count");
    add("netsim.shard.events_per_window", events / windows, "count");
    if (one_shard != nullptr) {
      // Same RPC count at both shard counts: the rate ratio is the wall
      // ratio, against the fastest 2-shard rep.
      add("netsim.shard.speedup_vs_1",
          best_rate(run.reps) / rpc_rate(*one_shard), "ratio");
    }
  }

  add("netsim.nic.packets_per_rpc", double(nic.packets) / n, "count");
  add("netsim.nic.segments_per_rpc", double(nic.segments) / n, "count");
  add("netsim.nic.records_encrypted_per_rpc",
      double(nic.records_encrypted) / n, "count");
  add("netsim.nic.doorbells_per_rpc", double(nic.doorbells) / n, "count");
  add("netsim.nic.rx_frames_per_interrupt",
      double(nic.rx_frames) / double(std::max<std::uint64_t>(
                                  1, nic.rx_interrupts)),
      "count");
  add("netsim.nic.resyncs_per_rpc", double(nic.resyncs) / n, "count");
  add("netsim.nic.context_misses", double(nic.context_misses), "count");
  add("netsim.nic.rx_dropped", double(nic.rx_dropped), "count");
  if (traced.switched) {
    add("netsim.switch.forwarded_per_rpc",
        double(traced.switches.forwarded) / n, "count");
    add("netsim.switch.drops_per_rpc",
        double(traced.switches.dropped + traced.switches.trimmed) / n,
        "count");
    add("netsim.switch.server_port_max_queued_kib",
        double(traced.server_port_max_queued) / 1024.0, "KiB");
  }

  const auto util = [&](std::uint64_t busy_ns, std::size_t cores) {
    return double(busy_ns) / (span_s * 1e9 * double(cores));
  };
  add("stack.cpu.server_softirq_util",
      util(traced.server_softirq_ns, traced.server_softirq_cores), "ratio");
  add("stack.cpu.server_app_util",
      util(traced.server_app_ns, traced.server_app_cores), "ratio");
  add("stack.cpu.client_app_util",
      util(traced.client_app_ns, traced.client_app_cores), "ratio");
  add("stack.cpu.server_irq_ns_per_rpc", double(traced.server_irq_ns) / n,
      "virtual_ns");
  add("stack.flow_ctx.misses_per_rpc", double(traced.flow.misses) / n,
      "count");
  add("stack.flow_ctx.evictions", double(traced.flow.evictions), "count");

  const CryptoReplay& c = replays.crypto;
  const double wall_per_rpc = run_thread_ns / n;
  add("crypto.aead_seal_ns", c.aead_seal_ns, "ns");
  add("crypto.aead_open_ns", c.aead_open_ns, "ns");
  add("crypto.aead_ns_per_rpc", c.aead_ns_per_rpc, "ns");
  add("crypto.aead_share", c.aead_ns_per_rpc / wall_per_rpc, "ratio");
  add("tls.record_self_ns", c.record_self_ns, "ns");
  if (c.wire_self_ns) add("smt.wire_self_ns", *c.wire_self_ns, "ns");
  add("tls.handshake_ms", replays.handshake.handshake_ms, "ms");
  add("crypto.ecdh_ms", replays.handshake.ecdh_ms, "ms");
  add("crypto.ecdsa_sign_ms", replays.handshake.ecdsa_sign_ms, "ms");
  add("crypto.ecdsa_verify_ms", replays.handshake.ecdsa_verify_ms, "ms");

  const double estimated =
      spans.apps_outer_ns +
      n * (c.aead_ns_per_rpc + c.record_self_ns + c.wire_self_ns.value_or(0) +
           replays.event_ns * events / n);
  add("unattributed_share", 1.0 - estimated / run_thread_ns, "ratio");
  add("tracing_overhead", 1.0 - rpc_rate(traced) / best_rate(run.reps),
      "ratio");
  return m;
}

/// Plaintext bytes of every message one RPC of `w` hands its transport.
std::vector<std::size_t> message_sizes(const Workload& w) {
  const std::size_t frame = is_smt(w) ? 0 : kStreamFrame;
  return {frame + kRequestHeader + w.request_bytes,
          frame + kResponseHeader + w.response_bytes};
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_suite [--workload NAME] [--seed N] "
               "[--rounds N | --seconds S] [--out FILE] [--trace FILE] "
               "[--smoke]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  // Results go to $BENCH_JSON_DIR/bench_suite.json unless --out says
  // otherwise. Read once, before any thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dir = std::getenv("BENCH_JSON_DIR"); dir && *dir) {
    opt.out = std::string(dir) + "/bench_suite.json";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      const auto it =
          std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                       [&](const Workload& w) { return name == w.name; });
      if (it == std::end(kWorkloads)) return std::nullopt;
      opt.workloads.push_back(&*it);
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--rounds" && has_value) {
      opt.rounds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      opt.out = argv[++i];
    } else if (arg == "--trace" && has_value) {
      opt.trace = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (opt.workloads.empty()) {
    for (const Workload& w : kWorkloads) opt.workloads.push_back(&w);
  }
  if (opt.smoke) {
    opt.rounds = 1;
    opt.seconds = 0;
  }
  if (opt.rounds == 0) opt.rounds = 1;
  return opt;
}

int run_suite(const Options& opt) {
  const std::uint64_t suite_start = clock_ns();
  std::vector<WorkloadRun> runs;
  for (const Workload* w : opt.workloads) {
    WorkloadRun run;
    run.w = w;
    run.payloads = std::make_unique<Payloads>(opt.seed, *w);
    // Smoke reps shrink to 1/50, keeping every client's share whole.
    const std::size_t per_client = w->rpcs / w->clients;
    run.rpcs = w->clients *
               (opt.smoke ? std::max<std::size_t>(1, per_client / 50)
                          : per_client);
    runs.push_back(std::move(run));
  }

  for (WorkloadRun& run : runs) {
    run.reference =
        run_rep(*run.w, *run.payloads, run.rpcs, run.w->shards, false);
    run.account(run.reference, false);
  }
  const std::uint64_t timed_start = clock_ns();
  for (std::size_t round = 0;; ++round) {
    const bool done =
        opt.seconds > 0
            ? round >= kMinRounds && seconds_since(timed_start) >= opt.seconds
            : round >= opt.rounds;
    if (done) break;
    for (WorkloadRun& run : runs) {
      RepResult r =
          run_rep(*run.w, *run.payloads, run.rpcs, run.w->shards, false);
      run.account(r, true);
      run.reps.push_back(std::move(r));
    }
  }
  for (WorkloadRun& run : runs) run.end_to_end = end_to_end_metrics(run);

  // Smoke runs always trace, to a scratch file when no --trace is given.
  const bool trace = opt.smoke || !opt.trace.empty();
  const std::string trace_path =
      opt.trace.empty() ? "bench_suite_smoke_trace.json" : opt.trace;
  std::vector<std::string> phase_names;
  if (trace) {
    const HandshakeReplay handshake = replay_handshake(opt.smoke);
    for (std::uint32_t phase = 0; phase < runs.size(); ++phase) {
      WorkloadRun& run = runs[phase];
      const Workload& w = *run.w;
      phase_names.push_back(w.name);
      set_tracing(true, phase);
      RepResult traced = run_rep(w, *run.payloads, run.rpcs, w.shards, true);
      set_tracing(false);
      run.account(traced, true);
      std::optional<RepResult> one_shard;
      if (w.shards > 1) {
        one_shard = run_rep(w, *run.payloads, run.rpcs, 1, false);
        run.account(*one_shard, false);
      }
      Replays replays;
      replays.crypto = replay_crypto(message_sizes(w), is_smt(w), opt.seed,
                                     opt.smoke);
      replays.event_ns = replay_event_ns(
          std::size_t(std::lround(traced.pending_mean)), opt.smoke);
      replays.handshake = handshake;
      run.layers = layer_metrics(run, traced, aggregate_spans(phase), replays,
                                 one_shard ? &*one_shard : nullptr);
    }
    // fail_ratio covers the traced reps too.
    for (WorkloadRun& run : runs) run.end_to_end = end_to_end_metrics(run);
  }

  bool ok = true;
  for (const WorkloadRun& run : runs) {
    const Workload& w = *run.w;
    const std::string title = std::string("== ") + w.name + " (" + w.shape +
                              "; " + std::to_string(run.rpcs) +
                              " RPCs per rep, seed " +
                              std::to_string(opt.seed) + ") ==";
    print_metrics(title.c_str(), run.end_to_end);
    if (!run.layers.empty()) {
      print_metrics((std::string("-- ") + w.name + " per layer (traced rep) --")
                        .c_str(),
                    run.layers);
    }
    if (!run.failure.empty()) {
      ok = false;
      std::fprintf(stderr, "bench_suite: %s FAILED: %s\n", w.name,
                   run.failure.c_str());
    }
  }

  if (!opt.out.empty()) {
    std::FILE* out = std::fopen(opt.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", opt.out.c_str());
      return 1;
    }
    std::fprintf(out, "{");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::vector<Metric> metrics = runs[i].end_to_end;
      metrics.push_back({"attempted", double(runs[i].attempted), "", ""});
      metrics.push_back({"failed", double(runs[i].failed), "", ""});
      std::fprintf(out, "%s\n  \"%s\": ", i == 0 ? "" : ",", runs[i].w->name);
      write_json_object(out, metrics);
    }
    if (trace) {
      std::fprintf(out, ",\n  \"layers\": {");
      for (std::size_t i = 0; i < runs.size(); ++i) {
        std::fprintf(out, "%s\n    \"%s\": ", i == 0 ? "" : ",",
                     runs[i].w->name);
        write_json_object(out, runs[i].layers);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "\n}\n");
    if (std::fclose(out) != 0) return 1;
  }

  if (trace) {
    if (!write_chrome_trace(trace_path, phase_names)) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::string error;
    const std::optional<std::size_t> spans =
        check_chrome_trace(trace_path, error);
    if (!spans) {
      std::fprintf(stderr, "bench_suite: trace check failed: %s\n",
                   error.c_str());
      ok = false;
    } else {
      std::printf("\ntrace: %zu spans -> %s\n", *spans, trace_path.c_str());
    }
    if (opt.trace.empty()) std::remove(trace_path.c_str());
  }
  std::printf("\nbench_suite: %s in %.1f s\n", ok ? "all checks passed"
                                                   : "CHECKS FAILED",
              seconds_since(suite_start));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace smt::bench::suite

int main(int argc, char** argv) {
  const auto options = smt::bench::suite::parse(argc, argv);
  if (!options) {
    smt::bench::suite::usage();
    return 2;
  }
  return smt::bench::suite::run_suite(*options);
}
