// Simulator self-performance harness: how fast does the SIMULATOR run,
// in wall-clock terms, on the fig7-shaped closed-loop RPC scenario?
//
// Every other bench reports virtual-time results (RTTs, RPC/s of simulated
// time) that are bit-identical across machines. This bench instead measures
// the real-time cost of producing them: events/sec and packets/sec of wall
// clock, wall-milliseconds per simulated second, heap allocations per RPC,
// and peak RSS. It is the regression baseline for datapath-memory and
// event-engine work (PayloadSlice slabs, the pooled callback engine): those
// PRs must move THESE numbers while leaving every virtual-time bench
// byte-identical.
//
// The headline scenario is fig7's 1 KB c=200 SMT-hw row — the workload the
// paper's throughput ceiling discussion (§5.2) is stated in.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <optional>

#include "bench_common.hpp"

// --- allocation counting ---------------------------------------------------
//
// Global operator new/delete overrides count every heap allocation in the
// process. This is what verifies the reserve()/slab/small-buffer work: the
// wire-encode hot paths and the event engine are supposed to stop paying
// malloc per record/event, and allocs-per-RPC is the observable.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

// Per-thread tallies, flushed to the globals in batches: the sharded
// engine runs one allocating thread per shard, and a fetch_add per
// allocation would bounce these two cache lines between cores hard
// enough to serialize the very parallelism the shard-scaling scenario
// measures. Batching keeps the hot path core-local; the main thread
// flushes explicitly around the single-threaded measured runs, so
// allocs/rpc stays exact (worker-thread residues of < 1024 allocs can
// linger, but no metric reads those).
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

inline void flush_alloc_tally() noexcept {
  g_alloc_count.fetch_add(t_alloc_count, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(t_alloc_bytes, std::memory_order_relaxed);
  t_alloc_count = 0;
  t_alloc_bytes = 0;
}

inline void note_alloc(std::size_t size) noexcept {
  ++t_alloc_count;
  t_alloc_bytes += size;
  if (t_alloc_count >= 1024) flush_alloc_tally();
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc(size);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace smt::bench {
namespace {

struct SimPerfResult {
  double wall_sec = 0;          // real time spent inside loop().run()
  double virtual_sec = 0;       // simulated time covered by the run
  std::uint64_t events = 0;     // event-loop callbacks executed
  std::uint64_t packets = 0;    // NIC packets emitted (client + server)
  std::uint64_t allocs = 0;     // operator new calls during the run
  std::uint64_t completed = 0;  // RPCs completed
  double rpcs_per_vsec = 0;     // virtual-time throughput (must not change)
  std::size_t pending_high_water = 0;  // most events pending at once
};

/// Closed-loop fig7-style run: `concurrency` outstanding RPCs over 12
/// client app cores, wall-clock instrumented around the event loop.
SimPerfResult run_scenario(RpcFabricConfig config, std::size_t rpc_bytes,
                           std::size_t concurrency, std::size_t total_ops) {
  RpcFabric fabric(config);
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = concurrency,
                                 .ops_per_client = total_ops,
                                 .request_bytes = rpc_bytes,
                                 .response_bytes = rpc_bytes});
  rpcs.start();

  flush_alloc_tally();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t events = fabric.loop().run();
  const auto wall_end = std::chrono::steady_clock::now();
  flush_alloc_tally();

  SimPerfResult r;
  r.wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
  r.virtual_sec = to_sec(fabric.loop().now());
  r.events = events;
  r.pending_high_water = fabric.loop().pending_high_water();
  r.packets = fabric.client_host().nic().counters().packets +
              fabric.server_host().nic().counters().packets;
  r.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const apps::ClosedLoopResult rpc = rpcs.result();
  r.completed = rpc.completions.size();
  const double window =
      to_sec(rpc.last_completion() - rpc.completions.front().at);
  r.rpcs_per_vsec = window > 0 ? double(r.completed - 1) / window : 0;
  return r;
}

double peak_rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux: ru_maxrss is in KiB
}

// --- shard scaling ---------------------------------------------------------
//
// Multi-host scenario for the sharded engine (netsim/shard.hpp): K
// independent RpcFabric pairs share one ShardedEngine, client host of pair
// i on shard i%S and server host on shard (i+1)%S — so every pair's link
// crosses a shard boundary whenever S > 1, and S=1 degenerates to the
// plain single-threaded engine. Wall-clock events/s across S is THE
// headline number for the sharded engine; virtual-time results stay
// deterministic per shard count: every repetition at every shard count
// must end at the same shardN_virtual_end_ns, or the bench fails.

struct ShardScalingResult {
  double wall_sec = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::int64_t virtual_end_ns = 0;  // sum of per-pair last completions
};

/// Compute-bound multi-host ring: 8 forwarding nodes over S shards,
/// connected by Links whose deliveries cross shard boundaries, each node
/// charging a fixed arithmetic cost per packet. This is the ENGINE
/// scaling measurement: per-event work is core-local compute, so
/// events/s tracks the worker pool's real parallelism. (The RPC fleet
/// below is the opposite regime — pointer-chasing, memory-latency-bound
/// per-event work — whose scaling is capped by the host's memory
/// parallelism, not by the engine.)
ShardScalingResult run_shard_ring(std::size_t shards, std::size_t rounds) {
  constexpr std::size_t kHosts = 8;
  constexpr std::size_t kTokensPerHost = 64;
  const SimDuration propagation = usec(100);
  sim::ShardedEngine engine(shards, propagation);

  sim::LinkConfig lc;
  lc.bandwidth_gbps = 100.0;
  lc.propagation = propagation;
  std::vector<std::unique_ptr<sim::Link>> links;  // link h: host h -> h+1
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::size_t next = (h + 1) % kHosts;
    links.push_back(std::make_unique<sim::Link>(
        engine.loop(h % shards), engine.loop(next % shards), lc));
    if (h % shards != next % shards) {
      links.back()->a2b().set_remote_scheduler(
          engine.remote_scheduler(h % shards, next % shards));
    }
  }

  // Per-host state, touched only by that host's shard thread.
  struct Node {
    std::uint64_t forwarded = 0;
    SimTime last_rx = 0;
    double sink = 1.0;
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t h = 0; h < kHosts; ++h) {
    nodes.push_back(std::make_unique<Node>());
  }
  const std::uint64_t hop_budget = rounds * kTokensPerHost;
  for (std::size_t h = 0; h < kHosts; ++h) {
    Node& node = *nodes[h];
    sim::Link& out = *links[h];
    links[(h + kHosts - 1) % kHosts]->a2b().set_receiver(
        [&node, &out, hop_budget](sim::Packet pkt) {
          // ~3 us of register arithmetic: the simulated per-packet
          // forwarding cost, deliberately cache-resident.
          volatile double x = node.sink;
          for (int k = 0; k < 1000; ++k) x = x * 1.0000001;
          node.sink = x;
          if (++node.forwarded <= hop_budget) out.a2b().send(std::move(pkt));
        });
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (std::size_t t = 0; t < kTokensPerHost; ++t) {
      sim::Packet pkt;
      pkt.payload.assign(64, 0x5a);
      links[h]->a2b().send(std::move(pkt));
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t events = engine.run();
  const auto wall_end = std::chrono::steady_clock::now();

  ShardScalingResult r;
  r.wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events = events;
  r.windows = engine.stats().windows;
  r.cross_posts = engine.stats().cross_posts;
  for (std::size_t h = 0; h < kHosts; ++h) {
    r.completed += nodes[h]->forwarded;
    r.virtual_end_ns += std::int64_t(engine.now(h % shards));
  }
  return r;
}

ShardScalingResult run_shard_scaling(std::size_t shards, std::size_t pairs,
                                     std::size_t rpc_bytes,
                                     std::size_t concurrency,
                                     std::size_t ops_per_pair) {
  // Lookahead = link propagation: the widest window the conservative
  // contract allows for this topology (100 us keeps the barrier count low
  // enough that window work dwarfs synchronization cost).
  const SimDuration propagation = usec(100);
  sim::ShardedEngine engine(shards, propagation);

  // Each pair's closed loop only ever runs on the pair's client shard
  // thread (channel completions run on the client loop), so pairs on
  // different shards share nothing.
  struct Pair {
    std::unique_ptr<RpcFabric> fabric;
    std::unique_ptr<apps::ClosedLoop> rpcs;
  };
  std::vector<Pair> fleet;

  for (std::size_t i = 0; i < pairs; ++i) {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    config.link.propagation = propagation;
    auto fabric = std::make_unique<RpcFabric>(
        config, engine, /*client_shard=*/i % shards,
        /*server_shard=*/(i + 1) % shards);
    auto rpcs = std::make_unique<apps::ClosedLoop>(
        *fabric, apps::ClosedLoopSpec{.channels_per_client = concurrency,
                                      .ops_per_client = ops_per_pair,
                                      .request_bytes = rpc_bytes,
                                      .response_bytes = rpc_bytes});
    fleet.push_back({std::move(fabric), std::move(rpcs)});
  }
  for (Pair& pair : fleet) pair.rpcs->start();

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t events = engine.run();
  const auto wall_end = std::chrono::steady_clock::now();

  ShardScalingResult r;
  r.wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events = events;
  r.windows = engine.stats().windows;
  r.cross_posts = engine.stats().cross_posts;
  for (const Pair& pair : fleet) {
    const apps::ClosedLoopResult rpc = pair.rpcs->result();
    r.completed += rpc.completions.size();
    r.virtual_end_ns += std::int64_t(rpc.last_completion());
  }
  return r;
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  using namespace smt;
  using namespace smt::bench;
  init(argc, argv);

  // fig7-shaped closed loop: SMT-hw, c=200 outstanding RPCs.
  const std::size_t concurrency = 200;
  const std::size_t total_ops = smoke() ? 6000 : 50000;

  std::printf("Simulator wall-clock performance (fig7 scenario, c=%zu, "
              "%zu ops)\n",
              concurrency, total_ops);
  std::printf("%-14s %12s %12s %14s %12s %12s %12s %12s\n", "scenario",
              "wall_ms", "events/s", "packets/s", "ms/vsec", "allocs/rpc",
              "MRPC/vs", "pending_hw");

  const std::vector<std::size_t> sizes = smoke()
                                             ? std::vector<std::size_t>{1024}
                                             : std::vector<std::size_t>{1024,
                                                                        64};
  for (const std::size_t rpc_bytes : sizes) {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    const SimPerfResult r =
        run_scenario(config, rpc_bytes, concurrency, total_ops);
    const double events_per_sec = double(r.events) / r.wall_sec;
    const double packets_per_sec = double(r.packets) / r.wall_sec;
    const double ms_per_vsec = r.wall_sec * 1e3 / r.virtual_sec;
    const double allocs_per_rpc = double(r.allocs) / double(r.completed);
    std::printf("smt-hw %5zuB %12.1f %12.0f %14.0f %12.1f %12.1f %12.3f "
                "%12zu\n",
                rpc_bytes, r.wall_sec * 1e3, events_per_sec, packets_per_sec,
                ms_per_vsec, allocs_per_rpc, r.rpcs_per_vsec / 1e6,
                r.pending_high_water);
    if (rpc_bytes == 1024) {
      json_metric("events_per_sec", events_per_sec);
      json_metric("packets_per_sec", packets_per_sec);
      json_metric("wall_ms_per_virtual_sec", ms_per_vsec);
      json_metric("allocs_per_rpc", allocs_per_rpc);
      json_metric("virtual_mrpc_per_sec", r.rpcs_per_vsec / 1e6);
      json_metric("events", double(r.events));
      json_metric("completed", double(r.completed));
      json_metric("pending_high_water", double(r.pending_high_water));
    }
  }
  // --- shard scaling sweep -------------------------------------------------
  // `--shards N` pins a single shard count; the default sweeps 1/2/4.
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = {std::size_t(std::atoi(argv[i + 1]))};
    }
  }
  // Interleaved repetitions, best wall time kept per shard count: shared
  // CI runners throttle unpredictably on a scale of seconds, so a single
  // 1-shard-then-N-shard sequence confounds scaling with host drift.
  // Interleaving rides every shard count through the same throttle
  // phases, and the min is the standard noise-robust wall-clock estimate.
  // Every run must also end at the same virtual time: the sweep is the
  // cross-shard determinism witness, so a repetition or shard count that
  // diverges fails the bench.
  bool diverged = false;
  const auto sweep_shards =
      [&](const char* tag, int reps,
          const std::function<ShardScalingResult(std::size_t)>& scenario) {
        std::printf("%-8s %12s %12s %10s %12s %14s %10s\n", "shards",
                    "wall_ms", "events/s", "windows", "cross_posts",
                    "virt_end_ns", "speedup");
        std::vector<ShardScalingResult> best(shard_counts.size());
        std::optional<std::int64_t> witness;
        for (int rep = 0; rep < reps; ++rep) {
          for (std::size_t i = 0; i < shard_counts.size(); ++i) {
            const ShardScalingResult r = scenario(shard_counts[i]);
            if (!witness) witness = r.virtual_end_ns;
            if (r.virtual_end_ns != *witness) {
              std::fprintf(stderr,
                           "DETERMINISM FAILURE: %s sweep ended at %lld ns "
                           "with %zu shard(s) in repetition %d, %lld ns in "
                           "the first run\n",
                           tag, static_cast<long long>(r.virtual_end_ns),
                           shard_counts[i], rep,
                           static_cast<long long>(*witness));
              diverged = true;
            }
            if (best[i].wall_sec == 0 || r.wall_sec < best[i].wall_sec) {
              best[i] = r;
            }
          }
        }
        double base_events_per_sec = 0;
        for (std::size_t i = 0; i < shard_counts.size(); ++i) {
          const std::size_t shards = shard_counts[i];
          const ShardScalingResult& r = best[i];
          const double events_per_sec = double(r.events) / r.wall_sec;
          if (base_events_per_sec == 0) base_events_per_sec = events_per_sec;
          const double speedup = events_per_sec / base_events_per_sec;
          std::printf("%-8zu %12.1f %12.0f %10llu %12llu %14lld %9.2fx\n",
                      shards, r.wall_sec * 1e3, events_per_sec,
                      static_cast<unsigned long long>(r.windows),
                      static_cast<unsigned long long>(r.cross_posts),
                      static_cast<long long>(r.virtual_end_ns), speedup);
          char key[80];
          std::snprintf(key, sizeof key, "%s_shard%zu_events_per_sec", tag,
                        shards);
          json_metric(key, events_per_sec);
          std::snprintf(key, sizeof key, "%s_shard%zu_virtual_end_ns", tag,
                        shards);
          json_metric(key, double(r.virtual_end_ns));
          if (shards == shard_counts.back() &&
              shards != shard_counts.front()) {
            std::snprintf(key, sizeof key, "%s_shard_speedup_max_vs_1", tag);
            json_metric(key, speedup);
            std::snprintf(key, sizeof key, "%s_shard_cross_posts", tag);
            json_metric(key, double(r.cross_posts));
          }
        }
      };

  const std::size_t ring_rounds = smoke() ? 40 : 200;
  std::printf("\nShard scaling, compute-bound ring (8 hosts, 64 tokens/host, "
              "%zu rounds)\n",
              ring_rounds);
  sweep_shards("ring", /*reps=*/5, [&](std::size_t shards) {
    return run_shard_ring(shards, ring_rounds);
  });

  const std::size_t pairs = 4;
  const std::size_t per_pair_concurrency = 50;
  const std::size_t ops_per_pair = smoke() ? 1500 : 12500;
  std::printf("\nShard scaling, RPC fleet (%zu host pairs, c=%zu/pair, "
              "%zu ops/pair, smt-hw 1024B; memory-latency-bound — scaling "
              "capped by the host's memory parallelism)\n",
              pairs, per_pair_concurrency, ops_per_pair);
  sweep_shards("rpc", /*reps=*/3, [&](std::size_t shards) {
    return run_shard_scaling(shards, pairs, 1024, per_pair_concurrency,
                             ops_per_pair);
  });

  json_metric("peak_rss_mib", peak_rss_mib());
  std::printf("peak RSS: %.1f MiB\n", peak_rss_mib());
  return diverged ? 1 : 0;
}
