// Figure 7: concurrent RPC throughput (§5.2).
//
// Paper methodology: 12 application threads + 4 softirq threads per host,
// 50-200 concurrent RPCs, sizes 64 B / 1 KB / 8 KB (90 % of production
// RPCs are < 10 KB). Expected shape: SMT beats kTLS by 16-41 % for 64 B
// and 1 KB; SMT LOSES to kTLS by 3-15 % at 8 KB (Homa's large-message
// immaturity); the HW-offload advantage is larger than in the unloaded
// RTT test because CPU cycles are the bottleneck.
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<std::size_t> sizes = sweep<std::size_t>({64, 1024, 8192});
  const std::vector<std::size_t> concurrencies =
      sweep<std::size_t>({50, 100, 150, 200});
  const std::vector<TransportKind> kinds = {
      TransportKind::tcp,    TransportKind::ktls_sw, TransportKind::ktls_hw,
      TransportKind::homa,   TransportKind::smt_sw,  TransportKind::smt_hw};
  std::vector<const char*> names;
  for (const auto kind : kinds) names.push_back(transport_name(kind));

  for (const std::size_t size : sizes) {
    std::vector<std::vector<double>> rows;
    for (const std::size_t concurrency : concurrencies) {
      std::vector<double> row;
      for (const auto kind : kinds) {
        RpcFabricConfig config;
        config.kind = kind;
        const std::size_t ops = size >= 8192 ? 6000 : 12000;
        row.push_back(
            measure_throughput_rps(config, size, concurrency, ops) / 1e6);
      }
      rows.push_back(std::move(row));
    }
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 7: throughput [M RPC/s], %zu B RPCs", size);
    print_table(title, "concurrency", concurrencies, names, rows, "%10.3f");

    std::printf("shape: SMT-sw vs kTLS-sw / SMT-hw vs kTLS-hw:");
    for (std::size_t i = 0; i < concurrencies.size(); ++i) {
      std::printf("  %+.0f%%/%+.0f%%",
                  100.0 * (rows[i][4] - rows[i][1]) / rows[i][1],
                  100.0 * (rows[i][5] - rows[i][2]) / rows[i][2]);
    }
    std::printf("\n");
  }

  // Burst-amortisation comparisons: the batched datapaths pay their fixed
  // per-batch cost (TX doorbell / RX interrupt) once per drained burst
  // instead of once per descriptor/frame; burst = 1 degenerates to the
  // unbatched path. One helper runs both so the methodology (1 KB SMT-hw
  // RPCs, same concurrency sweep, same op budget) cannot drift apart.
  const std::vector<std::size_t> burst_concurrencies =
      sweep<std::size_t>({100, 200});
  const auto burst_comparison =
      [&](const char* title, const char* knob, const char* json_prefix,
          const std::function<void(RpcFabricConfig&, std::size_t)>& set_burst) {
        std::printf("\n== %s: SMT-hw 1 KB RPCs, %s 16 vs 1 ==\n"
                    "%-12s%12s%12s%10s\n",
                    title, knob, "concurrency", "burst=1", "burst=16", "gain");
        for (const std::size_t concurrency : burst_concurrencies) {
          constexpr std::size_t kOps = 12000;
          RpcFabricConfig config;
          config.kind = TransportKind::smt_hw;
          set_burst(config, 1);
          const double unbatched =
              measure_throughput_rps(config, 1024, concurrency, kOps) / 1e6;
          set_burst(config, 16);
          const double batched =
              measure_throughput_rps(config, 1024, concurrency, kOps) / 1e6;
          std::printf("%-12zu%12.3f%12.3f%+9.1f%%\n", concurrency, unbatched,
                      batched, 100.0 * (batched - unbatched) / unbatched);
          json_metric(std::string(json_prefix) + "1_mrps_c" +
                          std::to_string(concurrency),
                      unbatched);
          json_metric(std::string(json_prefix) + "16_mrps_c" +
                          std::to_string(concurrency),
                      batched);
        }
      };
  burst_comparison(
      "Doorbell amortisation", "tx_burst", "tx_burst",
      [](RpcFabricConfig& config, std::size_t burst) {
        config.nic.tx_burst = burst;
      });
  burst_comparison(
      "RX interrupt coalescing", "rx_burst", "rx_burst",
      [](RpcFabricConfig& config, std::size_t burst) {
        config.nic.rx_burst = burst;
      });

  // Per-ring interrupt rates: each RX ring runs its OWN coalescing state
  // (the per-ring ethtool contract), so interrupt counts — and the IRQ CPU
  // they charge to each ring's affinity softirq core — are per-ring
  // figures, not one host-global number.
  {
    constexpr std::size_t kConcurrency = 100;
    constexpr std::size_t kOps = 12000;
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    std::printf("\n== Per-ring RX interrupt rates: SMT-hw 1 KB RPCs, "
                "c=%zu ==\n%-6s%14s%14s%16s%14s\n",
                kConcurrency, "ring", "server intrs", "server frames",
                "frames/intr", "IRQ core");
    measure_throughput_rps(
        config, 1024, kConcurrency, kOps, [](RpcFabric& fabric) {
          stack::Host& server = fabric.server_host();
          const sim::Nic& nic = server.nic();
          double elapsed_s = to_sec(fabric.loop().now());
          std::uint64_t total_intrs = 0;
          for (std::size_t ring = 0; ring < nic.rx_ring_count(); ++ring) {
            const sim::RxRingStats stats = nic.rx_ring_stats(ring);
            total_intrs += stats.interrupts;
            std::printf("%-6zu%14llu%14llu%16.1f%14zu\n", ring,
                        static_cast<unsigned long long>(stats.interrupts),
                        static_cast<unsigned long long>(stats.frames),
                        stats.interrupts > 0
                            ? double(stats.frames) / double(stats.interrupts)
                            : 0.0,
                        server.irq_affinity(ring));
            json_metric("server_ring" + std::to_string(ring) + "_intrs",
                        double(stats.interrupts));
          }
          // Softirq-core IRQ time only (doorbells charged to app cores are
          // excluded — the denominator is softirq-core time). Counters are
          // cumulative, so both rate and share cover the FULL run
          // including warmup — indicative load figures, not directly
          // comparable to the measured-phase RPC/s above.
          std::uint64_t softirq_irq_ns = 0;
          for (std::size_t i = 0; i < server.softirq_core_count(); ++i) {
            softirq_irq_ns += server.softirq_core(i).irq_busy_ns();
          }
          std::printf("server interrupt rate (full run): %.0f intr/s; IRQ "
                      "CPU %.2f%% of softirq cores\n",
                      elapsed_s > 0 ? double(total_intrs) / elapsed_s : 0.0,
                      100.0 * double(softirq_irq_ns) /
                          (double(fabric.loop().now()) *
                           double(server.softirq_core_count())));
        });
  }

  // Steered vs static receive steering. The fabric's SMT traffic is ONE
  // five-tuple, so static RSS lands every server frame on one ring and its
  // affinity core absorbs the whole interrupt load — the PR 3 throughput
  // drop (the paper's §5.2 softirq-thread ceiling). Steering = the
  // irqbalance-style rebalancer (hot-vector migration + single-flow
  // indirection spread) on top of the default indirection table; per-ring
  // frame counts show the flow rotating rings instead of soaking one. The
  // recovery is largest at 64 B, where the per-RPC interrupt rate is
  // highest and the hot vector's queueing tax dominates the RPC latency.
  {
    constexpr std::size_t kConcurrency = 200;
    constexpr std::size_t kOps = 12000;
    const std::vector<std::size_t> steer_sizes = sweep<std::size_t>({64, 1024});
    const auto run_mode = [&](const char* mode, std::size_t size,
                              SimDuration period) {
      RpcFabricConfig config;
      config.kind = TransportKind::smt_hw;
      config.irq_rebalance_period = period;
      std::size_t active_rings = 0;
      std::uint64_t migrations = 0;
      std::vector<std::uint64_t> ring_frames;
      const double mrps =
          measure_throughput_rps(
              config, size, kConcurrency, kOps,
              [&](RpcFabric& fabric) {
                const sim::Nic& nic = fabric.server_host().nic();
                for (std::size_t r = 0; r < nic.rx_ring_count(); ++r) {
                  const std::uint64_t frames = nic.rx_ring_stats(r).frames;
                  ring_frames.push_back(frames);
                  if (frames > 0) ++active_rings;
                }
                migrations =
                    fabric.server_host().irq_rebalance_stats().migrations;
              }) /
          1e6;
      std::printf("%-10s%14.3f%16zu%18llu\n", mode, mrps, active_rings,
                  static_cast<unsigned long long>(migrations));
      std::printf("  per-ring server frames:");
      for (std::size_t r = 0; r < ring_frames.size(); ++r) {
        std::printf(" ring%zu=%llu", r,
                    static_cast<unsigned long long>(ring_frames[r]));
      }
      std::printf("\n");
      const std::string prefix =
          std::string(mode) + "_" + std::to_string(size) + "B";
      json_metric(prefix + "_mrps", mrps);
      json_metric(prefix + "_active_rings", double(active_rings));
      return mrps;
    };
    for (const std::size_t size : steer_sizes) {
      std::printf("\n== Receive steering: SMT-hw %zu B RPCs, c=%zu, "
                  "single flow ==\n%-10s%14s%16s%18s\n",
                  size, kConcurrency, "mode", "M RPC/s", "active rings",
                  "migrations");
      const double static_mrps = run_mode("static", size, 0);
      const double steered_mrps = run_mode("steered", size, usec(100));
      std::printf("steering gain at %zu B: %+.1f%%\n", size,
                  100.0 * (steered_mrps - static_mrps) / static_mrps);
    }
  }
  return 0;
}
