// Figure 6: unloaded RTT of various sized RPCs (§5.1).
//
// Paper methodology: single RPC at a time, custom echo application, RPC
// sizes 64 B..64 KB, systems TCP / kTLS-sw / kTLS-hw / Homa / SMT-sw /
// SMT-hw. Expected shape: Homa beats TCP (5-35 %), SMT beats kTLS
// (13-32 % hw, 10-35 % sw), the margin narrows at 64 KB because the Homa
// receiver waits for the complete message while TCP streams, and hardware
// offload helps only a little when unloaded (<= 7 %).
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<std::size_t> sizes = sweep<std::size_t>(
      {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536});
  const std::vector<TransportKind> kinds = {
      TransportKind::tcp,    TransportKind::ktls_sw, TransportKind::ktls_hw,
      TransportKind::homa,   TransportKind::smt_sw,  TransportKind::smt_hw};
  std::vector<const char*> names;
  for (const auto kind : kinds) names.push_back(transport_name(kind));

  std::vector<std::vector<double>> rtt_us;
  for (const std::size_t size : sizes) {
    std::vector<double> row;
    for (const auto kind : kinds) {
      RpcFabricConfig config;
      config.kind = kind;
      row.push_back(measure_unloaded_rtt_us(config, size));
    }
    rtt_us.push_back(std::move(row));
  }

  print_table("Figure 6: unloaded RTT [us] vs RPC size [B]", "RPC size",
              sizes, names, rtt_us, "%10.2f");

  // Shape checks the paper reports (§5.1).
  std::printf("\nshape checks:\n");
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    const double tcp = rtt_us[row][0], ktls_sw = rtt_us[row][1],
                 ktls_hw = rtt_us[row][2], homa = rtt_us[row][3],
                 smt_sw = rtt_us[row][4], smt_hw = rtt_us[row][5];
    std::printf(
        "  %6zu B: Homa vs TCP %+5.1f%%   SMT-sw vs kTLS-sw %+5.1f%%   "
        "SMT-hw vs kTLS-hw %+5.1f%%   HW benefit (SMT) %+4.1f%%\n",
        sizes[row], 100.0 * (homa - tcp) / tcp,
        100.0 * (smt_sw - ktls_sw) / ktls_sw,
        100.0 * (smt_hw - ktls_hw) / ktls_hw,
        100.0 * (smt_hw - smt_sw) / smt_sw);
  }
  // One JSON metric per measured size (smoke mode measures only the first).
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    json_metric("smt_hw_rtt_us_" + std::to_string(sizes[row]), rtt_us[row][5]);
  }

  // RX interrupt coalescing is a latency/efficiency trade-off: holding the
  // interrupt back (rx_coalesce_usecs > 0) coalesces more frames per
  // interrupt under load but taxes every unloaded round trip by the
  // hold-off on each direction's data and control packets.
  std::printf("\n== RX coalescing hold-off vs unloaded RTT: SMT-hw 1 KB "
              "==\n%-22s%12s\n",
              "rx_coalesce_usecs", "RTT [us]");
  const std::vector<std::size_t> holdoffs = sweep<std::size_t>({0, 5, 20});
  for (const std::size_t holdoff : holdoffs) {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    config.nic.rx_coalesce_usecs = double(holdoff);
    const double rtt = measure_unloaded_rtt_us(config, 1024);
    std::printf("%-22zu%12.2f\n", holdoff, rtt);
    json_metric("rtt_us_holdoff" + std::to_string(holdoff), rtt);
  }
  // The adaptive (DIM-style) controller escapes the trade-off for this
  // workload: the single-RPC probe stream looks latency-sensitive, so each
  // ring walks its hold-off down to fire-immediately. One row, not one per
  // hold-off: in adaptive mode the ladder seed comes from
  // rx_coalesce_frames (the default 16 -> the {16 frames, 16 us} level)
  // and the static rx_coalesce_usecs value is not consulted at all.
  {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    config.nic.adaptive_rx_coalesce = true;
    const double rtt = measure_unloaded_rtt_us(config, 1024);
    std::printf("%-22s%12.2f  (DIM converges to fire-immediately)\n",
                "adaptive", rtt);
    json_metric("rtt_us_adaptive", rtt);
  }
  // Receive steering (RSS indirection + irqbalance rebalancer) must be
  // latency-neutral when unloaded: the single-RPC probe generates a
  // balanced, tiny IRQ load, the hysteresis holds, and zero migrations
  // means zero flush/reprogram work on the critical path.
  {
    RpcFabricConfig config;
    config.kind = TransportKind::smt_hw;
    config.irq_rebalance_period = usec(100);
    const double rtt = measure_unloaded_rtt_us(config, 1024);
    std::printf("%-22s%12.2f  (rebalancer on: hysteresis holds, no "
                "migrations)\n",
                "steered", rtt);
    json_metric("rtt_us_steered", rtt);
  }
  return 0;
}
