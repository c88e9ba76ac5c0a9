// Figure 11: effect of TSO on SMT-HW unloaded RTT (§7 "Segmentation").
//
// Without TSO (the IPv6 case: no IPID to carry intra-segment offsets),
// every packet is posted to the NIC as its own descriptor. Expected shape:
// the penalty grows with RPC size but stays modest — Homa never used TSO
// checksum offload anyway, and SMT's integrity comes from AEAD (§7).
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;

int main(int argc, char** argv) {
  init(argc, argv);
  // Smoke mode keeps 8192 B: at 512 B no record splits, so only the large
  // size shows a drift in the no-TSO record and segment limits.
  const std::vector<std::size_t> sizes =
      smoke() ? std::vector<std::size_t>{512, 8192}
              : std::vector<std::size_t>{512, 1024, 2048, 4096, 8192};
  std::vector<std::vector<double>> rtt;
  for (const std::size_t size : sizes) {
    RpcFabricConfig with_tso;
    with_tso.kind = TransportKind::smt_hw;
    with_tso.nic.tso_enabled = true;
    RpcFabricConfig without_tso = with_tso;
    without_tso.nic.tso_enabled = false;
    rtt.push_back({measure_unloaded_rtt_us(with_tso, size),
                   measure_unloaded_rtt_us(without_tso, size)});
    json_metric("fig11_rtt_us_tso_" + std::to_string(size), rtt.back()[0]);
    json_metric("fig11_rtt_us_notso_" + std::to_string(size), rtt.back()[1]);
  }
  print_table("Figure 11: SMT-HW RTT [us], TSO on/off", "RPC size", sizes,
              {"SMT-HW-TSO", "w/o-TSO"}, rtt, "%12.2f");

  std::printf("\nshape checks (penalty of disabling TSO):\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("  %6zu B: +%.1f%%\n", sizes[i],
                100.0 * (rtt[i][1] - rtt[i][0]) / rtt[i][0]);
  }
  return 0;
}
