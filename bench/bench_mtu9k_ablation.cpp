// §5.2 "Impact of a larger MTU": 8 KB RPC throughput with a 9 KB MTU,
// where one message fits a single packet. Paper: SMT gains 13-28 % (hw) /
// 16-31 % (sw) over the 1.5 KB-MTU runs.
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<std::size_t> concurrencies =
      sweep<std::size_t>({50, 100, 150});
  const std::vector<TransportKind> kinds = {
      TransportKind::ktls_sw, TransportKind::ktls_hw, TransportKind::smt_sw,
      TransportKind::smt_hw};

  std::printf("== §5.2 MTU ablation: 8 KB RPC throughput [M RPC/s] ==\n");
  std::printf("%-12s%-10s", "concurrency", "MTU");
  for (const auto kind : kinds) std::printf("%10s", transport_name(kind));
  std::printf("\n");

  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> rows;
  for (const std::size_t concurrency : concurrencies) {
    for (const std::size_t mtu : {std::size_t{1500}, std::size_t{9000}}) {
      std::printf("%-12zu%-10zu", concurrency, mtu);
      std::vector<double> row;
      for (const auto kind : kinds) {
        RpcFabricConfig config;
        config.kind = kind;
        config.nic.mtu_payload = mtu;
        row.push_back(measure_throughput_rps(config, 8192, concurrency, 6000) /
                      1e6);
        std::printf("%10.3f", row.back());
      }
      rows[{concurrency, mtu}] = row;
      std::printf("\n");
    }
  }

  std::printf("\nshape checks (9 KB vs 1.5 KB MTU; paper: SMT-sw +16-31%%, "
              "SMT-hw +13-28%%):\n");
  for (const std::size_t concurrency : concurrencies) {
    const auto& small = rows[{concurrency, 1500}];
    const auto& jumbo = rows[{concurrency, 9000}];
    std::printf("  conc %3zu: SMT-sw %+5.1f%%   SMT-hw %+5.1f%%\n", concurrency,
                100.0 * (jumbo[2] - small[2]) / small[2],
                100.0 * (jumbo[3] - small[3]) / small[3]);
  }
  return 0;
}
