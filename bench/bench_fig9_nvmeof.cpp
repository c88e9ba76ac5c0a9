// Figure 9: NVMe-oF P50/P99 random-read latency over iodepth 1..8 (§5.4).
//
// Expected shape: at low iodepth the device service time masks transport
// differences (the paper could not show a Homa/SMT win at iodepth 1-4 P50);
// at deeper queues SMT cuts P50 by up to ~7-15 % and P99 by up to ~16-21 %
// versus kTLS; the hardware-offload delta stays in the noise (§5.4).
#include "apps/nvmeof.hpp"
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;
using namespace smt::apps;

namespace {

LatencyStats run_fio(TransportKind kind, std::size_t iodepth) {
  RpcFabricConfig config;
  config.kind = kind;
  RpcFabric fabric(config);
  NvmeDevice device(fabric.loop(), NvmeDeviceConfig{});
  NvmeTarget target(fabric, device);
  FioConfig fio;
  fio.iodepth = iodepth;
  fio.total_requests = iters(3000);
  FioClient client(fabric, fio);
  return client.run();
}

}  // namespace

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<TransportKind> kinds = {
      TransportKind::tcp,    TransportKind::ktls_sw, TransportKind::ktls_hw,
      TransportKind::homa,   TransportKind::smt_sw,  TransportKind::smt_hw};
  const std::vector<std::size_t> iodepths = sweep<std::size_t>({1, 2, 4, 6, 8});

  // Each (transport, iodepth) cell is simulated once; both tables print
  // from the stored stats.
  std::vector<std::vector<LatencyStats>> cells;  // [iodepth][transport]
  for (const std::size_t iodepth : iodepths) {
    cells.emplace_back();
    for (const auto kind : kinds) {
      cells.back().push_back(run_fio(kind, iodepth));
    }
  }

  for (const char* which : {"P50", "P99"}) {
    std::printf("\n== Figure 9: NVMe-oF %s latency [us], 4 KB random reads ==\n",
                which);
    std::printf("%-8s", "iodepth");
    for (const auto kind : kinds) std::printf("%10s", transport_name(kind));
    std::printf("\n");
    for (std::size_t d = 0; d < iodepths.size(); ++d) {
      std::printf("%-8zu", iodepths[d]);
      std::vector<double> row;
      for (const LatencyStats& stats : cells[d]) {
        row.push_back((which[1] == '5' ? stats.p50() : stats.p99()) / 1e3);
        std::printf("%10.1f", row.back());
      }
      std::printf("\n");
      std::printf("  shape: SMT-sw vs kTLS-sw %+5.1f%%   SMT-hw vs kTLS-hw %+5.1f%%\n",
                  100.0 * (row[4] - row[1]) / row[1],
                  100.0 * (row[5] - row[2]) / row[2]);
    }
  }
  return 0;
}
