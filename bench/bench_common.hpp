// Shared measurement harness for the paper-reproduction benches.
//
// Each bench binary prints the rows/series of one paper table or figure.
// All latency/throughput numbers are VIRTUAL-time measurements from the
// deterministic simulator (DESIGN.md "Virtual time"); handshake benches
// additionally use real wall-clock for crypto operations.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/rpc.hpp"

namespace smt::bench {

/// Real monotonic nanosecond clock for the TLS engine's injected
/// tls::OpClockFn (ClientConfig/ServerConfig::op_clock). The engine itself
/// never reads host time — wall clock is banned inside src/ by
/// tools/lint/determinism_lint.py — so handshake benches that want real
/// Table 2 / Figure 12 crypto durations inject this at the boundary.
inline std::uint64_t wall_clock_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// --- smoke mode ----------------------------------------------------------
///
/// Every bench binary accepts `--smoke` (or BENCH_SMOKE=1 in the
/// environment): CI runs each bench with a tiny iteration budget so the
/// binaries are exercised end-to-end on every change and can never silently
/// rot. Benches call `init(argc, argv)` first and then shrink their sweep
/// lists / iteration counts when `smoke()` is true.

inline bool& smoke_flag() {
  static bool flag = false;
  return flag;
}
inline bool smoke() { return smoke_flag(); }

/// --- one-line JSON results ----------------------------------------------
///
/// When BENCH_JSON_DIR is set (the ctest smoke registrations set it), every
/// bench writes `<dir>/<bench-name>.json` at exit: one line with the bench
/// name, mode, and whatever headline metrics the bench recorded via
/// json_metric(). The `bench_golden` ctest compares the smoke runs' files
/// with the committed ones in bench/golden/, so runs are comparable across
/// commits without parsing stdout tables.

// Intentionally leaked: the atexit writer below must be able to read these
// after every normally-destructed static is gone, regardless of the order
// in which translation units first touched them.
inline std::string& bench_name() {
  static auto* name = new std::string("bench");
  return *name;
}

inline std::vector<std::pair<std::string, double>>& json_metrics() {
  static auto* metrics = new std::vector<std::pair<std::string, double>>();
  return *metrics;
}

/// Records one headline metric for the JSON result line.
inline void json_metric(const std::string& key, double value) {
  json_metrics().emplace_back(key, value);
}

inline void write_json_result() {
  // Single-threaded atexit context; getenv without setenv is race-free.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* dir = std::getenv("BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + bench_name() + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\"bench\":\"%s\",\"smoke\":%s", bench_name().c_str(),
               smoke() ? "true" : "false");
  for (const auto& [key, value] : json_metrics()) {
    // Shortest round-trip form: the printed value parses back to the exact
    // double, so a committed result pins the value bit for bit.
    char text[32];
    const auto printed = std::to_chars(text, text + sizeof text, value);
    std::fprintf(out, ",\"%s\":%.*s", key.c_str(),
                 int(printed.ptr - text), text);
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
}

inline void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke_flag() = true;
  }
  // Single-threaded startup; getenv without setenv is race-free.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("BENCH_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke_flag() = true;
  if (argc > 0 && argv[0] != nullptr) {
    std::string name(argv[0]);
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name.erase(0, slash + 1);
    bench_name() = std::move(name);
  }
  // The result line is written even when the bench exits non-zero — a
  // failing smoke run still leaves a record in the artifact.
  // Registered once from main() before any thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  std::atexit(write_json_result);
  if (smoke()) std::printf("[smoke mode: tiny iteration budget]\n");
}

/// Keeps the first element of each sweep list in smoke mode.
template <typename T>
inline std::vector<T> sweep(const std::vector<T>& full) {
  if (smoke() && !full.empty()) return std::vector<T>(1, full.front());
  return full;
}

/// Scales an iteration count down in smoke mode (but never below `floor`,
/// and never above the full budget).
inline std::size_t iters(std::size_t full, std::size_t floor = 100) {
  if (!smoke()) return full;
  return std::min(full, std::max(floor, full / 50));
}

/// Exact latency percentiles of one run's samples.
struct Percentiles {
  double p50 = 0;
  double p99 = 0;
};

/// Sorts the samples and indexes v[n/2] and v[(n-1)*0.99] — the exact
/// formulas behind the committed bench/golden/ values. {0, 0} if empty.
inline Percentiles exact_percentiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v[std::size_t(double(v.size() - 1) * 0.99)]};
}

using apps::RpcChannel;
using apps::RpcFabric;
using apps::RpcFabricConfig;
using apps::TransportKind;
using apps::transport_name;

/// Two-host back-to-back testbed (host 0 = ip 1, host 1 = ip 2, default
/// 100 Gb/s link) for benches that drive raw endpoints instead of RpcFabric.
inline std::unique_ptr<stack::Topology> two_host_topology(
    sim::ShardedEngine& engine, const stack::HostConfig& hc = {}) {
  auto built = stack::TopologyBuilder().host_config(hc).build(engine);
  if (!built.ok()) {
    std::fprintf(stderr, "topology error: %s\n", built.error().message.c_str());
    std::abort();
  }
  return std::move(built).take();
}

/// Exact RTT percentiles, in microseconds, over every completion.
inline Percentiles rtt_percentiles_us(const apps::ClosedLoopResult& result) {
  std::vector<double> rtts_us;
  rtts_us.reserve(result.completions.size());
  for (const auto& c : result.completions) rtts_us.push_back(to_usec(c.rtt));
  return exact_percentiles(std::move(rtts_us));
}

/// Unloaded RTT (Figure 6 / 10 / 11 methodology, §5.1): a single
/// request/response at a time, no concurrency, averaged over `iters`.
inline double measure_unloaded_rtt_us(RpcFabricConfig config,
                                      std::size_t rpc_bytes, int warmup = 5,
                                      int iters = 40) {
  if (smoke()) {
    warmup = 1;
    iters = std::min(iters, 5);
  }
  RpcFabric fabric(config);
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = 1,
                                 .ops_per_client = std::size_t(warmup + iters),
                                 .request_bytes = rpc_bytes,
                                 .response_bytes = rpc_bytes});
  rpcs.start();
  fabric.loop().run();

  const apps::ClosedLoopResult r = rpcs.result();
  double total_us = 0;
  for (std::size_t i = std::size_t(warmup); i < r.completions.size(); ++i) {
    total_us += to_usec(r.completions[i].rtt);
  }
  return total_us / double(r.completions.size() - std::size_t(warmup));
}

/// Concurrent closed-loop throughput (Figure 7 methodology, §5.2):
/// `concurrency` outstanding RPCs across 12 client app threads; reports
/// completed RPCs per second of virtual time over the measured phase.
inline double measure_throughput_rps(
    RpcFabricConfig config, std::size_t rpc_bytes, std::size_t concurrency,
    std::size_t total_ops,
    const std::function<void(RpcFabric&)>& inspect = nullptr) {
  total_ops = iters(total_ops, std::max<std::size_t>(200, 4 * concurrency));
  RpcFabric fabric(config);
  apps::ClosedLoop rpcs(fabric, {.channels_per_client = concurrency,
                                 .ops_per_client = total_ops,
                                 .request_bytes = rpc_bytes,
                                 .response_bytes = rpc_bytes});
  rpcs.start();
  fabric.loop().run();

  if (inspect) inspect(fabric);
  // The measured phase runs from the last warm-up completion to the LAST
  // completion: the loop afterwards only drains protocol timers (RTO
  // backstops, state GC), which must not dilute the window.
  const apps::ClosedLoopResult r = rpcs.result();
  const std::size_t warmup_ops = total_ops / 10;
  const double seconds =
      to_sec(r.last_completion() - r.completions[warmup_ops - 1].at);
  return double(r.completions.size() - warmup_ops) / seconds;
}

/// Pretty-prints a series table: rows = x values, columns = systems.
inline void print_table(const char* title, const char* x_label,
                        const std::vector<std::size_t>& xs,
                        const std::vector<const char*>& systems,
                        const std::vector<std::vector<double>>& values,
                        const char* value_format = "%10.1f") {
  std::printf("\n== %s ==\n%-12s", title, x_label);
  for (const char* system : systems) std::printf("%10s", system);
  std::printf("\n");
  for (std::size_t row = 0; row < xs.size(); ++row) {
    std::printf("%-12zu", xs[row]);
    for (std::size_t col = 0; col < systems.size(); ++col) {
      std::printf(value_format, values[row][col]);
    }
    std::printf("\n");
  }
}

}  // namespace smt::bench
