// Flow-context pressure: sessions >> NIC flow contexts (§4.4.2), in BOTH
// directions.
//
// NIC TLS context memory is finite; the seed stack hard-failed once
// max_flow_contexts sessions existed. With the shared LRU flow-context
// manager, contexts behave like a cache: cold sessions are evicted and
// transparently re-established on their next use, so the stack keeps
// delivering — at the cost of extra context (re)establishment (each fresh
// lease now pays CostModel::context_establish), visible below as
// evictions / re-establishes / miss rate, never as corrupted records
// (out-of-sequence must stay 0) or failed sends.
//
// Methodology: one host pair; N client SMT-hw endpoints, each with one
// session to a single server endpoint; every session completes `kRounds`
// 1 KB request + 256 B echo-reply round trips, issued round-robin across
// sessions (the LRU's worst case once N exceeds the context table) with a
// bounded in-flight window. The sweep is BIDIRECTIONAL: requests exercise
// client-TX + server-RX contexts, replies exercise server-TX + client-RX
// contexts, so both hosts' tables thrash simultaneously.
#include "bench_common.hpp"

#include "crypto/drbg.hpp"
#include "smt/endpoint.hpp"

using namespace smt;
using namespace smt::bench;

namespace {

constexpr std::size_t kMaxFlowContexts = 1024;
constexpr std::size_t kRounds = 8;       // round trips per session (>
                                         // num_queues so same-queue context
                                         // reuse and resync-on-reuse happen)
constexpr std::size_t kWindow = 256;     // in-flight round trips (< contexts)
constexpr std::size_t kRequestBytes = 1024;
constexpr std::size_t kReplyBytes = 256;

struct PressureResult {
  double throughput_mps = 0;  // completed round trips per second (virtual)
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;       // requests decrypted at the server
  std::uint64_t replies = 0;         // replies decrypted at the clients
  std::uint64_t send_failures = 0;   // client requests + server replies
  std::uint64_t out_of_sequence = 0; // both NICs
  std::uint64_t context_misses = 0;  // both NICs
  std::uint64_t resyncs = 0;         // both NICs
  std::uint64_t evictions = 0;       // both hosts' managers
  std::uint64_t reestablished = 0;   // both hosts' managers
  std::uint64_t rx_established = 0;  // fresh RX leases, both sides
  std::uint64_t rx_fallbacks = 0;    // RX leases denied -> software decrypt
  double miss_rate = 0;              // both hosts pooled
};

PressureResult run_pressure(std::size_t sessions) {
  sim::ShardedEngine engine(1);
  sim::EventLoop& loop = engine.loop(0);
  stack::HostConfig hc;
  hc.nic.max_flow_contexts = kMaxFlowContexts;
  const auto topology = two_host_topology(engine, hc);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  proto::SmtConfig smt_config;
  smt_config.hw_offload = true;

  const transport::PeerAddr server_addr{2, 80};
  proto::SmtEndpoint server(server_host, server_addr.port, smt_config);

  PressureResult result;
  SimTime first_completion = 0;
  SimTime last_completion = 0;
  const std::size_t total = sessions * kRounds;
  std::size_t issued = 0;
  std::function<void()> issue_one;

  std::vector<std::unique_ptr<proto::SmtEndpoint>> clients;
  clients.reserve(sessions);
  const tls::CipherSuite suite = tls::CipherSuite::aes_128_gcm_sha256;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::uint16_t port = std::uint16_t(1000 + s);
    auto client =
        std::make_unique<proto::SmtEndpoint>(client_host, port, smt_config);
    // Distinct per-session keys, as distinct TLS handshakes would produce.
    tls::TrafficKeys tx{Bytes(16, std::uint8_t(s)), Bytes(12, std::uint8_t(s >> 8))};
    tls::TrafficKeys rx{Bytes(16, std::uint8_t(s + 1)), Bytes(12, 0x99)};
    (void)client->register_session(server_addr, suite, tx, rx);
    (void)server.register_session({1, port}, suite, rx, tx);
    // The reply closes the round trip and refills the window.
    client->set_on_message([&](proto::SmtEndpoint::MessageMeta, Bytes) {
      if (result.replies == 0) first_completion = loop.now();
      ++result.replies;
      last_completion = loop.now();
      issue_one();
    });
    clients.push_back(std::move(client));
  }

  // Closed loop: at most kWindow round trips outstanding (kWindow <
  // contexts, so an idle eviction victim always exists), issued
  // round-robin across sessions.
  issue_one = [&] {
    if (issued >= total) return;
    const std::size_t session = issued % sessions;
    ++issued;
    auto sent = clients[session]->send_message(
        server_addr, Bytes(kRequestBytes, std::uint8_t(issued)),
        &client_host.app_core(session % client_host.app_core_count()));
    if (sent.ok()) {
      ++result.sent;
    } else {
      ++result.send_failures;
    }
  };
  std::size_t served = 0;
  server.set_on_message([&](proto::SmtEndpoint::MessageMeta meta, Bytes) {
    ++result.delivered;
    auto reply = server.send_message(
        {meta.peer.ip, meta.peer.port}, Bytes(kReplyBytes, 0x7e),
        &server_host.app_core(served++ % server_host.app_core_count()));
    if (!reply.ok()) ++result.send_failures;
  });
  for (std::size_t i = 0; i < std::min(kWindow, total); ++i) {
    loop.schedule(SimDuration(i) * nsec(120), issue_one);
  }
  loop.run();

  const auto& client_nic = client_host.nic().counters();
  const auto& server_nic = server_host.nic().counters();
  result.out_of_sequence =
      client_nic.out_of_sequence_records + server_nic.out_of_sequence_records;
  result.context_misses =
      client_nic.context_misses + server_nic.context_misses;
  result.resyncs = client_nic.resyncs + server_nic.resyncs;

  const auto& client_ctx = client_host.flow_contexts().stats();
  const auto& server_ctx = server_host.flow_contexts().stats();
  result.evictions = client_ctx.evictions + server_ctx.evictions;
  result.reestablished = client_ctx.reestablished + server_ctx.reestablished;
  result.rx_established = server.stats().rx_contexts_created;
  result.rx_fallbacks = server.stats().rx_context_acquire_failures;
  for (const auto& client : clients) {
    result.rx_established += client->stats().rx_contexts_created;
    result.rx_fallbacks += client->stats().rx_context_acquire_failures;
  }
  const std::uint64_t hits = client_ctx.hits + server_ctx.hits;
  const std::uint64_t misses = client_ctx.misses + server_ctx.misses;
  result.miss_rate =
      hits + misses == 0 ? 0.0 : double(misses) / double(hits + misses);
  const double seconds = to_sec(last_completion - first_completion);
  result.throughput_mps =
      seconds > 0 ? double(result.replies - 1) / seconds : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<std::size_t> session_counts = sweep<std::size_t>(
      {64, 256, 1024, 4096, 16 * kMaxFlowContexts});

  std::printf("== Bidirectional flow-context pressure: SMT-hw, %zu NIC "
              "contexts, %zu x (1 KB request + 256 B reply) per session ==\n",
              kMaxFlowContexts, kRounds);
  std::printf("%-10s %9s %9s %9s %9s %8s %9s %9s %8s %8s %8s %7s %7s\n",
              "sessions", "sent", "delivrd", "replies", "failures", "out-seq",
              "resyncs", "evict", "reestab", "rx-est", "rx-fall", "miss%",
              "Krt/s");
  bool ok = true;
  for (const std::size_t sessions : session_counts) {
    const PressureResult r = run_pressure(sessions);
    std::printf(
        "%-10zu %9llu %9llu %9llu %9llu %8llu %9llu %9llu %8llu %8llu %8llu "
        "%6.1f%% %7.0f\n",
        sessions, (unsigned long long)r.sent, (unsigned long long)r.delivered,
        (unsigned long long)r.replies, (unsigned long long)r.send_failures,
        (unsigned long long)r.out_of_sequence, (unsigned long long)r.resyncs,
        (unsigned long long)r.evictions, (unsigned long long)r.reestablished,
        (unsigned long long)r.rx_established,
        (unsigned long long)r.rx_fallbacks, 100.0 * r.miss_rate,
        r.throughput_mps / 1e3);
    json_metric("krt_per_s_s" + std::to_string(sessions),
                r.throughput_mps / 1e3);
    if (r.delivered != r.sent || r.replies != r.sent ||
        r.send_failures != 0 || r.out_of_sequence != 0 ||
        r.context_misses != 0) {
      ok = false;
    }
  }
  std::printf("\ninvariants (every row): delivered == replies == sent, zero "
              "failures, zero out-of-sequence records, zero NIC context "
              "misses -> %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
