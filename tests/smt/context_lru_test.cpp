// Shared LRU flow-context manager: eviction + transparent resync
// re-establishment, correctness under thrash (sessions >> contexts), and
// stats accounting.
#include <gtest/gtest.h>

#include "../common/topology_helpers.hpp"

#include "baselines/ktls.hpp"
#include "smt/endpoint.hpp"
#include "stack/flow_context_manager.hpp"

namespace smt::proto {
namespace {

using stack::FlowContextManager;
using stack::FlowKey;

constexpr sim::Proto kSmt = sim::Proto::smt;

tls::TrafficKeys test_keys(std::uint8_t tag) {
  return {Bytes(16, tag), Bytes(12, std::uint8_t(tag + 1))};
}

// --- manager-level tests --------------------------------------------------

class FlowContextManagerTest : public ::testing::Test {
 protected:
  FlowContextManagerTest() : nic_(loop_, make_config()), manager_(nic_) {}

  static sim::NicConfig make_config() {
    sim::NicConfig config;
    config.max_flow_contexts = 2;
    return config;
  }

  FlowContextManager::Lease* must_acquire(std::uint64_t session,
                                          std::uint32_t queue,
                                          std::uint64_t first_seq) {
    auto lease = manager_.acquire(FlowKey{kSmt, session, queue},
                                  tls::CipherSuite::aes_128_gcm_sha256,
                                  test_keys(0x10), first_seq);
    EXPECT_TRUE(lease.ok());
    return lease.value();
  }

  /// A segment of `count` record shells (31 content bytes each) whose run
  /// starts at `first_seq` and is not yet bound to a context.
  static sim::SegmentDescriptor record_run(std::uint64_t first_seq,
                                           std::uint16_t count) {
    sim::SegmentDescriptor d;
    d.segment.hdr.flow.proto = sim::Proto::smt;
    Bytes payload;
    for (std::uint16_t i = 0; i < count; ++i) {
      tls::append_record_shell(payload, tls::ContentType::application_data,
                               Bytes(31, 0x5a), 0);
    }
    d.segment.payload = std::move(payload);
    d.records = sim::InlineTls{first_seq, 0, count, 0};
    return d;
  }

  sim::EventLoop loop_;
  sim::Nic nic_;
  FlowContextManager manager_;
};

TEST_F(FlowContextManagerTest, HitReturnsSameContext) {
  const auto* a = must_acquire(1, 0, 100);
  EXPECT_TRUE(a->fresh);
  const std::uint32_t id = a->context_id;
  const auto* b = must_acquire(1, 0, 100);
  EXPECT_EQ(b->context_id, id);
  EXPECT_FALSE(b->fresh);
  EXPECT_EQ(manager_.stats().hits, 1u);
  EXPECT_EQ(manager_.stats().misses, 1u);
  EXPECT_EQ(nic_.active_contexts(), 1u);
}

TEST_F(FlowContextManagerTest, EvictsLeastRecentlyUsedIdleContext) {
  must_acquire(1, 0, 100);
  must_acquire(2, 0, 200);
  must_acquire(1, 0, 101);  // touch session 1: session 2 is now LRU
  must_acquire(3, 0, 300);  // table full -> evicts session 2
  EXPECT_EQ(manager_.stats().evictions, 1u);
  EXPECT_TRUE(manager_.holds(FlowKey{kSmt, 1, 0}));
  EXPECT_FALSE(manager_.holds(FlowKey{kSmt, 2, 0}));
  EXPECT_TRUE(manager_.holds(FlowKey{kSmt, 3, 0}));
  EXPECT_EQ(nic_.active_contexts(), 2u);
}

TEST_F(FlowContextManagerTest, EvictedKeyIsReestablishedWithNewSeed) {
  must_acquire(1, 0, 100);
  must_acquire(2, 0, 200);
  must_acquire(3, 0, 300);  // evicts session 1
  const auto* again = must_acquire(1, 0, 150);  // evicts session 2
  EXPECT_TRUE(again->fresh);
  EXPECT_EQ(again->shadow_seq, 150u);
  // The fresh NIC context is seeded at the new first_seq: no resync needed.
  EXPECT_EQ(nic_.context_seq(again->context_id), 150u);
  EXPECT_EQ(manager_.stats().reestablished, 1u);
  EXPECT_EQ(manager_.stats().evictions, 2u);
}

TEST_F(FlowContextManagerTest, InFlightContextIsNotEvicted) {
  const auto* pinned = must_acquire(1, 0, 100);
  // A queued descriptor references session 1's context: it must survive.
  sim::SegmentDescriptor d = record_run(100, 1);
  d.records.context_id = pinned->context_id;
  nic_.post_segment(0, d);

  must_acquire(2, 0, 200);
  must_acquire(3, 0, 300);  // must evict session 2, not in-flight session 1
  EXPECT_TRUE(manager_.holds(FlowKey{kSmt, 1, 0}));
  EXPECT_FALSE(manager_.holds(FlowKey{kSmt, 2, 0}));

  // With BOTH remaining contexts in flight, acquisition fails cleanly.
  sim::SegmentDescriptor d3 = d;
  d3.records.context_id = must_acquire(3, 0, 300)->context_id;
  nic_.post_segment(1, d3);
  auto lease = manager_.acquire(FlowKey{kSmt, 4, 0},
                                tls::CipherSuite::aes_128_gcm_sha256,
                                test_keys(0x10), 400);
  EXPECT_FALSE(lease.ok());
  EXPECT_EQ(lease.code(), Errc::resource_exhausted);
  EXPECT_EQ(manager_.stats().acquire_failures, 1u);

  // Once the ring drains, eviction works again.
  loop_.run();
  EXPECT_TRUE(manager_.acquire(FlowKey{kSmt, 4, 0},
                               tls::CipherSuite::aes_128_gcm_sha256,
                               test_keys(0x10), 400)
                  .ok());
}

TEST_F(FlowContextManagerTest, DirectionsAreDistinctContexts) {
  // TX and RX leases for the same (session, queue) are separate NIC
  // contexts — they hold different keys and different counters — but
  // compete for the same finite table.
  const auto* tx = must_acquire(1, 0, 100);
  auto rx_lease = manager_.acquire(FlowKey{kSmt, 1, 0, stack::FlowDir::rx},
                                   tls::CipherSuite::aes_128_gcm_sha256,
                                   test_keys(0x20), 500);
  ASSERT_TRUE(rx_lease.ok());
  EXPECT_NE(rx_lease.value()->context_id, tx->context_id);
  EXPECT_EQ(nic_.active_contexts(), 2u);
  // Re-acquiring the RX key hits; the TX entry is untouched.
  auto again = manager_.acquire(FlowKey{kSmt, 1, 0, stack::FlowDir::rx},
                                tls::CipherSuite::aes_128_gcm_sha256,
                                test_keys(0x20), 500);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value()->fresh);
  EXPECT_EQ(manager_.stats().hits, 1u);
}

TEST_F(FlowContextManagerTest, RxContextEvictionAndReestablishment) {
  // RX contexts post no descriptors, so they are always idle — the classic
  // eviction victim. An evicted RX key transparently re-establishes on the
  // next inbound message for its flow.
  auto acquire_rx = [this](std::uint64_t session, std::uint64_t first_seq) {
    return manager_.acquire(FlowKey{kSmt, session, 0, stack::FlowDir::rx},
                            tls::CipherSuite::aes_128_gcm_sha256,
                            test_keys(0x30), first_seq);
  };
  ASSERT_TRUE(acquire_rx(1, 100).ok());
  ASSERT_TRUE(acquire_rx(2, 200).ok());
  ASSERT_TRUE(acquire_rx(3, 300).ok());  // table of 2: evicts session 1
  EXPECT_EQ(manager_.stats().evictions, 1u);
  EXPECT_FALSE(manager_.holds(FlowKey{kSmt, 1, 0, stack::FlowDir::rx}));

  auto back = acquire_rx(1, 150);  // evicts session 2, re-establishes 1
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value()->fresh);
  EXPECT_EQ(back.value()->shadow_seq, 150u);
  EXPECT_EQ(manager_.stats().reestablished, 1u);
  EXPECT_EQ(manager_.stats().evictions, 2u);
  EXPECT_EQ(nic_.active_contexts(), 2u);
}

TEST_F(FlowContextManagerTest, InvalidateSessionReleasesBothDirections) {
  ASSERT_TRUE(manager_.acquire(FlowKey{kSmt, 5, 0, stack::FlowDir::tx},
                               tls::CipherSuite::aes_128_gcm_sha256,
                               test_keys(0x40), 0)
                  .ok());
  ASSERT_TRUE(manager_.acquire(FlowKey{kSmt, 5, 0, stack::FlowDir::rx},
                               tls::CipherSuite::aes_128_gcm_sha256,
                               test_keys(0x41), 0)
                  .ok());
  EXPECT_EQ(manager_.size(), 2u);
  manager_.invalidate_session(kSmt, 5);
  EXPECT_EQ(manager_.size(), 0u);
  EXPECT_EQ(nic_.active_contexts(), 0u);
}

TEST_F(FlowContextManagerTest, InvalidateSessionReleasesAllItsQueues) {
  sim::NicConfig config;
  config.max_flow_contexts = 8;
  sim::Nic nic(loop_, config);
  FlowContextManager manager(nic);
  for (std::uint32_t q = 0; q < 4; ++q) {
    EXPECT_TRUE(manager.acquire(FlowKey{kSmt, 7, q},
                                tls::CipherSuite::aes_128_gcm_sha256,
                                test_keys(1), q)
                    .ok());
  }
  EXPECT_TRUE(manager.acquire(FlowKey{kSmt, 8, 0},
                              tls::CipherSuite::aes_128_gcm_sha256,
                              test_keys(2), 0)
                  .ok());
  EXPECT_EQ(manager.size(), 5u);
  manager.invalidate_session(kSmt, 7);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(nic.active_contexts(), 1u);
  EXPECT_TRUE(manager.holds(FlowKey{kSmt, 8, 0}));
}

TEST_F(FlowContextManagerTest, ProtocolsSharingATagAreDistinctSessions) {
  // An SMT session tag and a kTLS connection id can coincide; the
  // protocol keeps their leases and their invalidation apart.
  const FlowKey smt_key{kSmt, 9, 0};
  const FlowKey tcp_key{sim::Proto::tcp, 9, 0};
  const auto suite = tls::CipherSuite::aes_128_gcm_sha256;
  ASSERT_TRUE(manager_.acquire(smt_key, suite, test_keys(0x50), 0).ok());
  ASSERT_TRUE(manager_.acquire(tcp_key, suite, test_keys(0x52), 0).ok());
  EXPECT_EQ(manager_.stats().misses, 2u);
  manager_.invalidate_session(sim::Proto::tcp, 9);
  EXPECT_TRUE(manager_.holds(smt_key));
  EXPECT_FALSE(manager_.holds(tcp_key));
  EXPECT_EQ(nic_.active_contexts(), 1u);
}

TEST_F(FlowContextManagerTest, BindTxLateBindsAndResyncsOnlyOnDivergence) {
  const FlowKey key{kSmt, 1, 0};
  const auto suite = tls::CipherSuite::aes_128_gcm_sha256;
  const auto descriptor = [](std::uint64_t first_seq, std::uint16_t count) {
    sim::SegmentDescriptor d;
    d.records = sim::InlineTls{first_seq, 999, count, 0};  // stale id:
                                                           // bind_tx must
                                                           // rewrite it
    return d;
  };

  // First post: a fresh lease seeded at the first record, no resync.
  sim::SegmentDescriptor first = descriptor(100, 2);
  manager_.bind_tx(key, suite, test_keys(0x60), first.records, nullptr);
  const std::uint32_t id = first.records.context_id;
  EXPECT_NE(id, 999u);
  EXPECT_EQ(nic_.context_seq(id), 100u);
  // Consecutive records ride the self-increment; a repeated record (a
  // retransmission) diverges from the shadow counter and is resynced,
  // as is the record after it.
  sim::SegmentDescriptor next = descriptor(102, 1);
  manager_.bind_tx(key, suite, test_keys(0x60), next.records, nullptr);
  sim::SegmentDescriptor again = descriptor(101, 1);
  manager_.bind_tx(key, suite, test_keys(0x60), again.records, nullptr);
  sim::SegmentDescriptor after = descriptor(103, 1);
  manager_.bind_tx(key, suite, test_keys(0x60), after.records, nullptr);
  // No records: nothing to bind, the lease is not even touched.
  sim::SegmentDescriptor plain;
  manager_.bind_tx(key, suite, test_keys(0x60), plain.records, nullptr);
  loop_.run();
  EXPECT_EQ(next.records.context_id, id);
  EXPECT_EQ(again.records.context_id, id);
  EXPECT_EQ(plain.records.context_id, 0u);
  EXPECT_EQ(nic_.counters().resyncs, 2u);
  EXPECT_EQ(manager_.stats().misses, 1u);
  EXPECT_EQ(manager_.stats().hits, 3u);
}

TEST_F(FlowContextManagerTest, FailedBindReachesTheNicUnbound) {
  // Both contexts are pinned by queued descriptors, so binding a third
  // session fails: its run stays unbound (id 0, never a context's id),
  // and the NIC counts a miss per record and encrypts nothing.
  for (std::uint64_t session = 1; session <= 2; ++session) {
    sim::SegmentDescriptor busy = record_run(session * 100, 1);
    busy.records.context_id =
        must_acquire(session, 0, session * 100)->context_id;
    nic_.post_segment(0, std::move(busy));
  }
  sim::SegmentDescriptor d = record_run(300, 3);
  manager_.bind_tx(FlowKey{kSmt, 3, 0}, tls::CipherSuite::aes_128_gcm_sha256,
                   test_keys(0x10), d.records, nullptr);
  EXPECT_EQ(manager_.stats().acquire_failures, 1u);
  EXPECT_EQ(d.records.context_id, 0u);
  EXPECT_FALSE(manager_.holds(FlowKey{kSmt, 3, 0}));

  nic_.post_segment(1, std::move(d));
  loop_.run();
  EXPECT_EQ(nic_.counters().context_misses, 3u);
  EXPECT_EQ(nic_.counters().records_encrypted, 2u);  // the pinned two only
  EXPECT_EQ(nic_.counters().resyncs, 0u);
}

// --- endpoint-level thrash test -------------------------------------------
//
// Sessions >> contexts over a real two-host SMT-hw stack: every message
// must still decrypt (zero out-of-sequence records, zero decrypt
// failures) while the manager cycles contexts underneath.

TEST(ContextLruEndToEnd, ThrashingSessionsStayCorrect) {
  sim::ShardedEngine engine(1);
  stack::HostConfig hc;
  hc.nic.max_flow_contexts = 4;  // brutal: fewer contexts than sessions
  const auto topology = test::two_host_topology(engine, hc);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  SmtConfig config;
  config.hw_offload = true;
  const transport::PeerAddr server_addr{2, 80};
  SmtEndpoint server(server_host, 80, config);

  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kRounds = 6;
  std::vector<std::unique_ptr<SmtEndpoint>> clients;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::uint16_t port = std::uint16_t(1000 + s);
    auto client = std::make_unique<SmtEndpoint>(client_host, port, config);
    const auto tx = test_keys(std::uint8_t(2 * s));
    const auto rx = test_keys(std::uint8_t(2 * s + 64));
    ASSERT_TRUE(client
                    ->register_session(server_addr,
                                       tls::CipherSuite::aes_128_gcm_sha256,
                                       tx, rx)
                    .ok());
    ASSERT_TRUE(server
                    .register_session({1, port},
                                      tls::CipherSuite::aes_128_gcm_sha256,
                                      rx, tx)
                    .ok());
    clients.push_back(std::move(client));
  }

  std::size_t delivered = 0;
  server.set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes) { ++delivered; });

  // Round-robin across sessions — worst case for the LRU. The ring is
  // drained after every send: with only 4 contexts, issuing more than 4
  // sends synchronously would (correctly) exhaust the table with busy
  // contexts, so pressure here comes purely from eviction/re-establish.
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(clients[s]
                      ->send_message(server_addr,
                                     Bytes(600 + 10 * s, std::uint8_t(round)))
                      .ok());
      engine.run();
    }
  }
  engine.run();

  EXPECT_EQ(delivered, kSessions * kRounds);
  const auto& nic = client_host.nic().counters();
  EXPECT_EQ(nic.out_of_sequence_records, 0u);
  EXPECT_EQ(nic.context_misses, 0u);
  EXPECT_EQ(server.stats().decrypt_failures, 0u);
  EXPECT_EQ(server.stats().replays_dropped, 0u);

  const auto& ctx = client_host.flow_contexts().stats();
  EXPECT_GT(ctx.evictions, 0u);       // the table really did thrash
  EXPECT_GT(ctx.reestablished, 0u);   // evicted keys came back
  EXPECT_LE(client_host.nic().active_contexts(), 4u);

  // Stats are self-consistent: every re-establishment is a miss, and the
  // NIC never held more than max_flow_contexts.
  EXPECT_GE(ctx.misses, ctx.reestablished);
  EXPECT_EQ(ctx.acquire_failures, 0u);
}

TEST(ContextLruEndToEnd, RekeyInvalidatesAndRecovers) {
  sim::ShardedEngine engine(1);
  stack::HostConfig hc;
  hc.nic.max_flow_contexts = 8;
  const auto topology = test::two_host_topology(engine, hc);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  SmtConfig config;
  config.hw_offload = true;
  const transport::PeerAddr server_addr{2, 80};
  SmtEndpoint server(server_host, 80, config);
  SmtEndpoint client(client_host, 1000, config);

  const auto tx1 = test_keys(0x30), rx1 = test_keys(0x40);
  ASSERT_TRUE(client
                  .register_session(server_addr,
                                    tls::CipherSuite::aes_128_gcm_sha256,
                                    tx1, rx1)
                  .ok());
  ASSERT_TRUE(server
                  .register_session({1, 1000},
                                    tls::CipherSuite::aes_128_gcm_sha256,
                                    rx1, tx1)
                  .ok());
  std::size_t delivered = 0;
  server.set_on_message([&](SmtEndpoint::MessageMeta, Bytes) { ++delivered; });

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.send_message(server_addr, Bytes(500, 0x01)).ok());
  }
  engine.run();
  ASSERT_EQ(delivered, 6u);
  EXPECT_GT(client_host.nic().active_contexts(), 0u);

  // Rekey drops the leases (possibly deferred by the NIC) and traffic
  // continues under the new keys with freshly established contexts.
  const auto tx2 = test_keys(0x50), rx2 = test_keys(0x60);
  ASSERT_TRUE(client
                  .rekey_session(server_addr,
                                 tls::CipherSuite::aes_128_gcm_sha256, tx2,
                                 rx2)
                  .ok());
  ASSERT_TRUE(server
                  .rekey_session({1, 1000},
                                 tls::CipherSuite::aes_128_gcm_sha256, rx2,
                                 tx2)
                  .ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.send_message(server_addr, Bytes(500, 0x02)).ok());
  }
  engine.run();
  EXPECT_EQ(delivered, 12u);
  EXPECT_EQ(client_host.nic().counters().out_of_sequence_records, 0u);
  EXPECT_EQ(server.stats().decrypt_failures, 0u);
}

TEST(ContextLruEndToEnd, ServerSideRxContextPressure) {
  // The receive half: a server with a tiny context table decrypting
  // traffic from many sessions leases RX contexts from the same LRU
  // manager. The table thrashes (evictions + re-establishments on the
  // SERVER host) while every message still decrypts; replies create TX
  // pressure on the same table concurrently.
  sim::ShardedEngine engine(1);
  stack::HostConfig hc;
  hc.nic.max_flow_contexts = 4;
  const auto topology = test::two_host_topology(engine, hc);
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);

  SmtConfig config;
  config.hw_offload = true;
  const transport::PeerAddr server_addr{2, 80};
  SmtEndpoint server(server_host, 80, config);

  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kRounds = 4;
  std::vector<std::unique_ptr<SmtEndpoint>> clients;
  std::size_t echoed = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::uint16_t port = std::uint16_t(1000 + s);
    auto client = std::make_unique<SmtEndpoint>(client_host, port, config);
    const auto tx = test_keys(std::uint8_t(2 * s));
    const auto rx = test_keys(std::uint8_t(2 * s + 64));
    ASSERT_TRUE(client
                    ->register_session(server_addr,
                                       tls::CipherSuite::aes_128_gcm_sha256,
                                       tx, rx)
                    .ok());
    ASSERT_TRUE(server
                    .register_session({1, port},
                                      tls::CipherSuite::aes_128_gcm_sha256,
                                      rx, tx)
                    .ok());
    client->set_on_message(
        [&echoed](SmtEndpoint::MessageMeta, Bytes) { ++echoed; });
    clients.push_back(std::move(client));
  }

  std::size_t delivered = 0;
  server.set_on_message([&](SmtEndpoint::MessageMeta meta, Bytes data) {
    ++delivered;
    // Echo back: server TX + client RX share the pressure.
    ASSERT_TRUE(
        server.send_message({meta.peer.ip, meta.peer.port}, std::move(data))
            .ok());
  });

  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(clients[s]
                      ->send_message(server_addr, Bytes(400, std::uint8_t(s)))
                      .ok());
      engine.run();
    }
  }
  engine.run();

  EXPECT_EQ(delivered, kSessions * kRounds);
  EXPECT_EQ(echoed, kSessions * kRounds);
  EXPECT_EQ(server.stats().decrypt_failures, 0u);

  // The server really did lease, evict and re-establish RX contexts.
  EXPECT_GT(server.stats().rx_contexts_created, kSessions);
  const auto& server_ctx = server_host.flow_contexts().stats();
  EXPECT_GT(server_ctx.evictions, 0u);
  EXPECT_GT(server_ctx.reestablished, 0u);
  EXPECT_LE(server_host.nic().active_contexts(), 4u);

  // Correctness invariants on both NICs.
  EXPECT_EQ(client_host.nic().counters().out_of_sequence_records, 0u);
  EXPECT_EQ(server_host.nic().counters().out_of_sequence_records, 0u);
  EXPECT_EQ(client_host.nic().counters().context_misses, 0u);
  EXPECT_EQ(server_host.nic().counters().context_misses, 0u);
  for (const auto& client : clients) {
    EXPECT_EQ(client->stats().decrypt_failures, 0u);
  }
}

TEST(ContextLruEndToEnd, SmtAndKtlsOnOnePortAndPeerStayApart) {
  // The client's SMT endpoint listens on port 40000 and its kTLS
  // connection leaves from ephemeral port 40000, both to port 80 on one
  // peer. Their TX leases must stay distinct contexts, or records go out
  // under the wrong key.
  sim::ShardedEngine engine(1);
  const auto topology = test::two_host_topology(engine, stack::HostConfig{});
  stack::Host& client_host = topology->host(0);
  stack::Host& server_host = topology->host(1);
  const auto suite = tls::CipherSuite::aes_128_gcm_sha256;

  SmtConfig smt_config;
  smt_config.hw_offload = true;
  SmtEndpoint smt_client(client_host, 40000, smt_config);
  SmtEndpoint smt_server(server_host, 80, smt_config);
  ASSERT_TRUE(smt_client
                  .register_session(PeerAddr{2, 80}, suite, test_keys(0x70),
                                    test_keys(0x72))
                  .ok());
  ASSERT_TRUE(smt_server
                  .register_session(PeerAddr{1, 40000}, suite,
                                    test_keys(0x72), test_keys(0x70))
                  .ok());

  baselines::KtlsConfig ktls_config;
  ktls_config.hw_offload = true;
  baselines::KtlsEndpoint ktls_client(client_host, 1000, ktls_config);
  baselines::KtlsEndpoint ktls_server(server_host, 80);
  ktls_server.set_on_accept([&](baselines::KtlsEndpoint::ConnId conn) {
    ASSERT_TRUE(ktls_server
                    .register_session(conn, suite, test_keys(0x76),
                                      test_keys(0x74))
                    .ok());
  });
  const auto conn = ktls_client.connect(2, 80);
  ASSERT_EQ(ktls_client.tcp().flow_of(conn)->src_port, 40000);
  ASSERT_TRUE(ktls_client
                  .register_session(conn, suite, test_keys(0x74),
                                    test_keys(0x76))
                  .ok());

  int smt_delivered = 0;
  smt_server.set_on_message(
      [&](SmtEndpoint::MessageMeta, Bytes) { ++smt_delivered; });
  std::size_t ktls_bytes = 0;
  ktls_server.set_on_data([&](baselines::KtlsEndpoint::ConnId, Bytes data) {
    ktls_bytes += data.size();
  });
  engine.loop(0).run();  // the server accepts and registers its keys
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        smt_client.send_message(PeerAddr{2, 80}, Bytes(3000, std::uint8_t(i)))
            .ok());
    ASSERT_TRUE(ktls_client.send(conn, Bytes(3000, std::uint8_t(i))).ok());
  }
  engine.loop(0).run();

  EXPECT_EQ(smt_delivered, 8);
  EXPECT_EQ(ktls_bytes, 8u * 3000u);
  EXPECT_EQ(smt_server.stats().decrypt_failures, 0u);
  EXPECT_EQ(ktls_server.stats().decrypt_failures, 0u);
  EXPECT_EQ(client_host.nic().counters().context_misses, 0u);
}

}  // namespace
}  // namespace smt::proto
