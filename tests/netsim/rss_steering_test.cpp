// RSS indirection-table contract (ethtool -X semantics): default
// round-robin spread, whole-table validation, and the order guarantee —
// one flow's frames land on exactly one ring at any instant and are never
// reordered across a reprogram (deferred entry flips).
#include <gtest/gtest.h>

#include <set>

#include "netsim/nic.hpp"

namespace smt::sim {
namespace {

class RssSteeringTest : public ::testing::Test {
 protected:
  static NicConfig make_config() {
    NicConfig config;
    config.num_queues = 4;
    config.rx_burst = 16;
    config.rx_coalesce_frames = 16;
    config.rx_coalesce_usecs = 0.0;  // fire immediately
    return config;
  }

  explicit RssSteeringTest(NicConfig config = make_config())
      : nic_(loop_, config) {
    nic_.set_rx_handler([this](Packet pkt) {
      arrivals_.push_back({loop_.now(), std::move(pkt)});
    });
  }

  static Packet make_packet(std::uint64_t msg_id, std::uint16_t src_port = 9) {
    Packet pkt;
    pkt.hdr.flow.src_ip = 1;
    pkt.hdr.flow.dst_ip = 2;
    pkt.hdr.flow.src_port = src_port;
    pkt.hdr.flow.dst_port = 80;
    pkt.hdr.flow.proto = Proto::smt;
    pkt.hdr.msg_id = msg_id;
    return pkt;
  }

  /// A full-table program that steers `entry` to `ring` and leaves every
  /// other entry at its currently programmed value.
  std::vector<std::size_t> retarget(std::size_t entry, std::size_t ring) {
    std::vector<std::size_t> table = nic_.rss_indirection();
    table[entry] = ring;
    return table;
  }

  struct Arrival {
    SimTime when;
    Packet pkt;
  };

  EventLoop loop_;
  Nic nic_;
  std::vector<Arrival> arrivals_;
};

TEST_F(RssSteeringTest, DefaultTableIsUniformRoundRobinOverActiveRings) {
  const std::vector<std::size_t> table = nic_.rss_indirection();
  ASSERT_EQ(table.size(), nic_.config().rss_indirection_size);
  ASSERT_EQ(table.size(), 128u);
  std::vector<std::size_t> per_ring(nic_.config().num_queues, 0);
  for (std::size_t entry = 0; entry < table.size(); ++entry) {
    EXPECT_EQ(table[entry], entry % nic_.config().num_queues);
    ++per_ring[table[entry]];
  }
  // 128 entries over 4 rings: exactly 32 each — the `ethtool -X equal`
  // spread.
  for (const std::size_t count : per_ring) EXPECT_EQ(count, 32u);
}

TEST_F(RssSteeringTest, RejectsOutOfRangeRingIds) {
  std::vector<std::size_t> table = nic_.rss_indirection();
  table[0] = nic_.config().num_queues;  // one past the last ring
  const Status st = nic_.set_rss_indirection(table);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::invalid_argument);
  // A rejected program must not have partially applied.
  EXPECT_EQ(nic_.rss_indirection()[0], 0u);
  EXPECT_EQ(nic_.counters().rss_reprograms, 0u);
}

TEST_F(RssSteeringTest, RejectsTableSizeMismatch) {
  // ethtool -X writes the WHOLE table: a partial write is a driver bug.
  const Status st = nic_.set_rss_indirection({0, 1, 2, 3});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::invalid_argument);
}

TEST_F(RssSteeringTest, ReprogramRedirectsIdleEntryImmediately) {
  const FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t entry = flow.hash() % nic_.rss_indirection().size();
  const std::size_t old_ring = nic_.rx_queue_for(flow);
  const std::size_t new_ring = (old_ring + 1) % nic_.config().num_queues;

  ASSERT_TRUE(nic_.set_rss_indirection(retarget(entry, new_ring)).ok());
  // Old ring idle: the flip is immediate, nothing deferred.
  EXPECT_EQ(nic_.rx_queue_for(flow), new_ring);
  EXPECT_EQ(nic_.rss_pending_entries(), 0u);
  EXPECT_EQ(nic_.counters().rss_reprograms, 1u);
  EXPECT_EQ(nic_.counters().rss_deferred_entries, 0u);

  nic_.receive(make_packet(1));
  loop_.run();
  EXPECT_EQ(nic_.rx_ring_stats(new_ring).frames, 1u);
  EXPECT_EQ(nic_.rx_ring_stats(old_ring).frames, 0u);
}

TEST_F(RssSteeringTest, FlowLandsOnExactlyOneRingAcrossReprogram) {
  // The order guard: frames pending on the old ring hold the entry there;
  // the flip happens only once the old ring drains, so at no instant do
  // two rings hold the flow's frames — and delivery stays strictly FIFO.
  const FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t entry = flow.hash() % nic_.rss_indirection().size();
  const std::size_t old_ring = nic_.rx_queue_for(flow);
  const std::size_t new_ring = (old_ring + 1) % nic_.config().num_queues;

  nic_.receive(make_packet(0));
  nic_.receive(make_packet(1));  // pending in old_ring (drain at 1200 ns)
  ASSERT_TRUE(nic_.set_rss_indirection(retarget(entry, new_ring)).ok());
  // Deferred: the live lookup still routes to the draining old ring...
  EXPECT_EQ(nic_.rx_queue_for(flow), old_ring);
  EXPECT_EQ(nic_.rss_pending_entries(), 1u);
  EXPECT_EQ(nic_.counters().rss_deferred_entries, 1u);
  // ...but the PROGRAMMED table already reports the target (ethtool -x).
  EXPECT_EQ(nic_.rss_indirection()[entry], new_ring);

  nic_.receive(make_packet(2));  // arrives mid-reprogram: old ring too
  loop_.run();
  // Old ring drained -> entry flipped; later frames land on the new ring.
  EXPECT_EQ(nic_.rss_pending_entries(), 0u);
  EXPECT_EQ(nic_.rx_queue_for(flow), new_ring);
  nic_.receive(make_packet(3));
  nic_.receive(make_packet(4));
  loop_.run();

  ASSERT_EQ(arrivals_.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals_[i].pkt.hdr.msg_id, i) << "reorder at " << i;
  }
  EXPECT_EQ(nic_.rx_ring_stats(old_ring).frames, 3u);
  EXPECT_EQ(nic_.rx_ring_stats(new_ring).frames, 2u);
  EXPECT_EQ(nic_.counters().rx_delivered, 5u);
}

TEST_F(RssSteeringTest, ReprogramFlushesHeldOffOldRing) {
  // A hold-off timer must not stall the flip: the reprogram flushes the
  // old ring's interrupt immediately instead of waiting out rx-usecs.
  NicConfig config = make_config();
  config.rx_coalesce_frames = 16;
  config.rx_coalesce_usecs = 50.0;  // long hold-off
  Nic nic(loop_, config);
  std::vector<SimTime> times;
  nic.set_rx_handler([&](Packet) { times.push_back(loop_.now()); });

  const FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t entry = flow.hash() % nic.rss_indirection().size();
  const std::size_t old_ring = nic.rx_queue_for(flow);
  const std::size_t new_ring = (old_ring + 1) % config.num_queues;

  nic.receive(make_packet(0));  // held off until 50 us
  std::vector<std::size_t> table = nic.rss_indirection();
  table[entry] = new_ring;
  ASSERT_TRUE(nic.set_rss_indirection(table).ok());
  loop_.run();
  ASSERT_EQ(times.size(), 1u);
  // Flushed at reprogram time: interrupt cost only, not the 50 us timer.
  EXPECT_EQ(times[0], nsec(1200));
  EXPECT_EQ(nic.rx_queue_for(flow), new_ring);
}

TEST_F(RssSteeringTest, ManyFlowHashSpreadHitsEveryTableEntry) {
  // With a small table, a modest set of distinct five-tuples must exercise
  // EVERY entry (the SplitMix64-finalised hash spreads the low bits): 64
  // flows over an 8-entry table.
  NicConfig config = make_config();
  config.rss_indirection_size = 8;
  Nic nic(loop_, config);
  std::size_t delivered = 0;
  nic.set_rx_handler([&](Packet) { ++delivered; });

  std::set<std::size_t> entries_hit;
  std::set<std::size_t> rings_hit;
  for (std::uint16_t port = 100; port < 164; ++port) {  // 64 flows
    const Packet pkt = make_packet(port, port);
    entries_hit.insert(pkt.hdr.flow.hash() % nic.rss_indirection().size());
    rings_hit.insert(nic.rx_queue_for(pkt.hdr.flow));
    nic.receive(pkt);
  }
  loop_.run();
  EXPECT_EQ(entries_hit.size(), 8u);  // every table entry
  EXPECT_EQ(rings_hit.size(), nic.config().num_queues);  // every ring
  EXPECT_EQ(delivered, 64u);
  for (std::size_t ring = 0; ring < nic.config().num_queues; ++ring) {
    EXPECT_GT(nic.rx_ring_stats(ring).frames, 0u) << "ring " << ring;
  }
}

TEST_F(RssSteeringTest, SingleEntryTableDegeneratesToOneRing) {
  NicConfig config = make_config();
  config.rss_indirection_size = 1;
  Nic nic(loop_, config);
  for (std::uint16_t port = 100; port < 120; ++port) {
    EXPECT_EQ(nic.rx_queue_for(make_packet(0, port).hdr.flow), 0u);
  }
}

TEST_F(RssSteeringTest, RevertBeforeDrainCancelsPendingFlip) {
  // Program A->B while A is busy (deferred), then program back to A: the
  // pending flip must be cancelled, not applied after the drain.
  const FiveTuple flow = make_packet(0).hdr.flow;
  const std::size_t entry = flow.hash() % nic_.rss_indirection().size();
  const std::size_t old_ring = nic_.rx_queue_for(flow);
  const std::size_t new_ring = (old_ring + 1) % nic_.config().num_queues;

  nic_.receive(make_packet(0));
  ASSERT_TRUE(nic_.set_rss_indirection(retarget(entry, new_ring)).ok());
  EXPECT_EQ(nic_.rss_pending_entries(), 1u);
  ASSERT_TRUE(nic_.set_rss_indirection(retarget(entry, old_ring)).ok());
  EXPECT_EQ(nic_.rss_pending_entries(), 0u);
  loop_.run();
  EXPECT_EQ(nic_.rx_queue_for(flow), old_ring);
}

TEST_F(RssSteeringTest, ReprogramCostChargedToPoster) {
  SimDuration charged = 0;
  ASSERT_TRUE(nic_
                  .set_rss_indirection(nic_.rss_indirection(),
                                       [&](SimDuration cost) {
                                         charged += cost;
                                       })
                  .ok());
  EXPECT_EQ(charged, Nic::kRssReprogramCost);
}

}  // namespace
}  // namespace smt::sim
