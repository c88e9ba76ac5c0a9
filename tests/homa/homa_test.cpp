#include "transport/homa/homa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "../common/topology_helpers.hpp"

namespace smt::transport {
namespace {

class HomaTest : public ::testing::Test {
 protected:
  HomaTest()
      : topology_(
            test::two_host_topology(engine_, host_config(), link_config())),
        client_host_(topology_->host(0)),
        server_host_(topology_->host(1)),
        client_(client_host_, 1000),
        server_(server_host_, 80) {
    server_.set_on_message(
        [this](HomaEndpoint::MessageMeta meta, Bytes data) {
          received_.emplace_back(meta, std::move(data));
        });
  }

  static stack::HostConfig host_config() {
    stack::HostConfig config;
    config.app_cores = 2;
    config.softirq_cores = 2;
    return config;
  }
  static sim::LinkConfig link_config() {
    sim::LinkConfig config;
    config.propagation = usec(1);
    return config;
  }

  PeerAddr server_addr() const { return PeerAddr{2, 80}; }

  sim::ShardedEngine engine_{1};
  sim::EventLoop& loop_ = engine_.loop(0);
  std::unique_ptr<stack::Topology> topology_;
  stack::Host& client_host_;
  stack::Host& server_host_;
  HomaEndpoint client_;
  HomaEndpoint server_;
  std::vector<std::pair<HomaEndpoint::MessageMeta, Bytes>> received_;
};

TEST_F(HomaTest, SmallMessageDelivered) {
  const auto id = client_.send_message(server_addr(),
                                       to_bytes(std::string_view("hello homa")));
  ASSERT_TRUE(id.ok());
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, to_bytes(std::string_view("hello homa")));
  EXPECT_EQ(received_[0].first.msg_id, id.value());
  EXPECT_EQ(received_[0].first.peer.ip, 1u);
}

TEST_F(HomaTest, EmptyMessageDelivered) {
  ASSERT_TRUE(client_.send_message(server_addr(), {}).ok());
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_TRUE(received_[0].second.empty());
}

TEST_F(HomaTest, MessageBoundariesPreserved) {
  client_.send_message(server_addr(), Bytes(100, 0xaa));
  client_.send_message(server_addr(), Bytes(200, 0xbb));
  client_.send_message(server_addr(), Bytes(300, 0xcc));
  loop_.run();
  ASSERT_EQ(received_.size(), 3u);
  std::multiset<std::size_t> sizes;
  for (const auto& [meta, data] : received_) sizes.insert(data.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{100, 200, 300}));
}

TEST_F(HomaTest, LargeMessageUsesGrants) {
  // 1 MB >> unscheduled bytes: the transfer requires GRANT packets.
  Bytes big(1 << 20, 0);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i % 253);
  client_.send_message(server_addr(), big);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, big);
  EXPECT_GT(server_.stats().grants_sent, 0u);
}

TEST_F(HomaTest, TooLargeMessageRejected) {
  const auto result = client_.send_message(server_addr(), Bytes((1 << 20) + 1, 0));
  EXPECT_EQ(result.code(), Errc::message_too_large);
}

TEST_F(HomaTest, FullMessageDeliveryNotStreaming) {
  // Homa delivers only COMPLETE messages (§5.1): nothing is visible at the
  // app until the whole 512 KB message has arrived.
  Bytes big(512 * 1024, 0x01);
  client_.send_message(server_addr(), big);
  std::size_t messages_at_30us = 999;
  loop_.schedule(usec(30), [&] { messages_at_30us = received_.size(); });
  loop_.run();
  EXPECT_EQ(messages_at_30us, 0u);
  ASSERT_EQ(received_.size(), 1u);
}

TEST_F(HomaTest, LostPacketRecoveredByResend) {
  int dropped = 0;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  Bytes data(10000, 0x3c);
  client_.send_message(server_addr(), data);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second, data);
  EXPECT_GT(server_.stats().resends_requested, 0u);
  EXPECT_GT(client_.stats().packets_retransmitted, 0u);
}

TEST_F(HomaTest, LossInOneMessageDoesNotBlockAnother) {
  // Out-of-order message delivery (§2.2): message A loses a packet, but
  // message B — sent later — completes first. No transport-level HoLB.
  bool dropped = false;
  topology_->direct_link()->a2b().set_drop_predicate([&dropped](const sim::Packet& pkt) {
    if (pkt.hdr.type == sim::PacketType::data && !dropped &&
        pkt.hdr.msg_id == 1) {
      dropped = true;
      return true;
    }
    return false;
  });
  std::vector<std::uint64_t> completion_order;
  server_.set_on_message([&](HomaEndpoint::MessageMeta meta, Bytes) {
    completion_order.push_back(meta.msg_id);
  });
  client_.send_message(server_addr(), Bytes(5000, 0xaa));  // msg 1, loses a pkt
  client_.send_message(server_addr(), Bytes(100, 0xbb));   // msg 2
  loop_.run();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 2u);  // B first — A is waiting on RESEND
  EXPECT_EQ(completion_order[1], 1u);
}

TEST_F(HomaTest, SenderNotifiedOnAck) {
  std::vector<std::pair<PeerAddr, std::uint64_t>> sent;
  client_.set_on_sent(
      [&](PeerAddr peer, std::uint64_t id) { sent.emplace_back(peer, id); });
  const auto id = client_.send_message(server_addr(), Bytes(100, 0x01));
  loop_.run();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, server_addr());
  EXPECT_EQ(sent[0].second, id.value());
}

TEST_F(HomaTest, ExplicitMessageIds) {
  std::vector<SegmentSpec> segments(1);
  segments[0].payload = Bytes(64, 0x11);
  const auto id = client_.send_segments(server_addr(), std::move(segments), 64,
                                        std::uint64_t{777});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 777u);
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first.msg_id, 777u);
}

TEST_F(HomaTest, DuplicateExplicitIdRejected) {
  std::vector<SegmentSpec> s1(1), s2(1);
  s1[0].payload = Bytes(10, 1);
  s2[0].payload = Bytes(10, 2);
  ASSERT_TRUE(client_.send_segments(server_addr(), std::move(s1), 10,
                                    std::uint64_t{5}).ok());
  EXPECT_EQ(client_
                .send_segments(server_addr(), std::move(s2), 10,
                               std::uint64_t{5})
                .code(),
            Errc::invalid_argument);
}

TEST_F(HomaTest, BidirectionalRpc) {
  server_.set_on_message([this](HomaEndpoint::MessageMeta meta, Bytes data) {
    server_.send_message(PeerAddr{meta.peer.ip, 1000}, std::move(data));
  });
  Bytes response;
  client_.set_on_message(
      [&](HomaEndpoint::MessageMeta, Bytes data) { response = std::move(data); });
  client_.send_message(server_addr(), to_bytes(std::string_view("request")));
  loop_.run();
  EXPECT_EQ(response, to_bytes(std::string_view("request")));
}

TEST_F(HomaTest, MessagesSpreadAcrossSoftirqCores) {
  // Two concurrent large messages from one flow 5-tuple land on DIFFERENT
  // softirq cores (SRPT dynamic distribution) — unlike TCP's RSS pinning.
  client_.send_message(server_addr(), Bytes(50000, 0x01));
  client_.send_message(server_addr(), Bytes(50000, 0x02));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_GT(server_host_.softirq_core(0).busy_ns(), 0u);
  EXPECT_GT(server_host_.softirq_core(1).busy_ns(), 0u);
}

TEST_F(HomaTest, PrePostHookSeesSegments) {
  std::vector<std::size_t> queues;
  std::vector<PeerAddr> peers;
  client_.set_pre_post([&](PeerAddr dst, std::size_t queue,
                           const sim::SegmentDescriptor&, stack::CpuCore*) {
    peers.push_back(dst);
    queues.push_back(queue);
  });
  std::vector<SegmentSpec> segments(2);
  segments[0].payload = Bytes(65536, 0x01);
  segments[1].payload = Bytes(1000, 0x02);
  client_.send_segments(server_addr(), std::move(segments), 65536 + 1000,
                        std::uint64_t{3});
  loop_.run();
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], queues[1]);  // same queue for the whole message
  EXPECT_EQ(peers, std::vector<PeerAddr>(2, server_addr()));
  EXPECT_EQ(queues[0], client_.queue_for_message(3));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second.size(), 65536u + 1000u);
}

TEST_F(HomaTest, ManyConcurrentMessagesAllComplete) {
  constexpr int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    client_.send_message(server_addr(), Bytes(std::size_t(100 + i * 37), 0x01));
  }
  loop_.run();
  EXPECT_EQ(received_.size(), std::size_t(kCount));
}

TEST_F(HomaTest, AckedMessagesLeaveNoTimersPending) {
  // A lossless exchange arms the receiver's resend timer (the large
  // message waits on grants) and each sender backstop; the ACK path
  // cancels both. So nothing is pending once the last ACK and the last
  // delivery are processed, and run() ends there instead of at the 5 ms
  // backstop.
  std::size_t events_seen = 0;
  std::size_t pending_at_last = 1;
  SimTime last_at = -1;
  const auto note = [&] {
    ++events_seen;
    pending_at_last = loop_.pending();
    last_at = loop_.now();
  };
  client_.set_on_sent([&](PeerAddr, std::uint64_t) { note(); });
  server_.set_on_message([&](HomaEndpoint::MessageMeta, Bytes) { note(); });
  client_.send_message(server_addr(), Bytes(100, 0x01));
  client_.send_message(server_addr(), Bytes(150000, 0x02));
  loop_.run();
  ASSERT_EQ(events_seen, 4u);  // two ACKs, two deliveries
  EXPECT_EQ(pending_at_last, 0u);
  EXPECT_EQ(loop_.now(), last_at);
  EXPECT_LT(last_at, HomaEndpoint::kResendInterval);
}

// Reassembly: a message's data packets, hand-built the way TSO cuts them
// (IPID offsets within one segment), or as a retransmission carrying an
// explicit resend offset.
sim::Packet homa_data(std::uint64_t msg_id, const PayloadSlice& message,
                      std::size_t offset, std::size_t length,
                      std::size_t mtu, bool retransmit) {
  sim::Packet pkt;
  pkt.hdr.flow = sim::FiveTuple{1, 2, 1000, 80, sim::Proto::homa};
  pkt.hdr.msg_id = msg_id;
  pkt.hdr.msg_len = std::uint32_t(message.size());
  pkt.hdr.ipid_base = 100;
  if (retransmit) {
    pkt.hdr.ip_id = 100;
    pkt.hdr.resend_off = std::uint32_t(offset) + 1;
  } else {
    pkt.hdr.ip_id = std::uint16_t(100 + offset / mtu);
  }
  pkt.payload = message.subslice(offset, length);
  return pkt;
}

TEST_F(HomaTest, ShuffledDuplicatedOverlappingPacketsReassembleExactly) {
  const std::size_t mtu = server_host_.nic().config().mtu_payload;
  Bytes bytes(10 * mtu + 321);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = std::uint8_t(i * 7 + 3);
  }
  const PayloadSlice message(bytes);
  std::vector<sim::Packet> in_order;
  for (std::size_t off = 0; off < message.size(); off += mtu) {
    in_order.push_back(homa_data(1, message, off,
                                 std::min(mtu, message.size() - off), mtu,
                                 false));
  }

  // The same message again under id 2: originals shuffled, a few sent
  // twice, and retransmits whose ranges straddle packet boundaries. The
  // last original packet is held back so the message completes on it.
  std::vector<sim::Packet> adversarial;
  for (const sim::Packet& pkt : in_order) {
    sim::Packet copy = pkt;
    copy.hdr.msg_id = 2;
    adversarial.push_back(std::move(copy));
  }
  std::mt19937 rng(7);
  std::shuffle(adversarial.begin(), adversarial.end() - 1, rng);
  const std::vector<sim::Packet> originals = adversarial;
  adversarial.insert(adversarial.begin() + 3, originals[1]);
  adversarial.insert(adversarial.begin() + 6, originals[4]);
  adversarial.insert(adversarial.begin() + 2,
                     homa_data(2, message, mtu / 2, mtu, mtu, true));
  adversarial.insert(adversarial.begin() + 8,
                     homa_data(2, message, 4 * mtu + 17, 3 * mtu, mtu, true));
  adversarial.insert(adversarial.end() - 1,
                     homa_data(2, message, 9 * mtu - 5, 10, mtu, true));

  for (sim::Packet& pkt : in_order) server_host_.nic().receive(std::move(pkt));
  loop_.run();
  for (sim::Packet& pkt : adversarial) {
    server_host_.nic().receive(std::move(pkt));
  }
  loop_.run();

  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].first.msg_id, 1u);
  EXPECT_EQ(received_[1].first.msg_id, 2u);
  EXPECT_EQ(received_[0].first.peer, received_[1].first.peer);
  EXPECT_EQ(received_[0].second, bytes);
  EXPECT_EQ(received_[1].second, bytes);
  EXPECT_EQ(server_.stats().messages_received, 2u);
}

// Reassembly of one message from hand-built packets: an in-order prefix
// is appended straight into the buffer, and the first packet past it
// switches the message to the interval map. Every case must deliver the
// exact bytes once.
class HomaReassemblyTest : public HomaTest {
 protected:
  HomaReassemblyTest() : mtu_(server_host_.nic().config().mtu_payload) {}

  /// A message of `packets` MTU-sized packets, the last one 100 B short.
  PayloadSlice message(std::size_t packets) const {
    Bytes bytes(packets * mtu_ - 100);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = std::uint8_t(i * 11 + 5);
    }
    return PayloadSlice(std::move(bytes));
  }

  /// Original (TSO-cut) packet `index` of `msg`.
  sim::Packet packet(const PayloadSlice& msg, std::size_t index) const {
    const std::size_t off = index * mtu_;
    return homa_data(7, msg, off, std::min(mtu_, msg.size() - off), mtu_,
                     false);
  }

  /// A retransmission of [offset, offset + length) with an explicit offset.
  sim::Packet resent(const PayloadSlice& msg, std::size_t offset,
                     std::size_t length) const {
    return homa_data(7, msg, offset, length, mtu_, true);
  }

  void deliver(std::vector<sim::Packet> packets) {
    for (sim::Packet& pkt : packets) {
      server_host_.nic().receive(std::move(pkt));
      loop_.run_until(loop_.now() + usec(5));
    }
    loop_.run();
  }

  void expect_delivered_once(const PayloadSlice& msg) const {
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_TRUE(msg == received_[0].second);
    EXPECT_EQ(server_.stats().messages_received, 1u);
  }

  const std::size_t mtu_;
};

TEST_F(HomaReassemblyTest, InOrder) {
  const PayloadSlice msg = message(5);
  deliver({packet(msg, 0), packet(msg, 1), packet(msg, 2), packet(msg, 3),
           packet(msg, 4)});
  expect_delivered_once(msg);
  EXPECT_EQ(server_.stats().resends_requested, 0u);
}

TEST_F(HomaReassemblyTest, SinglePacket) {
  const PayloadSlice msg = message(1);
  deliver({packet(msg, 0)});
  expect_delivered_once(msg);
}

TEST_F(HomaReassemblyTest, DuplicateInsideThePrefix) {
  const PayloadSlice msg = message(4);
  deliver({packet(msg, 0), packet(msg, 1), packet(msg, 0), packet(msg, 1),
           packet(msg, 2), packet(msg, 3)});
  expect_delivered_once(msg);
}

TEST_F(HomaReassemblyTest, OverlapThatExtendsThePrefix) {
  // A retransmission from inside the prefix to past its end, then one
  // that starts exactly at the new end.
  const PayloadSlice msg = message(4);
  deliver({packet(msg, 0), resent(msg, mtu_ / 2, mtu_ + 10),
           resent(msg, mtu_ / 2 + mtu_ + 10, mtu_ - 10 - mtu_ / 2),
           packet(msg, 2), packet(msg, 3)});
  expect_delivered_once(msg);
}

TEST_F(HomaReassemblyTest, OutOfOrderAfterAPrefix) {
  // Packets 0 and 1 form the prefix; 3 spills it into the interval map,
  // then 2 fills the gap, a duplicate of 0 lands on the map, and 4 ends.
  const PayloadSlice msg = message(5);
  deliver({packet(msg, 0), packet(msg, 1), packet(msg, 3), packet(msg, 2),
           packet(msg, 0), packet(msg, 4)});
  expect_delivered_once(msg);
}

TEST_F(HomaReassemblyTest, OutOfOrderFirstPacket) {
  // The very first packet is past offset 0: the prefix is empty.
  const PayloadSlice msg = message(3);
  deliver({packet(msg, 2), packet(msg, 1), packet(msg, 0)});
  expect_delivered_once(msg);
}

// The receiver's gap timer asks for the first missing range: past the
// in-order prefix, or the interval map's first gap after a spill.
class HomaResendRangeTest : public HomaReassemblyTest {
 protected:
  HomaResendRangeTest() {
    topology_->direct_link()->b2a().set_receiver([this](sim::Packet pkt) {
      if (pkt.hdr.type == sim::PacketType::resend) resends_.push_back(pkt);
    });
  }

  /// Delivers `packets`, then runs one resend interval past the last.
  void deliver_and_wait(std::vector<sim::Packet> packets) {
    for (sim::Packet& pkt : packets) {
      server_host_.nic().receive(std::move(pkt));
    }
    loop_.run_until(loop_.now() + HomaEndpoint::kResendInterval * 2 +
                    usec(50));
  }

  /// The first RESEND's [from, to).
  std::pair<std::size_t, std::size_t> first_resend() const {
    EXPECT_FALSE(resends_.empty());
    if (resends_.empty()) return {0, 0};
    return {resends_.front().hdr.resend_off - 1,
            resends_.front().hdr.grant_off};
  }

  std::vector<sim::Packet> resends_;
};

TEST_F(HomaResendRangeTest, AfterAPrefixAsksFromThePrefixEnd) {
  const PayloadSlice msg = message(4);
  deliver_and_wait({packet(msg, 0), packet(msg, 1)});
  EXPECT_EQ(first_resend(), std::make_pair(2 * mtu_, msg.size()));
  EXPECT_TRUE(received_.empty());
}

TEST_F(HomaResendRangeTest, AfterASpillAsksForTheFirstGap) {
  const PayloadSlice msg = message(5);
  deliver_and_wait({packet(msg, 0), packet(msg, 2), packet(msg, 4)});
  EXPECT_EQ(first_resend(), std::make_pair(mtu_, 2 * mtu_));
}

TEST_F(HomaResendRangeTest, WithNothingFromTheStartAsksFromZero) {
  const PayloadSlice msg = message(3);
  deliver_and_wait({packet(msg, 1)});
  EXPECT_EQ(first_resend(), std::make_pair(std::size_t(0), mtu_));
}

TEST_F(HomaTest, LossyLinkEventuallyDeliversEverything) {
  // A fresh testbed with a lossy link (re-wiring live hosts to a second
  // link is now a configuration error).
  sim::ShardedEngine engine(1);
  sim::LinkConfig lossy;
  lossy.fault.good_loss_rate = 0.05;  // uniform loss
  lossy.fault.seed = 9;
  lossy.propagation = usec(1);
  const auto topology = test::two_host_topology(engine, host_config(), lossy);
  HomaEndpoint client(topology->host(0), 1000);
  HomaEndpoint server(topology->host(1), 80);
  std::size_t received = 0;
  server.set_on_message([&](HomaEndpoint::MessageMeta, Bytes) { ++received; });
  for (int i = 0; i < 20; ++i) {
    client.send_message(server_addr(), Bytes(8000, std::uint8_t(i)));
  }
  engine.run();
  EXPECT_GT(topology->direct_link()->a2b().stats().dropped_by_fault, 0u);
  EXPECT_EQ(received, 20u);
}

// The completed-message dedup window (§4.3): a message's identity is kept
// for 30 ms and at most kDedupHistoryLimit completions, oldest first out.

TEST_F(HomaTest, DuplicateOfCompletedMessageInsideWindowIsAbsorbed) {
  std::vector<sim::Packet> captured;
  topology_->direct_link()->a2b().set_receiver([&](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::data) captured.push_back(pkt);
    server_host_.nic().receive(std::move(pkt));
  });
  client_.send_message(server_addr(), Bytes(300, 0x11));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(server_.table_audit().dedup_entries, 1u);

  // A late duplicate, well inside the 30 ms window.
  const SimTime completed_at = loop_.now();
  loop_.schedule(msec(10), [&] {
    server_host_.nic().receive(sim::Packet(captured.front()));
  });
  loop_.run();
  EXPECT_LT(loop_.now(), completed_at + msec(30));
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(server_.stats().messages_received, 1u);
  EXPECT_EQ(server_.table_audit().rx_messages, 0u);
}

TEST_F(HomaTest, DedupWindowIsCappedAtHistoryLimitOldestFirst) {
  constexpr std::size_t kMessages = HomaEndpoint::kDedupHistoryLimit + 1;
  std::map<std::uint64_t, sim::Packet> data_by_id;  // one packet each
  topology_->direct_link()->a2b().set_receiver([&](sim::Packet pkt) {
    if (pkt.hdr.type == sim::PacketType::data) {
      data_by_id.emplace(pkt.hdr.msg_id, pkt);
    }
    server_host_.nic().receive(std::move(pkt));
  });
  for (std::size_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(client_.send_message(server_addr(), Bytes(64, 0x22)).ok());
  }
  loop_.run();
  ASSERT_EQ(received_.size(), kMessages);
  ASSERT_EQ(data_by_id.size(), kMessages);
  // Every completion fell inside one retention window, so only the count
  // bound can have dropped the first completion's entry.
  ASSERT_LT(loop_.now(), msec(30));
  EXPECT_EQ(server_.table_audit().dedup_entries,
            HomaEndpoint::kDedupHistoryLimit);

  // The oldest completion's retransmission is reassembled again; the
  // second-oldest's is still absorbed.
  const std::uint64_t oldest = received_[0].first.msg_id;
  const std::uint64_t second = received_[1].first.msg_id;
  server_host_.nic().receive(sim::Packet(data_by_id.at(second)));
  server_host_.nic().receive(sim::Packet(data_by_id.at(oldest)));
  loop_.run();
  ASSERT_EQ(received_.size(), kMessages + 1);
  EXPECT_EQ(received_.back().first.msg_id, oldest);
  EXPECT_EQ(server_.stats().messages_received, kMessages + 1);
  EXPECT_EQ(server_.table_audit().dedup_entries,
            HomaEndpoint::kDedupHistoryLimit);
}

TEST_F(HomaTest, DedupEntriesOlderThanRetentionArePrunedByNextCompletion) {
  client_.send_message(server_addr(), Bytes(64, 0x33));
  loop_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(server_.table_audit().dedup_entries, 1u);

  // A second message completes more than 30 ms after the first: its
  // completion prunes the first one's entry and records its own.
  loop_.schedule(msec(31), [&] {
    client_.send_message(server_addr(), Bytes(64, 0x44));
  });
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(server_.table_audit().dedup_entries, 1u);
}

TEST_F(HomaTest, CompletionPrunesEntriesThatExpiredAfterItsLastPacket) {
  SimTime first_delivered = 0;
  SimTime second_delivered = 0;
  server_.set_on_message([&](HomaEndpoint::MessageMeta, Bytes) {
    (first_delivered == 0 ? first_delivered : second_delivered) =
        loop_.now();
  });
  client_.send_message(server_addr(), Bytes(64, 0x55));
  loop_.run();
  ASSERT_GT(first_delivered, 0);
  EXPECT_EQ(server_.table_audit().dedup_entries, 1u);

  // Interrupts go to softirq core 0; core 1, where the message is
  // processed, stays busy for 1 ms. The second message's only packet
  // reaches Homa 20 us before the first entry turns 30 ms old, and its
  // completion runs after that: only the completion can prune the entry.
  for (std::size_t ring = 0; ring < server_host_.nic().config().num_queues;
       ++ring) {
    server_host_.set_irq_affinity(ring, 0);
  }
  loop_.schedule_at(first_delivered + msec(30) - usec(20), [&] {
    server_host_.softirq_core(1).charge(msec(1));
    client_.send_message(server_addr(), Bytes(64, 0x66));
  });
  loop_.run();
  ASSERT_GT(second_delivered, first_delivered + msec(30));
  EXPECT_EQ(server_.table_audit().dedup_entries, 1u);
}

}  // namespace
}  // namespace smt::transport
