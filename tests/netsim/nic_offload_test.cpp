// Reproduces the autonomous-offload semantics of the paper's Figure 2 and
// the cross-queue non-atomicity hazard of §3.2 — the two hardware
// behaviours SMT's per-message record spaces and per-queue contexts are
// designed around.
#include <gtest/gtest.h>

#include "netsim/nic.hpp"
#include "smt/wire.hpp"
#include "tls/record.hpp"

namespace smt::sim {
namespace {

class NicOffloadTest : public ::testing::Test {
 protected:
  NicOffloadTest() : link_(loop_, LinkConfig{}), nic_(loop_, NicConfig{}) {
    nic_.attach_tx(&link_.a2b());
    link_.a2b().set_receiver([this](Packet pkt) {
      received_.push_back(std::move(pkt));
    });
    keys_.key = Bytes(16, 0x11);
    keys_.iv = Bytes(12, 0x22);
    opener_ = std::make_unique<tls::RecordProtection>(
        tls::CipherSuite::aes_128_gcm_sha256, keys_);
  }

  /// Builds a one-record TSO segment whose body is plaintext; the NIC is
  /// expected to encrypt it in line.
  SegmentDescriptor make_record_segment(std::uint32_t ctx, std::uint64_t seq,
                                        const Bytes& plaintext) {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::smt;
    d.segment.hdr.msg_id = seq;

    // Layout: 5-byte record header | plaintext+type byte | 16-byte tag room.
    const std::size_t inner_len = plaintext.size() + 1;  // + content type
    const std::size_t body_len = inner_len + 16;
    Bytes payload;
    append_u8(payload, 23);  // application_data
    append_u16be(payload, 0x0303);
    append_u16be(payload, std::uint16_t(body_len));
    append(payload, plaintext);
    append_u8(payload, 23);  // TLSInnerPlaintext content type byte
    payload.resize(payload.size() + 16, 0);  // tag space
    d.segment.payload = std::move(payload);

    d.records = InlineTls{seq, ctx, 1, 0};
    return d;
  }

  /// Reassembles all received packets into one buffer and tries to open it
  /// as a TLS record with sequence number `seq`.
  Result<tls::OpenedRecord> open_received(std::size_t index,
                                          std::uint64_t seq) {
    return opener_->open(seq, received_.at(index).payload);
  }

  std::uint32_t make_context(std::uint64_t initial_seq) {
    const auto ctx = nic_.create_flow_context(
        tls::CipherSuite::aes_128_gcm_sha256, keys_, initial_seq);
    EXPECT_TRUE(ctx.ok());
    return ctx.value();
  }

  EventLoop loop_;
  Link link_;
  Nic nic_;
  tls::TrafficKeys keys_;
  std::unique_ptr<tls::RecordProtection> opener_;
  std::vector<Packet> received_;
};

TEST_F(NicOffloadTest, InSequenceRecordsEncryptCorrectly) {
  // Figure 2 "In-seq.": S1 then S2 with a context expecting 1, 2.
  const std::uint32_t ctx = make_context(1);
  nic_.post_segment(0, make_record_segment(ctx, 1, to_bytes(std::string_view("S1"))));
  nic_.post_segment(0, make_record_segment(ctx, 2, to_bytes(std::string_view("S2"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(open_received(0, 1).value().payload, to_bytes(std::string_view("S1")));
  EXPECT_EQ(open_received(1, 2).value().payload, to_bytes(std::string_view("S2")));
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
}

TEST_F(NicOffloadTest, OutOfSequenceRecordIsCorrupted) {
  // Figure 2 "Out-seq.": the context expects S2 but S3 arrives; the NIC
  // encrypts with its internal counter and the wire record fails to
  // authenticate under the record's true sequence number.
  const std::uint32_t ctx = make_context(1);
  nic_.post_segment(0, make_record_segment(ctx, 1, to_bytes(std::string_view("S1"))));
  nic_.post_segment(0, make_record_segment(ctx, 3, to_bytes(std::string_view("S3"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_TRUE(open_received(0, 1).ok());
  EXPECT_EQ(open_received(1, 3).code(), Errc::decrypt_failed);  // corrupted
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 1u);
}

TEST_F(NicOffloadTest, ResyncRepairsOutOfSequence) {
  // Figure 2 "Out-resync": a resync descriptor (R3) retargets the internal
  // counter so S3 encrypts correctly.
  const std::uint32_t ctx = make_context(1);
  nic_.post_segment(0, make_record_segment(ctx, 1, to_bytes(std::string_view("S1"))));
  nic_.post_resync(0, ctx, 3);
  nic_.post_segment(0, make_record_segment(ctx, 3, to_bytes(std::string_view("S3"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_TRUE(open_received(0, 1).ok());
  EXPECT_TRUE(open_received(1, 3).ok());
  EXPECT_EQ(nic_.counters().resyncs, 1u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
}

TEST_F(NicOffloadTest, CrossQueueResyncIsNotAtomic) {
  // §3.2: two messages share one context but are posted to different
  // queues, each with its own resync. Round-robin interleaves the pairs:
  //   q0: [R(4), S4]   q1: [R(5), S5]
  // The NIC reads R4, R5, S4, S5 — S4 is encrypted under counter 5, which
  // then cascades: the bumped counter (6) corrupts S5 as well.
  const std::uint32_t ctx = make_context(0);
  nic_.post_resync(0, ctx, 4);
  nic_.post_resync(1, ctx, 5);
  nic_.post_segment(0, make_record_segment(ctx, 4, to_bytes(std::string_view("S4"))));
  nic_.post_segment(1, make_record_segment(ctx, 5, to_bytes(std::string_view("S5"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(open_received(0, 4).code(), Errc::decrypt_failed);
  EXPECT_EQ(open_received(1, 5).code(), Errc::decrypt_failed);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 2u);
}

TEST_F(NicOffloadTest, PerQueueContextsAvoidTheHazard) {
  // SMT's remedy (§4.4.2): one context per queue — same scenario, but the
  // resync/segment pairs hit distinct contexts and both records are fine.
  const std::uint32_t ctx_q0 = make_context(0);
  const std::uint32_t ctx_q1 = make_context(0);
  nic_.post_resync(0, ctx_q0, 4);
  nic_.post_resync(1, ctx_q1, 5);
  nic_.post_segment(0, make_record_segment(ctx_q0, 4, to_bytes(std::string_view("S4"))));
  nic_.post_segment(1, make_record_segment(ctx_q1, 5, to_bytes(std::string_view("S5"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_TRUE(open_received(0, 4).ok());
  EXPECT_TRUE(open_received(1, 5).ok());
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
}

TEST_F(NicOffloadTest, CompositeSeqSelfIncrementWorks) {
  // §4.4.1: the intra-message record index occupies the low bits, so the
  // hardware's self-incrementing counter walks a message's records without
  // any resync: msg 9 records 0,1,2 == composite (9<<16)+0,1,2.
  const std::uint64_t msg9_rec0 = (9ULL << 16);
  const std::uint32_t ctx = make_context(msg9_rec0);
  for (int i = 0; i < 3; ++i) {
    nic_.post_segment(0, make_record_segment(
                             ctx, msg9_rec0 + std::uint64_t(i),
                             to_bytes(std::string_view("record"))));
  }
  loop_.run();
  ASSERT_EQ(received_.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(open_received(std::size_t(i), msg9_rec0 + std::uint64_t(i)).ok());
  }
  // Context reuse for the NEXT message needs only a resync (§4.4.2).
  const std::uint64_t msg10_rec0 = (10ULL << 16);
  nic_.post_resync(0, ctx, msg10_rec0);
  nic_.post_segment(0, make_record_segment(ctx, msg10_rec0,
                                           to_bytes(std::string_view("m10"))));
  loop_.run();
  ASSERT_EQ(received_.size(), 4u);
  EXPECT_TRUE(open_received(3, msg10_rec0).ok());
}

TEST_F(NicOffloadTest, EncryptedRecordSpansMultiplePackets) {
  // A 4 KB record in one TSO segment: the NIC encrypts at segment level,
  // then TSO splits the ciphertext across MTU packets; the receiver
  // reassembles by IPID and opens the record.
  const std::uint32_t ctx = make_context(0);
  const Bytes big(4000, 0x77);
  nic_.post_segment(0, make_record_segment(ctx, 0, big));
  loop_.run();
  ASSERT_GT(received_.size(), 1u);
  Bytes reassembled;
  for (const Packet& pkt : received_) append(reassembled, pkt.payload);
  const auto opened = opener_->open(0, reassembled);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().payload, big);
}

TEST_F(NicOffloadTest, SmtRunWithFramingHeadersSealsEveryRecord) {
  // An SMT-shaped run: each record follows a 4-byte framing header, and
  // the last record is short. The NIC finds all three from their headers.
  proto::SegmenterConfig config;
  config.hardware_crypto = true;
  config.max_record_payload = 1000;
  Bytes message(2300);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = std::uint8_t(i * 11);
  }
  auto built = proto::build_wire_message(config, *opener_, 9, message);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built.value().segments.size(), 1u);
  const proto::SegmentPlan& plan = built.value().segments[0];
  ASSERT_EQ(plan.records.count, 3u);
  EXPECT_EQ(plan.records.lead, proto::kFramingHeaderSize);
  EXPECT_EQ(plan.records.first_seq, config.layout.compose(9, 0));

  const std::uint32_t ctx = make_context(plan.records.first_seq);
  SegmentDescriptor d;
  d.segment.hdr.flow.proto = Proto::smt;
  d.segment.payload = plan.payload;
  d.records = plan.records;
  d.records.context_id = ctx;
  nic_.post_segment(0, std::move(d));
  loop_.run();

  Bytes wire;
  for (const Packet& pkt : received_) append(wire, pkt.payload);
  const auto opened =
      proto::open_wire_message(config.layout, *opener_, 9, ByteView(wire));
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value(), message);
  EXPECT_EQ(nic_.counters().records_encrypted, 3u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
  EXPECT_EQ(nic_.context_seq(ctx), plan.records.first_seq + 3);
}

/// A kTLS-shaped segment: `bodies.size()` records back to back, no lead.
SegmentDescriptor ktls_run(std::uint32_t ctx, std::uint64_t first_seq,
                           const std::vector<Bytes>& bodies) {
  SegmentDescriptor d;
  d.segment.hdr.flow.proto = Proto::tcp;
  Bytes payload;
  for (const Bytes& body : bodies) {
    tls::append_record_shell(payload, tls::ContentType::application_data,
                             body, 0);
  }
  d.segment.payload = std::move(payload);
  d.records = InlineTls{first_seq, ctx, std::uint16_t(bodies.size()), 0};
  return d;
}

TEST_F(NicOffloadTest, KtlsRunWithoutLeadSealsEveryRecord) {
  const std::vector<Bytes> bodies = {Bytes(700, 0x31), Bytes(45, 0x32)};
  const std::uint32_t ctx = make_context(20);
  nic_.post_segment(0, ktls_run(ctx, 20, bodies));
  loop_.run();

  Bytes wire;
  for (const Packet& pkt : received_) append(wire, pkt.payload);
  const std::size_t overhead =
      tls::record_overhead(tls::CipherSuite::aes_128_gcm_sha256);
  const std::size_t first_len = bodies[0].size() + overhead;
  ASSERT_EQ(wire.size(), first_len + bodies[1].size() + overhead);
  const auto first = opener_->open(20, ByteView(wire).first(first_len));
  const auto second = opener_->open(21, ByteView(wire).subspan(first_len));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().payload, bodies[0]);
  EXPECT_EQ(second.value().payload, bodies[1]);
  EXPECT_EQ(nic_.counters().records_encrypted, 2u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 0u);
}

TEST_F(NicOffloadTest, DivergentRunCountsEveryRecordOutOfSequence) {
  // The context expects 20 but the run starts at 30: every record of the
  // run is sealed under the wrong counter.
  const std::vector<Bytes> bodies = {Bytes(64, 0x41), Bytes(64, 0x42),
                                     Bytes(64, 0x43)};
  const std::uint32_t ctx = make_context(20);
  nic_.post_segment(0, ktls_run(ctx, 30, bodies));
  loop_.run();
  EXPECT_EQ(nic_.counters().records_encrypted, 3u);
  EXPECT_EQ(nic_.counters().out_of_sequence_records, 3u);
  EXPECT_EQ(nic_.context_seq(ctx), 23u);
  Bytes wire;
  for (const Packet& pkt : received_) append(wire, pkt.payload);
  const std::size_t first_len =
      64 + tls::record_overhead(tls::CipherSuite::aes_128_gcm_sha256);
  EXPECT_EQ(opener_->open(30, ByteView(wire).first(first_len)).code(),
            Errc::decrypt_failed);
}

}  // namespace
}  // namespace smt::sim
