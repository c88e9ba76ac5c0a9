// Figure 2: autonomous-offload encryption semantics, demonstrated on the
// simulated NIC with REAL AES-GCM — in-sequence, out-of-sequence
// (corrupted), and resync'd segments, plus the §3.2 cross-queue hazard and
// SMT's per-queue-context remedy (§4.4.2).
#include <cstdio>

#include "bench_common.hpp"
#include "netsim/nic.hpp"
#include "tls/record.hpp"

using namespace smt;
using namespace smt::sim;

namespace {

struct Harness {
  EventLoop loop;
  Link link{loop, LinkConfig{}};
  Nic nic{loop, NicConfig{}};
  tls::TrafficKeys keys;
  std::vector<Packet> wire;

  Harness() {
    keys.key = Bytes(16, 0x11);
    keys.iv = Bytes(12, 0x22);
    nic.attach_tx(&link.a2b());
    link.a2b().set_receiver([this](Packet pkt) { wire.push_back(std::move(pkt)); });
  }

  std::uint32_t context(std::uint64_t seq) {
    return nic.create_flow_context(tls::CipherSuite::aes_128_gcm_sha256, keys,
                                   seq)
        .value();
  }

  SegmentDescriptor record_segment(std::uint32_t ctx, std::uint64_t seq,
                                   const char* text) {
    SegmentDescriptor d;
    d.segment.hdr.flow.proto = Proto::smt;
    Bytes payload;
    const std::size_t inner = std::string_view(text).size() + 1;
    append_u8(payload, 23);
    append_u16be(payload, 0x0303);
    append_u16be(payload, std::uint16_t(inner + 16));
    append(payload, to_bytes(std::string_view(text)));
    append_u8(payload, 23);
    payload.resize(payload.size() + 16, 0);
    d.segment.payload = std::move(payload);
    d.records = InlineTls{seq, ctx, 1, 0};
    return d;
  }

  const char* open_status(std::size_t index, std::uint64_t seq) {
    tls::RecordProtection rp(tls::CipherSuite::aes_128_gcm_sha256, keys);
    const auto opened = rp.open(seq, wire.at(index).payload);
    return opened.ok() ? "decrypts OK" : "CORRUPTED (auth fails)";
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --smoke changes nothing (the semantics demo is already tiny) but
  // init() still records the JSON result line for the CI artifact.
  bench::init(argc, argv);
  std::printf("== Figure 2: autonomous TLS offload semantics (real AES-GCM) ==\n\n");

  {
    Harness h;
    const auto ctx = h.context(1);
    h.nic.post_segment(0, h.record_segment(ctx, 1, "S1"));
    h.nic.post_segment(0, h.record_segment(ctx, 2, "S2"));
    h.loop.run();
    std::printf("In-seq:      S1 %s, S2 %s\n", h.open_status(0, 1),
                h.open_status(1, 2));
  }
  {
    Harness h;
    const auto ctx = h.context(1);
    h.nic.post_segment(0, h.record_segment(ctx, 1, "S1"));
    h.nic.post_segment(0, h.record_segment(ctx, 3, "S3"));  // skips S2
    h.loop.run();
    std::printf("Out-seq:     S1 %s, S3 %s  (hardware used its internal "
                "counter)\n",
                h.open_status(0, 1), h.open_status(1, 3));
  }
  {
    Harness h;
    const auto ctx = h.context(1);
    h.nic.post_segment(0, h.record_segment(ctx, 1, "S1"));
    h.nic.post_resync(0, ctx, 3);  // R3
    h.nic.post_segment(0, h.record_segment(ctx, 3, "S3"));
    h.loop.run();
    std::printf("Out-resync:  S1 %s, S3 %s  (resync descriptor repaired the "
                "counter)\n",
                h.open_status(0, 1), h.open_status(1, 3));
  }
  {
    Harness h;
    const auto ctx = h.context(0);  // ONE context shared by two queues
    h.nic.post_resync(0, ctx, 4);
    h.nic.post_resync(1, ctx, 5);
    h.nic.post_segment(0, h.record_segment(ctx, 4, "S4"));
    h.nic.post_segment(1, h.record_segment(ctx, 5, "S5"));
    h.loop.run();
    std::printf("\n§3.2 cross-queue hazard (shared context, resync+segment "
                "pairs on two queues):\n  S4 %s, S5 %s\n",
                h.open_status(0, 4), h.open_status(1, 5));
  }
  {
    Harness h;
    const auto ctx0 = h.context(0);
    const auto ctx1 = h.context(0);  // §4.4.2: one context PER QUEUE
    h.nic.post_resync(0, ctx0, 4);
    h.nic.post_resync(1, ctx1, 5);
    h.nic.post_segment(0, h.record_segment(ctx0, 4, "S4"));
    h.nic.post_segment(1, h.record_segment(ctx1, 5, "S5"));
    h.loop.run();
    std::printf("SMT per-queue contexts (§4.4.2), same scenario:\n  S4 %s, "
                "S5 %s\n",
                h.open_status(0, 4), h.open_status(1, 5));
  }
  return 0;
}
