// Simulated packet and header formats.
//
// The header models the paper's generalized message-transport format
// (Figure 1) and SMT's TSO segment layout (Figure 3): a TCP-overlay header
// carrying *plaintext* message ID, message length and TSO offset — fields
// TSO replicates across every packet it cuts from a segment — plus the
// network-layer IPID used as the intra-segment packet offset.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/payload_slice.hpp"
#include "common/time.hpp"
#include "netsim/event.hpp"

namespace smt::sim {

/// IANA-style protocol numbers; Homa and SMT are *native* transports with
/// their own numbers (the paper's point in §2.3 — no TCP/UDP piggybacking).
enum class Proto : std::uint8_t {
  tcp = 6,
  homa = 0xFD,
  smt = 0xFE,
};

struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Proto proto = Proto::tcp;

  FiveTuple reversed() const noexcept {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  std::size_t hash() const noexcept {
    // RSS-style hash: this is what pins a TCP flow to one softirq core.
    // The SplitMix64 finalizer spreads entropy into the low bits so small
    // modulo reductions (core counts, queue counts) distribute well.
    std::uint64_t h = src_ip;
    h = h * 1000003 + dst_ip;
    h = h * 1000003 + (std::uint64_t(src_port) << 16 | dst_port);
    h = h * 1000003 + std::uint64_t(proto);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return std::size_t(h ^ (h >> 31));
  }
};

/// Packet types shared across the message transports (Homa §2.2 maps to
/// NDP: RESEND<->NACK, GRANT<->PULL).
enum class PacketType : std::uint8_t {
  data = 0,
  grant = 1,
  resend = 2,   // receiver asks for retransmission
  ack = 3,      // TCP cumulative ack / Homa message ack
  busy = 4,
  ctrl = 5,     // connection control (TCP SYN/FIN analogue)
};

/// Fixed per-packet wire overhead: Ethernet(18) + IPv4(20) + TCP-overlay(20)
/// + options space used by the message transports (12).
constexpr std::size_t kWireHeaderBytes = 70;

// Fields are grouped by size so the header packs into 72 bytes: the
// fields total 71, leaving one byte of padding. The size is load-bearing;
// see the static_assert after Packet.
struct PacketHeader {
  // Options space, replicated by TSO across a segment's packets.
  std::uint64_t msg_id = 0;

  FiveTuple flow;

  // TCP-overlay common header fields.
  std::uint32_t seq = 0;  // TCP sequence number (TCP only; TSO does not
                          // write it for other protocols, §2.2)
  std::uint32_t ack = 0;

  // Options space (continued).
  std::uint32_t msg_len = 0;
  std::uint32_t tso_off = 0;     // segment position within the message
  std::uint32_t resend_off = 0;  // explicit offset for retransmissions
  std::uint32_t grant_off = 0;   // GRANT: receiver-granted byte offset
  std::uint32_t trimmed_len = 0; // original payload length of the stub

  // Network layer.
  std::uint16_t ip_id = 0;  // incremented per packet by TSO (§4.3)

  std::uint16_t window = 0;      // TCP-overlay common header
  std::uint16_t ipid_base = 0;   // options: IPID of the segment's 1st packet

  PacketType type = PacketType::data;
  bool checksum_valid = false;  // TSO checksums TCP only (§7)
  std::uint8_t priority = 0;     // network priority (SRPT)
  bool trimmed = false;          // NDP-style trimmed stub (payload cut)

  // Set by the wire fault model (FaultProfile::corrupt_rate): the frame
  // arrives but its integrity check — GCM tag, TCP checksum — fails.
  // The NIC counts it (rx_corrupt_frames) and still delivers; transports
  // discard at ingress and rely on their retransmit machinery, exactly
  // like real hardware that only detects corruption after DMA.
  bool corrupted = false;

  /// Memoized RSS hash of `flow`. The hash is a pure function of the five
  /// tuple, but it used to be recomputed on EVERY queue/core decision —
  /// per-packet ring selection, TX queue choice, softirq pinning. The TX
  /// NIC computes it once per segment (emit_segment) and TSO replicates it
  /// into every packet, the way real NICs carry the RSS hash in the
  /// completion descriptor; the receive side then steers on the cached
  /// value without rehashing.
  ///
  /// 0 means "not yet computed" (flow_hash() falls back to hashing, so a
  /// flow whose hash is genuinely 0 is merely never memoized, not wrong).
  /// Rewriting `flow` on an existing header MUST go through set_flow() so
  /// the cache can never desync from the tuple — the reply path builds
  /// fresh headers from reversed(), which start uncached.
  mutable std::size_t flow_hash_cache = 0;

  std::size_t flow_hash() const noexcept {
    if (flow_hash_cache == 0) flow_hash_cache = flow.hash();
    return flow_hash_cache;
  }

  void set_flow(const FiveTuple& new_flow) noexcept {
    flow = new_flow;
    flow_hash_cache = 0;
  }
};

struct Packet {
  PacketHeader hdr;
  PayloadSlice payload;  // O(1) view of a shared immutable slab

  std::size_t wire_size() const noexcept {
    return payload.size() + kWireHeaderBytes;
  }
};

// Every packet hop schedules a closure that carries the Packet by value,
// and one that outgrows EventCallback's inline store costs a heap
// allocation per hop. The widest is switch forwarding (Switch::drain:
// this, port index, fault jitter, packet), at exactly 128 bytes; switch
// remote egress (this, port index, packet) and link delivery
// (LinkDirection::send: this, packet) are smaller. Growing PacketHeader
// by even 8 bytes breaks this.
static_assert(sizeof(void*) + sizeof(std::size_t) + sizeof(SimDuration) +
                      sizeof(Packet) <=
                  EventCallback::kInlineCapacity,
              "switch forwarding, switch remote egress and link delivery "
              "closures must fit EventCallback's inline store");

/// Handler invoked on packet delivery.
using PacketHandler = std::function<void(Packet)>;

}  // namespace smt::sim
