// Homa-style message transport (Montazeri et al., Ousterhout's Homa/Linux)
// as the paper characterises it (§2.2):
//
//   * message-based: the unit of delivery is a complete message, delivered
//     to the application only when fully reassembled (the §5.1 large-RPC
//     caveat versus TCP streaming);
//   * receiver-driven: the first `kUnscheduledBytes` travel on the first
//     RTT; the rest is released by GRANT packets from the receiver;
//   * out-of-order message delivery: losses stall only their own message;
//   * SRPT core scheduling: each inbound message picks the least-loaded
//     softirq core instead of a flow-pinned one — no HoLB on a core;
//   * TSO via the TCP-overlay header: message ID / length / TSO offset are
//     replicated into every packet; the IPID gives intra-segment offsets;
//     retransmitted packets carry an explicit resend offset (§4.3).
//
// SMT layers on this engine through the pre-segmented send API: segments
// may carry a run of TLS records for NIC inline encryption plus a
// pre-post hook where SMT injects resync descriptors (§4.4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/hash.hpp"
#include "stack/host.hpp"
#include "transport/homa/dedup_window.hpp"

namespace smt::transport {

/// Identifies a peer endpoint.
struct PeerAddr {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  friend auto operator<=>(const PeerAddr&, const PeerAddr&) = default;
};

constexpr std::uint64_t hash_word(const PeerAddr& peer) noexcept {
  return (std::uint64_t(peer.ip) << 16) | peer.port;
}

/// A pre-built TSO segment of an outgoing message (SMT supplies these;
/// plain Homa builds them internally). The payload is a slice of a shared
/// immutable slab: posting it to the NIC, retransmitting a byte range, and
/// TSO-cutting it into packets are all O(1) views, never copies.
struct SegmentSpec {
  PayloadSlice payload;
  sim::InlineTls records;  // NIC inline-crypto run (count 0: none)
  std::size_t tso_off = 0;  // offset in the message; set by send_segments
};

/// Hook invoked immediately before a segment to `dst` is posted to the
/// NIC. SMT uses it to acquire the (session, queue) flow-context lease,
/// bind the record run to it and post a resync descriptor — the descriptor
/// is mutable so the hook can late-bind the context at post time (the LRU
/// manager may have evicted the one used for a previous segment).
/// `core` is the CPU core the post runs on (app core for first
/// transmissions, softirq core for grant-released/resent segments,
/// nullptr for timer-driven retries) so driver work done in the hook is
/// billed where it actually executes.
using PrePostHook =
    std::function<void(PeerAddr dst, std::size_t queue,
                       sim::SegmentDescriptor&, stack::CpuCore* core)>;

class HomaEndpoint {
 public:
  struct MessageMeta {
    PeerAddr peer;
    std::uint64_t msg_id = 0;
    std::size_t softirq_core = 0;  // core the message was processed on
    std::size_t rx_queue = 0;      // NIC RX ring the flow's frames used
                                   // (RSS hash — what RX flow contexts
                                   // are keyed by)
  };
  /// Complete-message delivery callback (runs after reassembly, copy cost
  /// and wakeup are charged on the message's softirq core).
  using MessageHandler = std::function<void(MessageMeta, Bytes)>;
  /// Sender-side completion (message fully acked by the receiver, or
  /// given up after exhausting retries). Message IDs are only unique per
  /// peer (TX state is keyed by (destination, msg_id)), so the peer is
  /// part of the completion identity.
  using SentHandler = std::function<void(PeerAddr peer, std::uint64_t msg_id)>;

  // Homa's stock settings; every comparison in the paper runs them.
  static constexpr std::size_t kMaxMessageBytes = 1 << 20;  // Homa: 1 MB
  static constexpr std::size_t kUnscheduledBytes = 60000;  // first RTT (~BDP)
  static constexpr std::size_t kGrantWindow = 60000;  // granted-ahead bytes
  static constexpr SimDuration kResendInterval = msec(1);  // receiver gap timer
  static constexpr int kMaxResends = 20;  // before the message is dropped
  /// Hard cap on completed-message dedup entries. The window is primarily
  /// TIME-bounded (see kCompletedRetention), but a burst of many short
  /// messages inside one retention window could otherwise grow it without
  /// limit — per-host state must stay memory-bounded at any fan-in.
  static constexpr std::size_t kDedupHistoryLimit = 4096;

  /// `proto` is the protocol number the endpoint registers and sends
  /// under: SMT reuses this engine with its own (sim::Proto::smt).
  HomaEndpoint(stack::Host& host, std::uint16_t port,
               sim::Proto proto = sim::Proto::homa);
  ~HomaEndpoint();

  HomaEndpoint(const HomaEndpoint&) = delete;
  HomaEndpoint& operator=(const HomaEndpoint&) = delete;

  void set_on_message(MessageHandler handler) { on_message_ = std::move(handler); }
  void set_on_sent(SentHandler handler) { on_sent_ = std::move(handler); }
  /// Runs before every data segment this endpoint posts (SMT's NIC
  /// offload path), as TcpEndpoint::set_pre_post does for kTLS.
  void set_pre_post(PrePostHook hook) { pre_post_ = std::move(hook); }

  /// Plain send: the endpoint segments the payload itself.
  /// Returns the message id. `app_core` is the syscall context charged.
  Result<std::uint64_t> send_message(PeerAddr dst, Bytes payload,
                                     stack::CpuCore* app_core = nullptr);

  /// Pre-segmented send (SMT path). `explicit_id` lets the caller control
  /// message-ID allocation (SMT's 48-bit unique IDs, §4.4.1). The message
  /// keeps `segments` as they are (moved, not copied) and stamps each
  /// one's tso_off.
  Result<std::uint64_t> send_segments(PeerAddr dst,
                                      std::vector<SegmentSpec> segments,
                                      std::size_t total_bytes,
                                      std::optional<std::uint64_t> explicit_id,
                                      stack::CpuCore* app_core = nullptr);

  /// The NIC queue a message's segments use — stable per message so
  /// intra-message order is preserved (§4.4.2).
  std::size_t queue_for_message(std::uint64_t msg_id) const {
    return std::size_t(msg_id) % host_.nic().config().num_queues;
  }

  std::uint16_t port() const noexcept { return port_; }
  stack::Host& host() noexcept { return host_; }

  /// Drops the completed-message dedup state. Called on a session key
  /// update, which resets the message-ID space (§4.5.2) — IDs may repeat.
  void flush_dedup_state() { recently_completed_.clear(); }

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t resends_requested = 0;
    std::uint64_t packets_retransmitted = 0;
    std::uint64_t messages_expired = 0;
    std::uint64_t trim_resends = 0;  // RESENDs triggered by trimmed stubs
    std::uint64_t segments_posted = 0;  // TSO segments handed to the NIC
    std::uint64_t corrupt_dropped = 0;  // ingress discards of link-corrupted
                                        // packets (fault model); recovered
                                        // by RESEND / the sender backstop
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Live sizes of the endpoint's per-peer state tables, for the
  /// memory-boundedness audit: after a quiesced run tx/rx must be empty
  /// and dedup_entries <= kDedupHistoryLimit.
  struct TableAudit {
    std::size_t tx_messages = 0;
    std::size_t rx_messages = 0;
    std::size_t dedup_entries = 0;
  };
  TableAudit table_audit() const noexcept {
    return TableAudit{tx_messages_.size(), rx_messages_.size(),
                      recently_completed_.size()};
  }

 private:
  struct TxMessage {
    PeerAddr dst;
    std::uint64_t msg_id = 0;
    std::size_t flow_hash = 0;  // memoized hash of flow_to(dst): grant and
                                // resend handling never rehash per packet
    std::vector<SegmentSpec> segments;
    std::size_t total_bytes = 0;
    std::size_t next_segment = 0;   // first not-yet-transmitted segment
    std::size_t sent_bytes = 0;     // high-water mark of transmitted bytes
    std::size_t granted_bytes = 0;  // receiver's grant high-water mark
    sim::TimerId backstop;  // arm_tx_retry's timer, from when all is sent
    int retries = 0;  // sender-side full retransmissions (lost first RTT)
  };

  struct RxMessage {
    PeerAddr peer;
    std::uint64_t msg_id = 0;
    std::size_t total_bytes = 0;
    // While `intervals` is empty the message has arrived in order: the
    // buffer holds exactly the received prefix [0, buffer.size()) and grows
    // by appends into its reserved capacity. The first packet past that
    // prefix sizes the buffer to total_bytes and moves the prefix into
    // `intervals`, which then records every received [off, end).
    Bytes buffer;
    std::map<std::size_t, std::size_t> intervals;
    std::size_t received_bytes = 0;
    std::size_t granted_bytes = 0;
    std::size_t softirq_core = 0;  // chosen least-loaded at first packet
    std::size_t rx_queue = 0;      // NIC RX ring (RSS), set at first packet
    SimTime last_activity = 0;
    int resend_count = 0;
    sim::TimerId resend_timer;  // the latest arm_resend_timer timer
  };

  using RxKey = std::pair<PeerAddr, std::uint64_t>;
  // TX messages are keyed by (destination, msg_id): message IDs are only
  // unique per session (SMT resets the space per peer, §4.5.2), so one
  // endpoint sending to many peers — a server replying to its clients —
  // must not collide IDs across them.
  using TxKey = std::pair<PeerAddr, std::uint64_t>;

  void on_packet(sim::Packet pkt);
  void handle_data(sim::Packet pkt);
  void handle_grant(const sim::Packet& pkt);
  void handle_resend(const sim::Packet& pkt);
  void handle_ack(const sim::Packet& pkt);
  void rx_insert(RxMessage& rx, std::size_t offset, ByteView data);
  void rx_complete(const RxKey& key);
  void maybe_grant(RxMessage& rx);
  void arm_resend_timer(const RxKey& key);
  void pump_tx(TxMessage& tx, stack::CpuCore* core);
  void arm_tx_retry(TxMessage& tx);
  void post_segment_for(TxMessage& tx, std::size_t seg_index,
                        stack::CpuCore* core);
  /// The header of `tx`'s data segment that starts at message offset
  /// `tso_off`.
  sim::PacketHeader data_header(const TxMessage& tx,
                                std::size_t tso_off) const;
  /// A data packet's message offset: the explicit one a retransmission
  /// carries, otherwise its segment's offset plus the IPID delta (§4.3).
  std::size_t data_offset(const sim::PacketHeader& hdr) const;
  void send_ctrl(PeerAddr dst, sim::PacketType type, std::uint64_t msg_id,
                 std::uint32_t resend_off, std::uint32_t grant_off,
                 stack::CpuCore* core = nullptr);
  sim::FiveTuple flow_to(PeerAddr dst) const;

  stack::Host& host_;
  std::uint16_t port_;
  sim::Proto proto_;
  // Fixed-delay timers are scheduled in time order, so each kind queues on
  // its own lane.
  sim::LaneId backstop_lane_;
  sim::LaneId resend_lane_;
  MessageHandler on_message_;
  SentHandler on_sent_;
  PrePostHook pre_post_;
  std::unordered_map<TxKey, TxMessage, TableHash> tx_messages_;
  std::unordered_map<RxKey, RxMessage, TableHash> rx_messages_;
  // Recently completed messages, kept briefly so spurious retransmissions
  // are recognised and dropped (§4.3) without unbounded memory: for
  // kCompletedRetention and at most kDedupHistoryLimit of them.
  DedupWindow<RxKey> recently_completed_{kDedupHistoryLimit};
  std::uint64_t next_msg_id_ = 1;
  Stats stats_;
};

}  // namespace smt::transport
