// SMT endpoint — the paper's core contribution assembled (§4).
//
// A native message-based transport (its own protocol number) carrying
// TLS-encrypted messages over the Homa engine:
//
//   * session initiation happens in the application via the TLS 1.3
//     handshake (src/tls/engine); the application then REGISTERS the
//     negotiated keys on the socket, kTLS-style (§4.2);
//   * each message gets a unique 48-bit ID and its own record sequence
//     space — the composite 64-bit seqno of §4.4.1;
//   * the wire format aligns TLS records to TSO segments with plaintext
//     message metadata (§4.3), so both TSO and autonomous TLS offload
//     apply; software encryption is the fallback (SMT-sw vs SMT-hw, §5);
//   * hardware mode leases one NIC flow context per (session, NIC queue,
//     direction) from the host's shared LRU flow-context manager, reusing
//     contexts across messages via resync (§4.4.2) — which sidesteps the
//     cross-queue atomicity hazard of §3.2 — and transparently
//     re-establishing evicted contexts so sessions can outnumber NIC
//     context memory; inbound messages lease RX contexts keyed by the
//     NIC RX ring their flow hashes to, so receivers (servers) compete
//     for the same finite context table — when no RX context can be
//     leased, decryption falls back to software at software cost;
//     every FRESH lease (TX or RX) is charged CostModel::context_establish;
//   * receivers enforce message-ID uniqueness (replay defence, §6.1) and
//     per-message record order via AEAD (order protection, §6.1);
//   * message integrity is intrinsic — no checksum offload needed (§7).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "smt/replay_filter.hpp"
#include "smt/seqno.hpp"
#include "smt/wire.hpp"
#include "transport/homa/homa.hpp"

namespace smt::proto {

using transport::PeerAddr;

struct SmtConfig {
  SeqnoLayout layout{};           // 48/16 split by default
  bool hw_offload = false;        // SMT-hw vs SMT-sw
  /// App bytes per record; capped further so a record block fits one of
  /// the host NIC's segments (NicConfig::max_segment_bytes()).
  std::size_t max_record_payload = tls::kMaxRecordPayload;
};

class SmtEndpoint {
 public:
  struct MessageMeta {
    PeerAddr peer;
    std::uint64_t msg_id = 0;
  };
  /// Decrypted-message delivery (after decrypt cost on the softirq core).
  using MessageHandler = std::function<void(MessageMeta, Bytes)>;

  SmtEndpoint(stack::Host& host, std::uint16_t port, SmtConfig config = {});
  ~SmtEndpoint();

  void set_on_message(MessageHandler handler) { on_message_ = std::move(handler); }

  /// Registers the session keys negotiated by the TLS handshake — the
  /// setsockopt(TLS_TX/TLS_RX) analogue (§4.2). tx_keys protect messages
  /// we send to `peer`; rx_keys protect messages we receive.
  Status register_session(PeerAddr peer, tls::CipherSuite suite,
                          const tls::TrafficKeys& tx_keys,
                          const tls::TrafficKeys& rx_keys);

  /// Key update (e.g. session resumption): resets the message-ID space
  /// (§4.5.2 "resets the message ID space").
  Status rekey_session(PeerAddr peer, tls::CipherSuite suite,
                       const tls::TrafficKeys& tx_keys,
                       const tls::TrafficKeys& rx_keys);

  /// Encrypts and sends `plaintext`. `pad_to` pads the message to at least
  /// that many bytes for length concealment (§6.1). Returns the message id.
  Result<std::uint64_t> send_message(PeerAddr dst, Bytes plaintext,
                                     stack::CpuCore* app_core = nullptr,
                                     std::size_t pad_to = 0);

  std::uint16_t port() const noexcept { return homa_.port(); }
  stack::Host& host() noexcept { return homa_.host(); }

  struct Stats {
    std::uint64_t messages_delivered = 0;
    std::uint64_t replays_dropped = 0;
    std::uint64_t decrypt_failures = 0;
    std::uint64_t no_session_drops = 0;
    std::uint64_t rx_contexts_created = 0;  // fresh RX leases (incl. re-est.)
    std::uint64_t rx_resyncs = 0;  // RX context reused across messages
    std::uint64_t rx_context_acquire_failures = 0;  // fell back to sw decrypt
  };
  const Stats& stats() const noexcept { return stats_; }
  const transport::HomaEndpoint::Stats& homa_stats() const {
    return homa_.stats();
  }
  /// State audit: the underlying Homa engine's live message/dedup tables.
  transport::HomaEndpoint::TableAudit table_audit() const noexcept {
    return homa_.table_audit();
  }

 private:
  struct Session {
    tls::CipherSuite suite = tls::CipherSuite::aes_128_gcm_sha256;
    std::optional<tls::RecordProtection> tx;
    std::optional<tls::RecordProtection> rx;
    std::uint64_t next_msg_id = 0;
    MessageIdFilter rx_filter;
  };

  void on_wire_message(transport::HomaEndpoint::MessageMeta meta, Bytes wire);

  /// The shared manager's session identity for `peer` on this endpoint:
  /// local port (48..63) | peer ip (16..47) | peer port (0..15).
  std::uint64_t session_tag(PeerAddr peer) const noexcept {
    return (std::uint64_t(homa_.port()) << 48) |
           (std::uint64_t(peer.ip) << 16) | std::uint64_t(peer.port);
  }
  stack::FlowKey tx_key(PeerAddr peer, std::size_t queue) const noexcept {
    return {sim::Proto::smt, session_tag(peer), std::uint32_t(queue)};
  }

  SmtConfig config_;
  transport::HomaEndpoint homa_;
  MessageHandler on_message_;
  std::map<PeerAddr, Session> sessions_;
  Stats stats_;
};

}  // namespace smt::proto
