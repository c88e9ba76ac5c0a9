// Simplified TCP: reliable, in-order bytestream with cumulative ACKs,
// fast retransmit, TSO-sized sends, and RSS flow-to-core affinity.
//
// Behavioural properties the paper's comparisons rest on — all modelled:
//   * stream abstraction: receivers see in-order byte chunks as packets
//     arrive, overlapping reception with delivery (§5.1's 64 KB caveat);
//   * 5-tuple core affinity: ALL rx processing of a connection lands on
//     one softirq core -> head-of-line blocking under concurrency (§2);
//   * serialised transmission: one in-flight window, retransmissions go
//     through the same ordered path (§3.2);
//   * record marks: sends may mark opaque records (kTLS's TLS records)
//     that segmentation keeps whole and retransmission re-sends whole,
//     carried as the segment's run of records for the NIC; the endpoint's
//     pre-post hook binds that run to a flow context (§2.3). TCP itself
//     holds no TLS state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/hash.hpp"
#include "stack/host.hpp"

namespace smt::transport {

class TcpEndpoint {
 public:
  using ConnId = std::uint64_t;
  /// In-order stream data callback: (connection, bytes). Invoked on the
  /// softirq core after per-packet and copy costs are charged.
  using DataHandler = std::function<void(ConnId, Bytes)>;
  using AcceptHandler = std::function<void(ConnId)>;
  /// Runs on the posting softirq `core` just before each data segment is
  /// posted to NIC queue `queue`, descriptor still mutable: where kTLS-hw
  /// binds its records to a flow context (§2.3). One per endpoint.
  using PrePostHook = std::function<void(ConnId, std::size_t queue,
                                         sim::SegmentDescriptor&,
                                         stack::CpuCore* core)>;

  /// Static datacenter window.
  static constexpr std::size_t kWindowBytes = 1 << 20;

  /// INITIAL retransmission timeout, used until the first RTT sample
  /// lands (RFC 6298's 1 s analogue, scaled to the datacenter). After
  /// that the Jacobson/Karels adaptive RTO takes over: per-connection
  /// SRTT/RTTVAR from one-at-a-time RTT probes (Karn's rule: a
  /// retransmission voids the in-flight sample), base RTO = srtt +
  /// 4*rttvar clamped to [kMinRto, kMaxRto]. The exponential backoff and
  /// kMaxRtoRetries below ride ON TOP of either base.
  static constexpr SimDuration kInitialRto = msec(10);
  /// Clamp floor for the adaptive base. Must comfortably exceed the
  /// receiver's delayed-ACK timer (40 us) or a quiet full window would
  /// fire spurious retransmits; 1 ms is the Linux-ish datacenter floor
  /// and still 10x sharper than the pre-sample initial RTO.
  static constexpr SimDuration kMinRto = msec(1);
  static constexpr SimDuration kMaxRto = msec(100);  // ceiling (pre-backoff)
  /// Consecutive RTO fires (exponential backoff, capped at 64x the base)
  /// before the sender stops retransmitting — the tcp_retries2 /
  /// ETIMEDOUT analogue. Keeps a connection facing a dead or
  /// phase-locked-flapping link from retransmitting forever.
  static constexpr std::uint32_t kMaxRtoRetries = 10;

  TcpEndpoint(stack::Host& host, std::uint16_t port);
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  void set_on_data(DataHandler handler) { on_data_ = std::move(handler); }
  void set_on_accept(AcceptHandler handler) { on_accept_ = std::move(handler); }
  void set_pre_post(PrePostHook hook) { pre_post_ = std::move(hook); }

  /// Opens a connection (SYN exchange is implicit: the peer auto-accepts).
  ConnId connect(std::uint32_t dst_ip, std::uint16_t dst_port);

  /// Appends bytes to the stream. `app_core` is the syscall context the
  /// costs are charged to (nullptr = charge nothing, for pure-protocol
  /// tests). `records` optionally mark records inside `data` for NIC
  /// inline encryption: segments align to them and retransmissions re-send
  /// them whole.
  struct RecordMark {
    std::uint64_t offset;  // record start: in `data` as passed to send(),
                           // in the stream once queued
    std::size_t wire_len;  // full wire record length
    std::uint64_t record_seq;
  };
  void send(ConnId conn, Bytes data, stack::CpuCore* app_core = nullptr,
            std::vector<RecordMark> records = {});

  /// Bytes not yet acknowledged (for drain checks in tests).
  std::size_t unacked_bytes(ConnId conn) const;

  /// The connection's smoothed RTT estimate, nullopt before the first
  /// sample (or for an unknown connection). Test/diagnostic surface for
  /// the adaptive RTO.
  std::optional<SimDuration> smoothed_rtt(ConnId conn) const;

  /// The connection's flow 5-tuple (local perspective). Used by layers
  /// above (kTLS) to charge work on the flow's softirq core.
  std::optional<sim::FiveTuple> flow_of(ConnId conn) const;

  struct Stats {
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t rto_fires = 0;
    std::uint64_t rto_abandoned = 0;  // connections that hit kMaxRtoRetries
    std::uint64_t dup_acks = 0;
    std::uint64_t corrupt_dropped = 0;  // ingress discards of link-corrupted
                                        // packets (fault model); recovered
                                        // by fast retransmit / RTO
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Connection {
    sim::FiveTuple flow;  // local perspective (src = this host)
    std::size_t flow_hash = 0;  // memoized flow.hash(): per-packet queue and
                                // softirq-core choices never rehash the tuple
    // Send side. The buffer starts at snd_una, or earlier while a record
    // is only partly acked: its retransmission re-sends the whole record.
    Bytes send_buffer;          // bytes from buf_base onward
    std::uint64_t buf_base = 0;  // stream offset of send_buffer[0]
    std::uint64_t snd_una = 0;  // first unacked stream offset
    std::uint64_t snd_nxt = 0;  // next stream offset to send
    std::uint32_t dup_acks = 0;
    sim::TimerId rto;  // the retransmission timer; progress cancels it
    std::uint32_t rto_backoff = 0;  // consecutive fires since last progress
    // Jacobson/Karels RTT estimation (adaptive RTO). One probe at a
    // time: a fresh transmission arms it, the cumulative ACK covering
    // its end samples it, any retransmission voids it (Karn's rule —
    // an ACK after a retransmission is ambiguous).
    bool srtt_valid = false;
    SimDuration srtt = 0;
    SimDuration rttvar = 0;
    bool rtt_probe_armed = false;
    std::uint64_t rtt_probe_end = 0;  // stream offset the sample waits on
    SimTime rtt_probe_sent_at = 0;
    std::deque<RecordMark> record_queue;  // records not yet fully sent
    std::map<std::uint64_t, RecordMark> sent_records;  // by stream offset
    // Receive side.
    std::uint64_t rcv_nxt = 0;
    // seq -> payload view. Out-of-order segments park their SLICE (pinning
    // the sender's slab) until in-order delivery gather-copies them — the
    // receive side's single copy.
    std::map<std::uint64_t, PayloadSlice> out_of_order;
    std::uint32_t ack_pending = 0;  // delayed-ACK counter
    sim::TimerId ack_timer;         // the delayed-ACK timer, never cancelled
  };

  ConnId conn_id(const sim::FiveTuple& flow) const noexcept {
    return (std::uint64_t(flow.dst_ip) << 32) ^
           (std::uint64_t(flow.dst_port) << 16) ^ flow.src_port;
  }

  Connection& ensure_connection(const sim::FiveTuple& local_flow, bool* created);
  void on_packet(sim::Packet pkt);
  void handle_data(Connection& conn, sim::Packet pkt);
  void handle_ack(Connection& conn, const sim::Packet& pkt);
  void push(Connection& conn);
  void transmit_range(Connection& conn, std::uint64_t from, std::uint64_t to,
                      bool is_retransmit);
  void send_ack(Connection& conn);
  /// Starts the retransmission timer unless it is already pending.
  void arm_rto(Connection& conn);
  void update_rtt(Connection& conn, SimDuration sample);
  /// The pre-backoff RTO: srtt + 4*rttvar clamped to [kMinRto, kMaxRto]
  /// once a sample exists, kInitialRto before.
  SimDuration rto_base(const Connection& conn) const;
  void deliver_in_order(Connection& conn);
  void retransmit_head(Connection& conn);

  stack::Host& host_;
  std::uint16_t port_;
  // Timers scheduled in time order queue on a lane per kind; an RTO
  // shorter than the last one queued (a new base, a backoff reset) takes
  // the heap.
  sim::LaneId rto_lane_;
  sim::LaneId ack_lane_;
  DataHandler on_data_;
  AcceptHandler on_accept_;
  PrePostHook pre_post_;
  std::unordered_map<ConnId, Connection, TableHash> connections_;
  std::vector<std::uint16_t> ephemeral_ports_;
  std::uint16_t next_ephemeral_port_ = 40000;
  Stats stats_;
};

}  // namespace smt::transport
