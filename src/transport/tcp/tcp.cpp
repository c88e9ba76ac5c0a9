#include "transport/tcp/tcp.hpp"

#include <cassert>

namespace smt::transport {

using sim::Packet;
using sim::PacketType;
using sim::Proto;

namespace {
/// 64-bit stream offsets ride in the (unused-for-TCP) msg_id field; the
/// 32-bit hdr.seq carries the truncated value the NIC TSO engine advances
/// per packet. This models TCP sequence arithmetic without implementing
/// 32-bit wraparound (documented substitution).
std::uint64_t packet_stream_offset(const Packet& pkt) noexcept {
  const std::uint32_t delta =
      pkt.hdr.seq - static_cast<std::uint32_t>(pkt.hdr.msg_id);
  return pkt.hdr.msg_id + delta;
}
}  // namespace

TcpEndpoint::TcpEndpoint(stack::Host& host, std::uint16_t port)
    : host_(host),
      port_(port),
      rto_lane_(host.loop().new_lane()),
      ack_lane_(host.loop().new_lane()) {
  host_.register_endpoint(Proto::tcp, port_,
                          [this](Packet pkt) { on_packet(std::move(pkt)); });
}

TcpEndpoint::~TcpEndpoint() {
  host_.unregister_endpoint(Proto::tcp, port_);
  for (const std::uint16_t port : ephemeral_ports_) {
    host_.unregister_endpoint(Proto::tcp, port);
  }
}

TcpEndpoint::ConnId TcpEndpoint::connect(std::uint32_t dst_ip,
                                         std::uint16_t dst_port) {
  sim::FiveTuple flow;
  flow.src_ip = host_.ip();
  flow.dst_ip = dst_ip;
  flow.src_port = next_ephemeral_port_++;
  flow.dst_port = dst_port;
  flow.proto = Proto::tcp;

  // Return traffic (ACKs, server data) arrives on the ephemeral port.
  host_.register_endpoint(Proto::tcp, flow.src_port,
                          [this](Packet pkt) { on_packet(std::move(pkt)); });
  ephemeral_ports_.push_back(flow.src_port);

  bool created = false;
  [[maybe_unused]] Connection& conn = ensure_connection(flow, &created);
  assert(created && "ephemeral port collision");

  Packet syn;
  syn.hdr.flow = flow;
  syn.hdr.type = PacketType::ctrl;
  sim::SegmentDescriptor d;
  d.segment = std::move(syn);
  host_.nic().post_segment(host_.nic().tx_queue_for(flow), std::move(d));
  return conn_id(flow);
}

TcpEndpoint::Connection& TcpEndpoint::ensure_connection(
    const sim::FiveTuple& local_flow, bool* created) {
  const ConnId id = conn_id(local_flow);
  auto [it, inserted] = connections_.try_emplace(id);
  if (inserted) {
    it->second.flow = local_flow;
    // Hash once per connection: every subsequent queue/core decision for
    // this flow consumes the memoized value.
    it->second.flow_hash = local_flow.hash();
  }
  if (created) *created = inserted;
  return it->second;
}

void TcpEndpoint::send(ConnId conn, Bytes data, stack::CpuCore* app_core,
                       std::vector<RecordMark> records) {
  auto it = connections_.find(conn);
  assert(it != connections_.end() && "send on unknown connection");
  Connection& c = it->second;

  const std::uint64_t base = c.buf_base + c.send_buffer.size();
  for (RecordMark& mark : records) {
    mark.offset += base;
    c.record_queue.push_back(mark);
  }
  append(c.send_buffer, data);

  const auto& costs = host_.costs();
  if (app_core != nullptr) {
    const SimDuration cost =
        costs.syscall + costs.tcp_send_lock + costs.copy_cost(data.size());
    app_core->run(cost, [this, conn] {
      auto it2 = connections_.find(conn);
      if (it2 != connections_.end()) push(it2->second);
    });
  } else {
    push(c);
  }
}

void TcpEndpoint::push(Connection& conn) {
  const std::uint64_t stream_end = conn.buf_base + conn.send_buffer.size();
  while (conn.snd_nxt < stream_end) {
    const std::uint64_t in_flight = conn.snd_nxt - conn.snd_una;
    if (in_flight >= kWindowBytes) break;
    std::uint64_t budget =
        std::min<std::uint64_t>(kWindowBytes - in_flight,
                                stream_end - conn.snd_nxt);

    std::uint64_t chunk = std::min<std::uint64_t>(
        budget, host_.nic().config().max_segment_bytes());
    // Segments align to marked records so each record is encrypted whole
    // inside one TSO segment (§4.3 alignment).
    if (!conn.record_queue.empty() &&
        conn.record_queue.front().offset == conn.snd_nxt) {
      const RecordMark& rec = conn.record_queue.front();
      if (rec.wire_len > budget) break;  // window too small; wait for acks
      chunk = rec.wire_len;
    }
    if (chunk == 0) break;
    transmit_range(conn, conn.snd_nxt, conn.snd_nxt + chunk,
                   /*is_retransmit=*/false);
    conn.snd_nxt += chunk;
  }
  if (conn.snd_nxt > conn.snd_una) arm_rto(conn);
}

void TcpEndpoint::transmit_range(Connection& conn, std::uint64_t from,
                                 std::uint64_t to, bool is_retransmit) {
  assert(from >= conn.buf_base &&
         to <= conn.buf_base + conn.send_buffer.size());

  // RTT probe discipline (adaptive RTO): one timed range at a time. A
  // fresh transmission arms the probe; a retransmission overlapping the
  // probed range voids it — Karn's rule, the ACK can no longer be
  // attributed to one transmission.
  if (!is_retransmit) {
    if (!conn.rtt_probe_armed) {
      conn.rtt_probe_armed = true;
      conn.rtt_probe_end = to;
      conn.rtt_probe_sent_at = host_.loop().now();
    }
  } else if (conn.rtt_probe_armed && from < conn.rtt_probe_end) {
    conn.rtt_probe_armed = false;
  }

  sim::SegmentDescriptor d;
  d.segment.hdr.flow = conn.flow;
  d.segment.hdr.type = PacketType::data;
  d.segment.hdr.msg_id = from;  // 64-bit stream offset (see header note)
  d.segment.hdr.seq = static_cast<std::uint32_t>(from);
  // One copy out of the elastic send buffer into a fresh slab (the buffer
  // erases from the front on ACKs, so it cannot be sliced in place); the
  // slab then rides copy-free through TSO, the wire, and the RX rings.
  const std::size_t buf_off = std::size_t(from - conn.buf_base);
  d.segment.payload = PayloadSlice::copy_of(
      ByteView(conn.send_buffer).subspan(buf_off, std::size_t(to - from)));

  // XPS-style static queue choice (the NIC owns RX steering; TX queue
  // selection is the host's, and must stay stable per flow for the §3.2
  // resync/segment same-queue guarantee the pre-post hook relies on).
  const std::size_t queue = host_.nic().tx_queue_for_hash(conn.flow_hash);

  // The marked records wholly inside the range, one run for the pre-post
  // hook to bind: kTLS marks its whole stream, so they tile the range. A
  // retransmission re-sends the covering records, whose stored bytes are
  // plaintext: the NIC re-encrypts them.
  const auto attach = [&](const RecordMark& rec) {
    if (d.records.count++ == 0) d.records.first_seq = rec.record_seq;
    assert(rec.record_seq == d.records.first_seq + d.records.count - 1);
  };
  if (!is_retransmit) {
    while (!conn.record_queue.empty()) {
      const RecordMark rec = conn.record_queue.front();
      if (rec.offset < from || rec.offset + rec.wire_len > to) break;
      conn.record_queue.pop_front();
      attach(rec);
      conn.sent_records[rec.offset] = rec;
    }
  } else {
    auto rec_it = conn.sent_records.upper_bound(from);
    if (rec_it != conn.sent_records.begin()) --rec_it;
    for (; rec_it != conn.sent_records.end() && rec_it->first < to; ++rec_it) {
      const RecordMark& rec = rec_it->second;
      if (rec.offset < from || rec.offset + rec.wire_len > to)
        continue;  // partially covered; the caller re-sends whole records
      attach(rec);
    }
  }

  // Protocol CPU cost: per-MTU-packet work plus segment build, charged to
  // the softirq core the flow is pinned to (ack-clocked context).
  const std::size_t mss = host_.nic().config().mtu_payload;
  const std::size_t npkts = (d.segment.payload.size() + mss - 1) / mss;
  const auto& costs = host_.costs();
  const SimDuration cost =
      costs.tso_build + costs.tcp_tx_packet * SimDuration(npkts == 0 ? 1 : npkts);
  stack::CpuCore& core = host_.softirq_for_hash(conn.flow_hash);
  // The hook runs in the post's own serialised step, so any resync it posts
  // lands immediately before its segment (the §3.2 hazard otherwise).
  core.run(cost, [this, id = conn_id(conn.flow), queue, &core,
                  desc = std::move(d)]() mutable {
    if (pre_post_) pre_post_(id, queue, desc, &core);
    host_.nic().post_segment(queue, std::move(desc),
                             stack::doorbell_charge(&core));
  });
}

void TcpEndpoint::on_packet(Packet pkt) {
  // Link-corrupted frame: checksum fails at ingress, before the segment
  // can touch connection state. Fast retransmit / RTO recover the gap.
  if (pkt.hdr.corrupted) {
    ++stats_.corrupt_dropped;
    return;
  }
  // Local flow view: swap to this host's perspective.
  const sim::FiveTuple local_flow = pkt.hdr.flow.reversed();
  bool created = false;
  Connection& conn = ensure_connection(local_flow, &created);
  if (created && on_accept_) on_accept_(conn_id(local_flow));

  switch (pkt.hdr.type) {
    case PacketType::ctrl:
      break;  // SYN: connection created above
    case PacketType::ack:
      handle_ack(conn, pkt);
      break;
    case PacketType::data:
      handle_data(conn, std::move(pkt));
      break;
    default:
      break;
  }
}

void TcpEndpoint::handle_data(Connection& conn, Packet pkt) {
  // RSS pins the whole connection to one softirq core (§2): every packet's
  // protocol work queues there (memoized hash — no per-packet rehash).
  stack::CpuCore& core = host_.softirq_for_hash(conn.flow_hash);
  const ConnId id = conn_id(conn.flow);
  const auto& costs = host_.costs();
  // GRO: continuation packets of a TSO burst coalesce cheaply.
  const SimDuration rx_cost = pkt.hdr.ip_id == pkt.hdr.ipid_base
                                  ? costs.tcp_rx_packet
                                  : costs.rx_packet_cont;
  core.run(rx_cost,
           [this, id, pkt = std::move(pkt)]() mutable {
             auto it = connections_.find(id);
             if (it == connections_.end()) return;
             Connection& c = it->second;
             const std::uint64_t seq = packet_stream_offset(pkt);
             if (seq + pkt.payload.size() > c.rcv_nxt) {
               c.out_of_order[seq] = std::move(pkt.payload);
               deliver_in_order(c);
             }
             // Delayed ACKs (RFC 1122): every second segment, immediately
             // on reordering (to generate dup-acks for fast retransmit),
             // or after the delayed-ack timer.
             if (!c.out_of_order.empty() || ++c.ack_pending >= 2) {
               c.ack_pending = 0;
               send_ack(c);
             } else if (!host_.loop().scheduled(c.ack_timer)) {
               c.ack_timer =
                   host_.loop().schedule(ack_lane_, usec(40), [this, id] {
                     auto it2 = connections_.find(id);
                     if (it2 == connections_.end()) return;
                     Connection& c2 = it2->second;
                     if (c2.ack_pending > 0) {
                       c2.ack_pending = 0;
                       send_ack(c2);
                     }
                   });
             }
           });
}

void TcpEndpoint::deliver_in_order(Connection& conn) {
  Bytes chunk;
  auto it = conn.out_of_order.begin();
  while (it != conn.out_of_order.end()) {
    const std::uint64_t seq = it->first;
    const PayloadSlice& data = it->second;
    if (seq > conn.rcv_nxt) break;  // gap
    if (seq + data.size() <= conn.rcv_nxt) {
      it = conn.out_of_order.erase(it);  // stale duplicate
      continue;
    }
    // Gather-copy out of the parked slices — the receive side's single
    // copy (everything upstream of here passed slab views).
    const std::size_t skip = std::size_t(conn.rcv_nxt - seq);
    chunk.insert(chunk.end(), data.begin() + std::ptrdiff_t(skip), data.end());
    conn.rcv_nxt = seq + data.size();
    it = conn.out_of_order.erase(it);
  }
  if (chunk.empty()) return;

  // Streaming delivery: copy cost now, then hand to the application. This
  // is TCP's large-message advantage — no waiting for a full message.
  stack::CpuCore& core = host_.softirq_for_hash(conn.flow_hash);
  const ConnId id = conn_id(conn.flow);
  core.run(host_.costs().copy_cost(chunk.size()),
           [this, id, chunk = std::move(chunk)]() mutable {
             if (on_data_) on_data_(id, std::move(chunk));
           });
}

void TcpEndpoint::send_ack(Connection& conn) {
  Packet ack;
  ack.hdr.flow = conn.flow;
  ack.hdr.type = PacketType::ack;
  ack.hdr.msg_id = conn.rcv_nxt;  // 64-bit cumulative ack
  ack.hdr.ack = static_cast<std::uint32_t>(conn.rcv_nxt);
  stack::CpuCore& core = host_.softirq_for_hash(conn.flow_hash);
  const std::size_t queue = host_.nic().tx_queue_for_hash(conn.flow_hash);
  core.run(host_.costs().ctrl_packet, [this, queue, &core, ack]() mutable {
    sim::SegmentDescriptor d;
    d.segment = std::move(ack);
    host_.nic().post_segment(queue, std::move(d),
                             stack::doorbell_charge(&core));
  });
}

void TcpEndpoint::handle_ack(Connection& conn, const Packet& pkt) {
  const std::uint64_t ack = pkt.hdr.msg_id;
  if (ack > conn.snd_una) {
    conn.snd_una = ack;
    conn.dup_acks = 0;
    if (conn.rtt_probe_armed && ack >= conn.rtt_probe_end) {
      conn.rtt_probe_armed = false;
      update_rtt(conn, host_.loop().now() - conn.rtt_probe_sent_at);
    }
    // Drop acked record bookkeeping.
    while (!conn.sent_records.empty() &&
           conn.sent_records.begin()->first +
                   conn.sent_records.begin()->second.wire_len <=
               ack) {
      conn.sent_records.erase(conn.sent_records.begin());
    }
    // Free the acked bytes, except those of a record the ACK ends inside:
    // a retransmission re-sends that record whole (retransmit_head).
    std::uint64_t keep_from = ack;
    if (!conn.sent_records.empty()) {
      keep_from = std::min(keep_from, conn.sent_records.begin()->first);
    }
    if (keep_from > conn.buf_base) {
      conn.send_buffer.erase(
          conn.send_buffer.begin(),
          conn.send_buffer.begin() + std::ptrdiff_t(keep_from - conn.buf_base));
      conn.buf_base = keep_from;
    }
    // The pending RTO waited on bytes now acked: cancel it, so the
    // re-arm below starts a full (un-backed-off) timeout from now.
    host_.loop().cancel(conn.rto);
    conn.rto_backoff = 0;  // forward progress: back to the base RTO
    if (conn.snd_nxt > conn.snd_una) arm_rto(conn);
    push(conn);  // ack-clocked transmission
  } else if (ack == conn.snd_una && conn.snd_nxt > conn.snd_una) {
    ++conn.dup_acks;
    ++stats_.dup_acks;
    if (conn.dup_acks == 3) {
      ++stats_.fast_retransmits;
      ++stats_.retransmits;
      retransmit_head(conn);
    }
  }
}

void TcpEndpoint::update_rtt(Connection& conn, SimDuration sample) {
  if (sample < 0) return;
  if (!conn.srtt_valid) {
    // RFC 6298 initial sample: SRTT = R, RTTVAR = R/2.
    conn.srtt_valid = true;
    conn.srtt = sample;
    conn.rttvar = sample / 2;
    return;
  }
  // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|; SRTT = 7/8 SRTT + 1/8 R.
  const SimDuration err =
      sample > conn.srtt ? sample - conn.srtt : conn.srtt - sample;
  conn.rttvar = (3 * conn.rttvar + err) / 4;
  conn.srtt = (7 * conn.srtt + sample) / 8;
}

SimDuration TcpEndpoint::rto_base(const Connection& conn) const {
  if (!conn.srtt_valid) return kInitialRto;
  const SimDuration rto = conn.srtt + 4 * conn.rttvar;
  return std::max(kMinRto, std::min(kMaxRto, rto));
}

void TcpEndpoint::arm_rto(Connection& conn) {
  sim::EventLoop& loop = host_.loop();
  // Every RTO scheduled between two progress points has the same delay, so
  // the one already pending is the one that would fire first. An abandoned
  // connection stays abandoned until an ACK makes progress (which resets
  // the backoff): a later send must not start a new round of retries.
  if (conn.rto_backoff > kMaxRtoRetries || loop.scheduled(conn.rto)) return;
  const ConnId id = conn_id(conn.flow);
  // Exponential backoff (Karn), capped at 64x base. Without it a fixed
  // 10 ms RTO phase-locks with any periodic link fault whose period
  // divides it — e.g. a 2 ms flap cycle: every retransmission lands in
  // the same down window and the connection livelocks, an unbounded
  // timer cascade that keeps the event loop from ever draining. The
  // adaptive base (rto_base) slots under the same backoff: a measured
  // ~20 us fabric RTT gives a 1 ms floor-clamped base, so loss recovery
  // starts 10x sooner than the fixed pre-sample RTO.
  const SimDuration delay =
      rto_base(conn) << std::min<std::uint32_t>(conn.rto_backoff, 6);
  conn.rto = loop.schedule(rto_lane_, delay, [this, id] {
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    Connection& c = it->second;
    if (++c.rto_backoff > kMaxRtoRetries) {
      // ETIMEDOUT analogue (tcp_retries2): the peer is unreachable even
      // at the widest backoff. Stop retransmitting; the connection stays
      // wedged (unacked data pinned) but the event loop can drain.
      ++stats_.rto_abandoned;
      return;
    }
    ++stats_.rto_fires;
    ++stats_.retransmits;
    retransmit_head(c);
    arm_rto(c);
  });
}

std::optional<sim::FiveTuple> TcpEndpoint::flow_of(ConnId conn) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return std::nullopt;
  return it->second.flow;
}

std::size_t TcpEndpoint::unacked_bytes(ConnId conn) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return 0;
  return std::size_t(it->second.snd_nxt - it->second.snd_una);
}

std::optional<SimDuration> TcpEndpoint::smoothed_rtt(ConnId conn) const {
  const auto it = connections_.find(conn);
  if (it == connections_.end() || !it->second.srtt_valid) return std::nullopt;
  return it->second.srtt;
}

void TcpEndpoint::retransmit_head(Connection& conn) {
  // Go-back-one-segment: resend from snd_una. The range expands to cover
  // whole marked records so the NIC can re-encrypt them.
  std::uint64_t from = conn.snd_una;
  std::uint64_t to =
      std::min(conn.snd_nxt,
               from + std::uint64_t(host_.nic().config().max_segment_bytes()));
  auto it = conn.sent_records.upper_bound(from);
  if (it != conn.sent_records.begin()) {
    --it;
    if (it->second.offset + it->second.wire_len > from) {
      from = it->second.offset;  // include the whole covering record
    }
  }
  // Snap `to` to a record end when it lands mid-record.
  auto cover = conn.sent_records.upper_bound(to);
  if (cover != conn.sent_records.begin()) {
    --cover;
    const std::uint64_t rec_end = cover->second.offset + cover->second.wire_len;
    if (cover->second.offset < to && rec_end > to) to = rec_end;
  }
  if (to > from) transmit_range(conn, from, to, /*is_retransmit=*/true);
}

}  // namespace smt::transport
