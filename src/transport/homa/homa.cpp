#include "transport/homa/homa.hpp"

#include <cassert>

namespace smt::transport {

using sim::Packet;
using sim::PacketType;

namespace {
/// How long a completed message's identity is remembered for dedup. Must
/// cover the sender's retry horizon (5 retries x 5 resend intervals) so a
/// backstop retransmission of an already-delivered message is recognised.
constexpr SimDuration kCompletedRetention = msec(30);
}  // namespace

HomaEndpoint::HomaEndpoint(stack::Host& host, std::uint16_t port,
                           sim::Proto proto)
    : host_(host),
      port_(port),
      proto_(proto),
      backstop_lane_(host.loop().new_lane()),
      resend_lane_(host.loop().new_lane()) {
  host_.register_endpoint(proto_, port_,
                          [this](Packet pkt) { on_packet(std::move(pkt)); });
}

HomaEndpoint::~HomaEndpoint() { host_.unregister_endpoint(proto_, port_); }

sim::FiveTuple HomaEndpoint::flow_to(PeerAddr dst) const {
  sim::FiveTuple flow;
  flow.src_ip = host_.ip();
  flow.dst_ip = dst.ip;
  flow.src_port = port_;
  flow.dst_port = dst.port;
  flow.proto = proto_;
  return flow;
}

Result<std::uint64_t> HomaEndpoint::send_message(PeerAddr dst, Bytes payload,
                                                 stack::CpuCore* app_core) {
  if (payload.size() > kMaxMessageBytes) {
    return make_error(Errc::message_too_large,
                      "message exceeds Homa's 1 MB limit");
  }
  // Cut into the NIC's largest segments: the message body becomes ONE
  // shared slab and each segment an O(1) slice of it — no per-segment copy.
  const std::size_t max_segment = host_.nic().config().max_segment_bytes();
  const std::size_t total = payload.size();
  PayloadSlice slab(std::move(payload));
  std::vector<SegmentSpec> segments;
  std::size_t off = 0;
  do {
    const std::size_t take = std::min(max_segment, total - off);
    SegmentSpec seg;
    seg.payload = slab.subslice(off, take);
    segments.push_back(std::move(seg));
    off += take;
  } while (off < total);
  return send_segments(dst, std::move(segments), total, std::nullopt,
                       app_core);
}

Result<std::uint64_t> HomaEndpoint::send_segments(
    PeerAddr dst, std::vector<SegmentSpec> segments, std::size_t total_bytes,
    std::optional<std::uint64_t> explicit_id, stack::CpuCore* app_core) {
  if (total_bytes > kMaxMessageBytes) {
    return make_error(Errc::message_too_large,
                      "message exceeds Homa's 1 MB limit");
  }
  const std::uint64_t msg_id = explicit_id.value_or(next_msg_id_++);
  if (explicit_id && *explicit_id >= next_msg_id_) next_msg_id_ = *explicit_id + 1;
  const TxKey key{dst, msg_id};
  if (tx_messages_.count(key)) {
    return make_error(Errc::invalid_argument, "duplicate message id");
  }

  TxMessage tx;
  tx.dst = dst;
  tx.msg_id = msg_id;
  tx.flow_hash = flow_to(dst).hash();  // hashed once per message
  tx.total_bytes = total_bytes;
  tx.granted_bytes = std::min(total_bytes, kUnscheduledBytes);
  std::size_t offset = 0;
  for (SegmentSpec& seg : segments) {
    seg.tso_off = offset;
    offset += seg.payload.size();
  }
  assert(offset == total_bytes && "segment sizes must sum to total_bytes");
  tx.segments = std::move(segments);

  auto [it, inserted] = tx_messages_.emplace(key, std::move(tx));
  assert(inserted);
  ++stats_.messages_sent;

  // Syscall-context costs: entry + copy-in, then the unscheduled part is
  // pushed directly from the syscall (paper §3.2: small messages are sent
  // in the syscall context).
  if (app_core != nullptr) {
    const auto& costs = host_.costs();
    const SimDuration cost = costs.syscall + costs.copy_cost(total_bytes);
    app_core->run(cost, [this, key, app_core] {
      auto it2 = tx_messages_.find(key);
      if (it2 != tx_messages_.end()) pump_tx(it2->second, app_core);
    });
  } else {
    pump_tx(it->second, nullptr);
  }
  return msg_id;
}

void HomaEndpoint::pump_tx(TxMessage& tx, stack::CpuCore* core) {
  // Send whole segments, in order, while their start offset is inside the
  // granted window (segment 0 is always unscheduled).
  while (tx.next_segment < tx.segments.size()) {
    const std::size_t index = tx.next_segment;
    const SegmentSpec& seg = tx.segments[index];
    if (seg.tso_off > 0 && seg.tso_off >= tx.granted_bytes) {
      break;  // waiting for grants
    }
    post_segment_for(tx, index, core);
    tx.sent_bytes += seg.payload.size();
    ++tx.next_segment;
  }

  if (tx.next_segment >= tx.segments.size() &&
      !host_.loop().scheduled(tx.backstop)) {
    arm_tx_retry(tx);
  }
}

void HomaEndpoint::arm_tx_retry(TxMessage& tx) {
  // Sender-side backstop: if the receiver never ACKs (all packets of the
  // message lost, so receiver-driven RESEND cannot trigger — or the ACK
  // itself was lost), retransmit the whole message a few times, then give
  // up. Duplicates are harmless: the receiver's interval merge and, one
  // layer up, SMT's replay filter absorb them. handle_ack cancels it.
  const TxKey key{tx.dst, tx.msg_id};
  const SimDuration delay = kResendInterval * 5;
  tx.backstop = host_.loop().schedule(backstop_lane_, delay, [this, key] {
    const auto it = tx_messages_.find(key);
    if (it == tx_messages_.end()) return;  // acked and freed
    TxMessage& tx = it->second;
    if (++tx.retries > 4) {
      const PeerAddr dst = tx.dst;
      const std::uint64_t msg_id = tx.msg_id;
      tx_messages_.erase(it);
      // Gave up; report to unblock callers.
      if (on_sent_) on_sent_(dst, msg_id);
      return;
    }
    ++stats_.packets_retransmitted;
    for (std::size_t i = 0; i < tx.segments.size(); ++i) {
      post_segment_for(tx, i, nullptr);
    }
    arm_tx_retry(tx);
  });
}

sim::PacketHeader HomaEndpoint::data_header(const TxMessage& tx,
                                            std::size_t tso_off) const {
  sim::PacketHeader hdr;
  hdr.flow = flow_to(tx.dst);
  hdr.type = PacketType::data;
  hdr.msg_id = tx.msg_id;
  hdr.msg_len = std::uint32_t(tx.total_bytes);
  hdr.tso_off = std::uint32_t(tso_off);
  return hdr;
}

std::size_t HomaEndpoint::data_offset(const sim::PacketHeader& hdr) const {
  if (hdr.resend_off != 0) return hdr.resend_off - 1;
  const std::uint16_t delta = std::uint16_t(hdr.ip_id - hdr.ipid_base);
  return hdr.tso_off + std::size_t(delta) * host_.nic().config().mtu_payload;
}

void HomaEndpoint::post_segment_for(TxMessage& tx, std::size_t seg_index,
                                    stack::CpuCore* core) {
  const SegmentSpec& seg = tx.segments[seg_index];

  sim::SegmentDescriptor d;
  d.segment.hdr = data_header(tx, seg.tso_off);
  d.segment.payload = seg.payload;  // slice copy: refcount bump, no bytes
  d.records = seg.records;

  const std::size_t queue = queue_for_message(tx.msg_id);
  const std::size_t mss = host_.nic().config().mtu_payload;
  const std::size_t npkts = (seg.payload.size() + mss - 1) / mss;
  const auto& costs = host_.costs();
  const SimDuration cost =
      costs.tso_build + costs.homa_tx_packet * SimDuration(npkts == 0 ? 1 : npkts);

  ++stats_.segments_posted;
  auto post = [this, queue, core, dst = tx.dst,
               desc = std::move(d)]() mutable {
    if (pre_post_) pre_post_(dst, queue, desc, core);
    host_.nic().post_segment(queue, std::move(desc),
                             stack::doorbell_charge(core));
  };
  if (core != nullptr) {
    core->run(cost, std::move(post));
  } else {
    post();
  }
}

void HomaEndpoint::on_packet(Packet pkt) {
  // Link-corrupted frame: the integrity check (GCM tag for offloaded
  // records, checksum otherwise) fails before any protocol state is
  // touched. Discard here — a data gap heals via RESEND or the sender
  // backstop; a lost GRANT/ACK heals via the same timers as real loss.
  if (pkt.hdr.corrupted) {
    ++stats_.corrupt_dropped;
    return;
  }
  switch (pkt.hdr.type) {
    case PacketType::data:
      handle_data(std::move(pkt));
      break;
    case PacketType::grant:
      handle_grant(pkt);
      break;
    case PacketType::resend:
      handle_resend(pkt);
      break;
    case PacketType::ack:
      handle_ack(pkt);
      break;
    default:
      break;
  }
}

void HomaEndpoint::handle_data(Packet pkt) {
  const PeerAddr peer{pkt.hdr.flow.src_ip, pkt.hdr.flow.src_port};
  const RxKey key{peer, pkt.hdr.msg_id};

  // NDP-style trimmed stub (§7): the payload is gone but the PLAINTEXT
  // metadata identifies exactly which bytes to re-request — the receiver
  // fires a RESEND immediately instead of waiting for the gap timer.
  if (pkt.hdr.trimmed) {
    if (recently_completed_.contains(key)) return;
    const std::size_t offset = data_offset(pkt.hdr);
    ++stats_.trim_resends;
    send_ctrl(peer, PacketType::resend, pkt.hdr.msg_id,
              std::uint32_t(offset) + 1,
              std::uint32_t(offset + pkt.hdr.trimmed_len));
    return;
  }

  // Spurious retransmission of an already-delivered message (§4.3). The
  // dedup window is TIME-bounded: expired entries are pruned here too, so
  // long-delayed duplicates fall through to the layer above (where SMT's
  // replay filter provides the durable defence, §6.1).
  recently_completed_.drop_before(host_.loop().now() - kCompletedRetention);
  if (recently_completed_.contains(key)) return;

  auto [it, created] = rx_messages_.try_emplace(key);
  RxMessage& rx = it->second;
  if (created) {
    rx.peer = peer;
    rx.msg_id = pkt.hdr.msg_id;
    rx.total_bytes = pkt.hdr.msg_len;
    rx.buffer.reserve(rx.total_bytes);  // filled by rx_insert, no zeroing
    // SRPT-style dynamic distribution: the message binds to the currently
    // least-loaded softirq core, NOT a flow-pinned one (§2.2). Core 0 is
    // the pacer/SRPT thread and is skipped when other cores exist.
    rx.softirq_core = host_.least_loaded_softirq_index(
        host_.softirq_core_count() > 1 ? 1 : 0);
    // The NIC RX ring this flow's frames hash to — the key the layer
    // above leases RX flow contexts by.
    rx.rx_queue = host_.nic().rx_queue_for(pkt.hdr);
    ++stats_.messages_received;
  }
  rx.last_activity = host_.loop().now();

  const std::size_t offset = data_offset(pkt.hdr);

  stack::CpuCore& core = host_.softirq_core(rx.softirq_core);
  const auto& costs = host_.costs();
  const SimDuration rx_cost = pkt.hdr.ip_id == pkt.hdr.ipid_base
                                  ? costs.homa_rx_packet
                                  : costs.rx_packet_cont;
  // Pacer/SRPT thread (core 0): every message passes through a fixed
  // bookkeeping step on creation; multi-packet (scheduled-path) messages
  // additionally pay per packet. This serialised thread is Homa/Linux's
  // throughput ceiling — the paper's "constrained to ~700 K RPC/s by the
  // softirq thread" (§5.2/§5.3). The packet waits for this step before
  // its own protocol work, so it adds about 1.1 us of unloaded RTT at
  // 64 B, and under load the per-message work queues on ONE core.
  SimDuration pacer_cost = 0;
  if (created) pacer_cost += costs.homa_pacer_per_message;
  if (rx.total_bytes > host_.nic().config().mtu_payload) {
    pacer_cost += costs.homa_pacer_per_packet;
  }

  auto process = [this, key, offset, payload = std::move(pkt.payload)] {
    auto it2 = rx_messages_.find(key);
    if (it2 == rx_messages_.end()) return;
    RxMessage& rx2 = it2->second;
    rx_insert(rx2, offset, payload);
    if (rx2.received_bytes >= rx2.total_bytes) {
      rx_complete(key);
    } else {
      maybe_grant(rx2);
      arm_resend_timer(key);
    }
  };

  if (pacer_cost > 0) {
    // The packet's protocol work is gated behind the pacer step.
    host_.softirq_core(0).run(
        pacer_cost, [this, key, rx_cost, process = std::move(process)] {
          auto it2 = rx_messages_.find(key);
          if (it2 == rx_messages_.end()) return;
          host_.softirq_core(it2->second.softirq_core)
              .run(rx_cost, std::move(process));
        });
  } else {
    core.run(rx_cost, std::move(process));
  }
}

void HomaEndpoint::rx_insert(RxMessage& rx, std::size_t offset,
                             ByteView data) {
  if (data.empty() && rx.total_bytes == 0) return;
  if (offset + data.size() > rx.total_bytes) return;  // malformed; drop

  const std::size_t begin = offset;
  const std::size_t end = offset + data.size();
  if (rx.intervals.empty()) {
    const std::size_t prefix_end = rx.buffer.size();
    if (begin <= prefix_end) {
      // In order (or a duplicate inside the prefix): rewrite the overlap,
      // as a later copy always lands, and append the rest.
      const std::size_t overlap = std::min(end, prefix_end) - begin;
      std::copy_n(data.begin(), overlap,
                  rx.buffer.begin() + std::ptrdiff_t(begin));
      rx.buffer.insert(rx.buffer.end(),
                       data.begin() + std::ptrdiff_t(overlap), data.end());
      rx.received_bytes = rx.buffer.size();
      return;
    }
    // The first packet past the prefix: from here on the buffer is the
    // whole message and the map tracks what has arrived.
    if (prefix_end > 0) rx.intervals.emplace(0, prefix_end);
    rx.buffer.resize(rx.total_bytes);
  }

  // Merge [offset, end) into the received-interval map in place, counting
  // only newly covered bytes (duplicates from spurious retransmits are
  // free).
  std::copy(data.begin(), data.end(),
            rx.buffer.begin() + std::ptrdiff_t(offset));

  auto it = rx.intervals.upper_bound(begin);
  std::size_t absorbed = 0;  // bytes already covered by merged intervals
  if (it != rx.intervals.begin() && std::prev(it)->second >= begin) {
    it = std::prev(it);
    absorbed = it->second - it->first;
    it->second = std::max(it->second, end);
  } else {
    it = rx.intervals.emplace_hint(it, begin, end);
  }
  for (auto next = std::next(it);
       next != rx.intervals.end() && next->first <= it->second;
       next = rx.intervals.erase(next)) {
    absorbed += next->second - next->first;
    it->second = std::max(it->second, next->second);
  }
  rx.received_bytes += (it->second - it->first) - absorbed;
}

void HomaEndpoint::maybe_grant(RxMessage& rx) {
  if (rx.total_bytes <= kUnscheduledBytes) return;
  if (rx.granted_bytes == 0) rx.granted_bytes = kUnscheduledBytes;
  const std::size_t target =
      std::min(rx.total_bytes, rx.received_bytes + kGrantWindow);
  if (target <= rx.granted_bytes) return;
  rx.granted_bytes = target;
  ++stats_.grants_sent;
  stack::CpuCore& core = host_.softirq_core(rx.softirq_core);
  core.charge(host_.costs().ctrl_packet);
  send_ctrl(rx.peer, PacketType::grant, rx.msg_id, 0, std::uint32_t(target),
            &core);
}

void HomaEndpoint::rx_complete(const RxKey& key) {
  auto it = rx_messages_.find(key);
  if (it == rx_messages_.end()) return;
  RxMessage& rx = it->second;

  // Remember the identity briefly to drop spurious retransmissions. The
  // count bound rides on top of the time bound: at high fan-in one
  // retention window can complete more messages than the window holds, so
  // the push evicts the oldest entry when the expired ones leave no room.
  const SimTime now = host_.loop().now();
  recently_completed_.drop_before(now - kCompletedRetention);
  recently_completed_.push(now, key);

  // ACK lets the sender free its retransmission state; the message's
  // softirq core posts it (and pays the doorbell if it arms one).
  send_ctrl(rx.peer, PacketType::ack, rx.msg_id, 0, 0,
            &host_.softirq_core(rx.softirq_core));

  // Homa copies the COMPLETE message to the application in one go (§5.1) —
  // the cost lands at completion, after the last packet.
  MessageMeta meta{rx.peer, rx.msg_id, rx.softirq_core, rx.rx_queue};
  Bytes payload = std::move(rx.buffer);
  const std::size_t core_index = rx.softirq_core;
  // The resend timer's rx_messages_.find(key) misses from here on (and the
  // dedup window keeps the key from being recreated): a no-op.
  host_.loop().cancel(rx.resend_timer);
  rx_messages_.erase(it);

  // Copy cost only: the application-side wakeup (recvmsg return) is
  // charged by the layer that dispatches to the app thread. Homa/Linux
  // copies the complete message here, unpipelined (§5.1).
  stack::CpuCore& core = host_.softirq_core(core_index);
  const SimDuration copy = host_.costs().copy_cost(payload.size());
  core.run(copy, [this, meta, payload = std::move(payload)]() mutable {
    if (on_message_) on_message_(meta, std::move(payload));
  });
}

void HomaEndpoint::arm_resend_timer(const RxKey& key) {
  auto it = rx_messages_.find(key);
  if (it == rx_messages_.end() ||
      host_.loop().scheduled(it->second.resend_timer)) {
    return;
  }
  it->second.resend_timer =
      host_.loop().schedule(resend_lane_, kResendInterval, [this, key] {
        auto it2 = rx_messages_.find(key);
        if (it2 == rx_messages_.end()) return;
        RxMessage& rx = it2->second;
        const SimTime idle = host_.loop().now() - rx.last_activity;
        if (idle >= kResendInterval) {
          if (++rx.resend_count > kMaxResends) {
            ++stats_.messages_expired;
            rx_messages_.erase(it2);
            return;
          }
          // First missing range: past the in-order prefix, or the map's
          // first gap.
          std::size_t missing_begin =
              rx.intervals.empty() ? rx.buffer.size() : 0;
          std::size_t missing_end = rx.total_bytes;
          for (const auto& [s, e] : rx.intervals) {
            if (s == missing_begin) {
              missing_begin = e;
            } else {
              missing_end = s;
              break;
            }
          }
          if (missing_begin < missing_end) {
            ++stats_.resends_requested;
            send_ctrl(rx.peer, PacketType::resend, rx.msg_id,
                      std::uint32_t(missing_begin) + 1,
                      std::uint32_t(missing_end));
          }
        }
        arm_resend_timer(key);
      });
}

void HomaEndpoint::handle_grant(const Packet& pkt) {
  const PeerAddr peer{pkt.hdr.flow.src_ip, pkt.hdr.flow.src_port};
  auto it = tx_messages_.find(TxKey{peer, pkt.hdr.msg_id});
  if (it == tx_messages_.end()) return;
  TxMessage& tx = it->second;
  tx.granted_bytes = std::max<std::size_t>(tx.granted_bytes, pkt.hdr.grant_off);
  // Grant processing runs in the softirq context (§3.2).
  stack::CpuCore& core = host_.softirq_for_hash(tx.flow_hash);
  core.charge(host_.costs().ctrl_packet);
  pump_tx(tx, &core);
}

void HomaEndpoint::handle_resend(const Packet& pkt) {
  const PeerAddr peer{pkt.hdr.flow.src_ip, pkt.hdr.flow.src_port};
  auto it = tx_messages_.find(TxKey{peer, pkt.hdr.msg_id});
  if (it == tx_messages_.end()) return;
  TxMessage& tx = it->second;
  const std::size_t from = pkt.hdr.resend_off - 1;
  const std::size_t to = pkt.hdr.grant_off;

  stack::CpuCore& core = host_.softirq_for_hash(tx.flow_hash);

  // Resend every segment overlapping [from, to). Segments with inline
  // crypto are reposted whole (the NIC must re-encrypt the records, with
  // the pre-post hook injecting resyncs). Plain segments resend only the
  // missing MTU packets, carrying explicit offsets (§4.3).
  for (std::size_t i = 0; i < tx.segments.size(); ++i) {
    const std::size_t seg_begin = tx.segments[i].tso_off;
    const std::size_t seg_end = seg_begin + tx.segments[i].payload.size();
    if (seg_end <= from || seg_begin >= to) continue;
    if (seg_begin >= tx.sent_bytes) continue;  // never sent; grants cover it

    if (tx.segments[i].records.count > 0) {
      post_segment_for(tx, i, &core);
      ++stats_.packets_retransmitted;
    } else {
      const std::size_t mss = host_.nic().config().mtu_payload;
      const std::size_t lo = std::max(from, seg_begin);
      const std::size_t hi = std::min(to, seg_end);
      for (std::size_t off = seg_begin; off < seg_end; off += mss) {
        const std::size_t pkt_end = std::min(off + mss, seg_end);
        if (pkt_end <= lo || off >= hi) continue;
        sim::SegmentDescriptor d;
        d.segment.hdr = data_header(tx, seg_begin);
        d.segment.hdr.resend_off = std::uint32_t(off) + 1;  // explicit offset
        d.segment.payload = tx.segments[i].payload.subslice(
            off - seg_begin, pkt_end - off);
        const std::size_t queue = queue_for_message(tx.msg_id);
        core.run(host_.costs().homa_tx_packet,
                 [this, queue, &core, desc = std::move(d)]() mutable {
                   host_.nic().post_segment(queue, std::move(desc),
                                            stack::doorbell_charge(&core));
                 });
        ++stats_.packets_retransmitted;
      }
    }
  }
}

void HomaEndpoint::handle_ack(const Packet& pkt) {
  const PeerAddr peer{pkt.hdr.flow.src_ip, pkt.hdr.flow.src_port};
  const auto it = tx_messages_.find(TxKey{peer, pkt.hdr.msg_id});
  if (it == tx_messages_.end()) return;
  const std::uint64_t msg_id = it->first.second;
  // The backstop's tx_messages_.find(key) misses once the message is
  // erased ("acked and freed"): a no-op, so it leaves the event heap now.
  host_.loop().cancel(it->second.backstop);
  tx_messages_.erase(it);
  if (on_sent_) on_sent_(peer, msg_id);
}

void HomaEndpoint::send_ctrl(PeerAddr dst, PacketType type,
                             std::uint64_t msg_id, std::uint32_t resend_off,
                             std::uint32_t grant_off, stack::CpuCore* core) {
  sim::SegmentDescriptor d;
  d.segment.hdr.flow = flow_to(dst);
  d.segment.hdr.type = type;
  d.segment.hdr.msg_id = msg_id;
  d.segment.hdr.resend_off = resend_off;
  d.segment.hdr.grant_off = grant_off;
  host_.nic().post_segment(queue_for_message(msg_id), std::move(d),
                           stack::doorbell_charge(core));
}

}  // namespace smt::transport
