#include "smt/endpoint.hpp"

#include <algorithm>
#include <cassert>

namespace smt::proto {

SmtEndpoint::SmtEndpoint(stack::Host& host, std::uint16_t port,
                         SmtConfig config)
    : config_(std::move(config)),
      homa_(host, port, sim::Proto::smt) {
  homa_.set_on_message(
      [this](transport::HomaEndpoint::MessageMeta meta, Bytes wire) {
        on_wire_message(meta, std::move(wire));
      });
}

SmtEndpoint::~SmtEndpoint() {
  // Return every leased NIC context to the host-wide pool.
  for (const auto& [peer, session] : sessions_) {
    homa_.host().flow_contexts().invalidate_session(sim::Proto::smt,
                                                      session_tag(peer));
  }
}

Status SmtEndpoint::register_session(PeerAddr peer, tls::CipherSuite suite,
                                     const tls::TrafficKeys& tx_keys,
                                     const tls::TrafficKeys& rx_keys) {
  if (sessions_.count(peer)) {
    return make_error(Errc::invalid_argument, "session already registered");
  }
  Session session;
  session.suite = suite;
  session.tx.emplace(suite, tx_keys);
  session.rx.emplace(suite, rx_keys);
  sessions_.emplace(peer, std::move(session));
  return Status::success();
}

Status SmtEndpoint::rekey_session(PeerAddr peer, tls::CipherSuite suite,
                                  const tls::TrafficKeys& tx_keys,
                                  const tls::TrafficKeys& rx_keys) {
  auto it = sessions_.find(peer);
  if (it == sessions_.end()) {
    return make_error(Errc::not_connected, "no session to rekey");
  }
  Session& session = it->second;
  // Release stale NIC contexts; new keys need fresh ones.
  homa_.host().flow_contexts().invalidate_session(sim::Proto::smt,
                                                      session_tag(peer));
  session.suite = suite;
  session.tx.emplace(suite, tx_keys);
  session.rx.emplace(suite, rx_keys);
  // Key change resets the message-ID space (§4.5.2) — flush the transport
  // dedup state so reused IDs are not mistaken for retransmissions.
  session.next_msg_id = 0;
  session.rx_filter.reset();
  homa_.flush_dedup_state();
  return Status::success();
}

Result<std::uint64_t> SmtEndpoint::send_message(PeerAddr dst, Bytes plaintext,
                                                stack::CpuCore* app_core,
                                                std::size_t pad_to) {
  auto session_it = sessions_.find(dst);
  if (session_it == sessions_.end()) {
    return make_error(Errc::not_connected, "no session registered for peer");
  }
  Session& session = session_it->second;

  if (!config_.layout.valid_msg_id(session.next_msg_id)) {
    return make_error(Errc::resource_exhausted,
                      "session message-ID space exhausted; rekey required");
  }
  const std::uint64_t msg_id = session.next_msg_id++;
  const std::size_t queue = homa_.queue_for_message(msg_id);

  // Records align to the NIC's segments (§4.3), so a record block must
  // fit one segment: without TSO, one MTU-sized packet (§7).
  const std::size_t max_segment =
      homa_.host().nic().config().max_segment_bytes();
  SegmenterConfig seg_config;
  seg_config.layout = config_.layout;
  seg_config.max_record_payload = std::min(
      config_.max_record_payload, max_segment - record_block_overhead());
  seg_config.max_tso_bytes = max_segment;
  seg_config.hardware_crypto = config_.hw_offload;

  bool fresh_tx_lease = false;
  if (config_.hw_offload) {
    // Acquire the lease up front so context exhaustion (every NIC context
    // busy, nothing evictable) surfaces as a synchronous send error. The
    // pre-post hook re-acquires per descriptor — by post time the LRU
    // manager may have evicted and re-established the context.
    const std::uint64_t first_seq = config_.layout.compose(msg_id, 0);
    auto lease = homa_.host().flow_contexts().acquire(
        tx_key(dst, queue), session.suite, session.tx->keys(), first_seq);
    if (!lease.ok()) return lease.error();
    fresh_tx_lease = lease.value()->fresh;
    seg_config.nic_context_id = lease.value()->nic_context_id;
  }

  auto wire = build_wire_message(seg_config, *session.tx, msg_id, plaintext,
                                 pad_to);
  if (!wire.ok()) return wire.error();
  WireMessage& message = wire.value();

  // Crypto CPU costs in the syscall context (§3.2: sends start there).
  const auto& costs = homa_.host().costs();
  if (app_core != nullptr) {
    if (config_.hw_offload) {
      // Only descriptor/metadata population; the NIC does the crypto.
      app_core->charge(costs.offload_metadata *
                       SimDuration(message.record_count));
      // A fresh lease means the driver just programmed the NIC context —
      // establishment is real work, not a free alloc (§4.4.2).
      if (fresh_tx_lease) app_core->charge(costs.context_establish);
    } else {
      app_core->charge(
          costs.aead_sw_cost(message.total_wire_bytes, message.record_count));
    }
  }

  // Hardware mode: the pre-post hook late-binds the (session, queue) flow
  // context at post time through the shared manager — transparently
  // re-establishing it if it was evicted since the send was issued — and
  // resyncs whenever the hardware counter would diverge: context *reuse*
  // across messages (§4.4.2).
  transport::PrePostHook hook;
  if (config_.hw_offload) {
    hook = [this, dst](std::size_t q, sim::SegmentDescriptor& desc,
                       stack::CpuCore* post_core) {
      auto it = sessions_.find(dst);
      if (it == sessions_.end()) return;
      homa_.host().flow_contexts().bind_tx(tx_key(dst, q), it->second.suite,
                                           it->second.tx->keys(), desc,
                                           post_core);
    };
  }

  std::vector<transport::SegmentSpec> segments;
  segments.reserve(message.segments.size());
  for (SegmentPlan& plan : message.segments) {
    transport::SegmentSpec spec;
    spec.payload = std::move(plan.payload);
    spec.records = std::move(plan.records);
    segments.push_back(std::move(spec));
  }

  auto sent = homa_.send_segments(dst, std::move(segments),
                                  message.total_wire_bytes, msg_id, app_core,
                                  std::move(hook));
  if (!sent.ok()) return sent.error();
  return msg_id;
}

void SmtEndpoint::on_wire_message(transport::HomaEndpoint::MessageMeta meta,
                                  Bytes wire) {
  auto session_it = sessions_.find(meta.peer);
  if (session_it == sessions_.end()) {
    ++stats_.no_session_drops;
    return;
  }
  Session& session = session_it->second;

  // Replay defence (§4.4.1 / §6.1): a previously seen message ID is
  // discarded WITHOUT decryption.
  if (!session.rx_filter.accept(meta.msg_id)) {
    ++stats_.replays_dropped;
    return;
  }

  // Receive-side crypto cost, charged on the softirq core the message was
  // reassembled on. Software mode pays the full AEAD cost. Hardware mode
  // leases an RX flow context keyed by the NIC RX ring the flow hashes to
  // (same finite context table the TX side uses — server-side context
  // pressure, §4.4.2): with a context held the NIC decrypted in line and
  // the host pays only per-record metadata (plus establishment when the
  // lease is fresh); when every context is busy, decryption falls back to
  // software at software cost. Plaintext recovery below is always done in
  // software — it is the simulator's byte-fidelity path; the lease decides
  // only what virtual time is charged.
  stack::Host& host = homa_.host();
  stack::CpuCore& core = host.softirq_core(meta.softirq_core);
  const auto& costs = host.costs();
  SimDuration crypto_cost = 0;
  if (config_.hw_offload) {
    const std::uint64_t first_seq = config_.layout.compose(meta.msg_id, 0);
    auto lease = host.flow_contexts().acquire(
        stack::FlowKey{sim::Proto::smt, session_tag(meta.peer),
                       std::uint32_t(meta.rx_queue), stack::FlowDir::rx},
        session.suite, session.rx->keys(), first_seq);
    if (lease.ok()) {
      const std::size_t records =
          std::max<std::size_t>(1, count_record_blocks(wire));
      crypto_cost = costs.offload_metadata * SimDuration(records);
      stack::FlowContextManager::Lease& ctx = *lease.value();
      if (ctx.fresh) {
        ++stats_.rx_contexts_created;
        crypto_cost += costs.context_establish;
      } else if (ctx.shadow_seq != first_seq) {
        // Context reuse across messages: the driver re-programs the RX
        // context's expected record counter — the receive half of the TX
        // resync (§4.4.2).
        crypto_cost += costs.resync_post;
        ++stats_.rx_resyncs;
      }
      ctx.shadow_seq = config_.layout.compose(meta.msg_id, records);
    } else {
      ++stats_.rx_context_acquire_failures;
      crypto_cost = costs.aead_sw_cost(wire.size());
    }
  } else {
    crypto_cost = costs.aead_sw_cost(wire.size());
  }
  const PeerAddr peer = meta.peer;
  const std::uint64_t msg_id = meta.msg_id;
  core.run(crypto_cost,
           [this, peer, msg_id, wire = std::move(wire)] {
             auto it = sessions_.find(peer);
             if (it == sessions_.end()) return;
             auto opened = open_wire_message(config_.layout, *it->second.rx,
                                             msg_id, wire);
             if (!opened.ok()) {
               ++stats_.decrypt_failures;
               return;
             }
             ++stats_.messages_delivered;
             if (on_message_) {
               on_message_(MessageMeta{peer, msg_id},
                           std::move(opened).take());
             }
           });
}

}  // namespace smt::proto
