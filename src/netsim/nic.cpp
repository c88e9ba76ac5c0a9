#include "netsim/nic.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/gcm.hpp"
#include "tls/record.hpp"

namespace smt::sim {

namespace {
/// The DIM moderation ladder: each ring walks this from the observed
/// per-interrupt frame rate, net_dim-profile style. Level 0 is
/// fire-immediately (latency-probe traffic); higher levels hold the
/// interrupt back for larger batches (flood traffic).
struct DimLevel {
  std::size_t frames;
  double usecs;
};
constexpr DimLevel kDimLadder[] = {
    {1, 0.0}, {2, 2.0}, {4, 4.0}, {8, 8.0}, {16, 16.0}, {32, 32.0},
};
constexpr std::size_t kDimLevels = sizeof(kDimLadder) / sizeof(kDimLadder[0]);

/// The starting ladder level for a configured static threshold: the
/// highest level not exceeding it, so adaptive mode starts close to what
/// the operator asked for and adapts from there.
std::size_t dim_seed_level(std::size_t coalesce_frames) {
  std::size_t level = 0;
  while (level + 1 < kDimLevels &&
         kDimLadder[level + 1].frames <= coalesce_frames) {
    ++level;
  }
  return level;
}
}  // namespace

Nic::Nic(EventLoop& loop, NicConfig config)
    : loop_(loop),
      config_(std::move(config)),
      queues_(config_.num_queues),
      rx_rings_(config_.num_queues) {
  // Default indirection table: uniform round-robin over the active rings,
  // the same spread `ethtool -X ... equal N` programs.
  rss_table_.resize(kRssIndirectionSize);
  for (std::size_t entry = 0; entry < rss_table_.size(); ++entry) {
    rss_table_[entry] = entry % config_.num_queues;
  }
  for (RxRing& ring : rx_rings_) seed_moderation(ring);
}

void Nic::seed_moderation(RxRing& ring) const {
  if (config_.adaptive_rx_coalesce) {
    ring.dim_level =
        dim_seed_level(std::max<std::size_t>(1, config_.rx_coalesce_frames));
    ring.coalesce_frames = kDimLadder[ring.dim_level].frames;
    ring.coalesce_usecs = kDimLadder[ring.dim_level].usecs;
  } else {
    ring.coalesce_frames = std::max<std::size_t>(1, config_.rx_coalesce_frames);
    ring.coalesce_usecs = config_.rx_coalesce_usecs;
  }
  ring.dim_ewma = 0.0;
  ring.dim_streak = 0;
}

Status Nic::set_rss_indirection(const std::vector<std::size_t>& table,
                                CpuCharge poster) {
  if (table.size() != rss_table_.size()) {
    return make_error(Errc::invalid_argument,
                      "RSS indirection table size mismatch (ethtool -X "
                      "writes the whole table)");
  }
  for (const std::size_t ring : table) {
    if (ring >= config_.num_queues) {
      return make_error(Errc::invalid_argument,
                        "RSS indirection entry names a ring >= num_queues");
    }
  }
  ++counters_.rss_reprograms;
  if (poster) poster(kRssReprogramCost);
  for (std::size_t entry = 0; entry < table.size(); ++entry) {
    if (rss_table_[entry] == table[entry]) {
      // Already routing there (or a pending flip was reverted).
      rss_pending_.erase(entry);
      continue;
    }
    const std::size_t old_ring = rss_table_[entry];
    RxRing& ring = rx_rings_[old_ring];
    if (ring.frames.empty() && !ring.draining) {
      rss_table_[entry] = table[entry];
      rss_pending_.erase(entry);
      continue;
    }
    // Order guard: keep routing to the old ring until it drains. Flush its
    // interrupt now so a hold-off timer cannot stall the flip. Re-writing
    // an already-pending flip with the same target is idempotent — one
    // held flip, counted once.
    const auto pending = rss_pending_.find(entry);
    if (pending != rss_pending_.end() && pending->second == table[entry]) {
      continue;
    }
    rss_pending_[entry] = table[entry];
    ++counters_.rss_deferred_entries;
    flush_rx_ring(old_ring);
  }
  return Status::success();
}

void Nic::resolve_rss_pending(std::size_t drained_ring) {
  for (auto it = rss_pending_.begin(); it != rss_pending_.end();) {
    if (rss_table_[it->first] == drained_ring) {
      rss_table_[it->first] = it->second;
      it = rss_pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Nic::flush_rx_ring(std::size_t ring) {
  RxRing& r = rx_rings_.at(ring);
  if (r.draining || r.frames.empty()) return;
  fire_rx_interrupt(ring);
}

void Nic::receive(Packet packet) {
  // RSS: the five-tuple hash indexes the indirection table, which picks
  // the RX ring — every frame of one flow lands in the same ring (even
  // mid-reprogram, thanks to the deferred-flip order guard) and stays
  // FIFO relative to its peers. The hash is the header's memoized copy
  // (stamped once per segment by the TX NIC), never recomputed here.
  const std::size_t index = rx_queue_for(packet.hdr);
  RxRing& ring = rx_rings_[index];
  if (config_.rx_ring_size > 0 && ring.frames.size() >= config_.rx_ring_size) {
    // Descriptor ring overflow: real hardware tail-drops; the loss is
    // visible to the transport as a gap, never as reordering.
    ++ring.dropped;
    return;
  }
  if (packet.hdr.corrupted) ++counters_.rx_corrupt_frames;
  ring.frames.push_back(std::move(packet));
  ++ring.frames_total;
  maybe_fire_rx_interrupt(index);
}

void Nic::reset() {
  // TX: every queued descriptor dies with the device. Contexts they
  // referenced are gone too, so no unpin bookkeeping survives either.
  for (auto& queue : queues_) queue.clear();
  pending_ = 0;
  rr_cursor_ = 0;
  // processing_ stays as-is: an in-flight process_batch event observes
  // empty queues, clears the flag itself, and exits (the defensive path
  // kick() already has). Forcing it false here could double-schedule.

  // TLS offload: the context table is the definitional loss of a reset.
  // next_context_id_ keeps counting so stale IDs cached host-side can
  // never alias a context created after the reset.
  contexts_.clear();

  // RSS reverts to the driver-default round-robin spread; deferred flips
  // are moot (both their old and new rings just lost their frames).
  for (std::size_t entry = 0; entry < rss_table_.size(); ++entry) {
    rss_table_[entry] = entry % config_.num_queues;
  }
  rss_pending_.clear();

  // RX: queued frames are lost (visible as ring drops), hold-off timers
  // are cancelled, and moderation/DIM reseeds exactly like the
  // constructor. `draining` stays: a scheduled drain observes an empty
  // ring, delivers nothing, and clears itself.
  for (RxRing& ring : rx_rings_) {
    ring.dropped += ring.frames.size();
    ring.frames.clear();
    loop_.cancel(ring.hold_off);
    seed_moderation(ring);
  }

  next_ip_id_ = 1;
  ++counters_.resets;
}

void Nic::maybe_fire_rx_interrupt(std::size_t index) {
  RxRing& ring = rx_rings_[index];
  if (ring.draining || ring.frames.empty()) return;
  // The ethtool rx-frames contract is PER RING: only THIS ring's pending
  // count fires its threshold, so the interrupt rate scales with active
  // rings instead of collapsing into a shared host-global budget. A FULL
  // bounded ring fires regardless of the threshold: real NICs interrupt
  // on ring pressure rather than tail-dropping through a hold-off window
  // (a coalesce threshold above rx_ring_size would otherwise be
  // unreachable — the ring can never hold enough frames to trip it).
  const bool ring_full = config_.rx_ring_size > 0 &&
                         ring.frames.size() >= config_.rx_ring_size;
  if (ring.frames.size() >= ring.coalesce_frames || ring_full ||
      ring.coalesce_usecs <= 0.0) {
    fire_rx_interrupt(index);
    return;
  }
  if (loop_.scheduled(ring.hold_off)) return;
  // Hold off, hoping more frames coalesce. fire_rx_interrupt and reset()
  // cancel this timer, so when it runs it is still the ring's live one.
  ring.hold_off =
      loop_.schedule(SimDuration(ring.coalesce_usecs * 1e3), [this, index] {
        const RxRing& r = rx_rings_[index];
        if (!r.draining && !r.frames.empty()) fire_rx_interrupt(index);
      });
}

void Nic::fire_rx_interrupt(std::size_t index) {
  RxRing& ring = rx_rings_[index];
  ring.draining = true;
  // The hold-off timer was waiting for this interrupt: cancel it, so only
  // a hold-off scheduled after this drain can fire the ring's next one.
  loop_.cancel(ring.hold_off);
  ++ring.interrupts;
  // The fixed interrupt cost (vector dispatch, IRQ entry/exit, NAPI
  // scheduling) is paid once; the burst is sized when the drain RUNS, so
  // frames arriving inside the interrupt window join the batch. With an
  // IRQ executor installed the cost is charged to the ring's affinity
  // core — the drain queues behind whatever that core is already doing,
  // so a backlogged softirq core delays delivery (the paper's §5.2
  // softirq-thread contention made visible). Without one the cost is pure
  // event-loop delay (raw Nic objects).
  const SimDuration cost = kPerInterruptCost;
  if (irq_run_) {
    ring.irq_ns += std::uint64_t(cost);
    irq_run_(index, cost, [this, index] { drain_rx(index); });
  } else {
    loop_.schedule(cost, [this, index] { drain_rx(index); });
  }
}

void Nic::drain_rx(std::size_t index) {
  RxRing& ring = rx_rings_[index];
  const std::size_t budget = std::max<std::size_t>(1, config_.rx_burst);
  const std::size_t burst = std::min(ring.frames.size(), budget);
  // Per-frame completion work (descriptor fetch, buffer unmap) billed to
  // the same IRQ core; delivery order within the ring is the FIFO deque.
  if (burst > 0 && irq_charge_) {
    const SimDuration frame_cost = kPerRxFrameCost * SimDuration(burst);
    ring.irq_ns += std::uint64_t(frame_cost);
    irq_charge_(index, frame_cost);
  }
  for (std::size_t i = 0; i < burst; ++i) {
    Packet pkt = std::move(ring.frames.front());
    ring.frames.pop_front();
    ++ring.delivered;
    if (rx_handler_) rx_handler_(std::move(pkt));
  }

  counters_.max_rx_batch =
      std::max<std::uint64_t>(counters_.max_rx_batch, burst);
  ring.draining = false;
  if (config_.adaptive_rx_coalesce) dim_update(ring, burst, budget);
  // Back-to-back interrupts while frames remain (NAPI re-poll); each new
  // batch pays its own kPerInterruptCost, but leftover frames — which
  // already waited out a hold-off — are never held for a fresh one.
  if (!ring.frames.empty()) {
    fire_rx_interrupt(index);
  } else if (!rss_pending_.empty()) {
    // The ring is empty: indirection entries that were held routing here
    // flip to their new ring now — no frame of a remapped flow can still
    // be in flight, so the flip cannot reorder.
    resolve_rss_pending(index);
  }
}

void Nic::dim_update(RxRing& ring, std::size_t drained, std::size_t budget) {
  // DIM sample: frames this interrupt delivered, smoothed so one odd batch
  // doesn't move the level.
  ring.dim_ewma = ring.dim_ewma <= 0.0
                      ? double(drained)
                      : (ring.dim_ewma * 7.0 + double(drained)) / 8.0;
  int direction = 0;
  if (drained >= budget) {
    direction = 1;  // NAPI budget exhausted: flood — widen the hold-off
  } else if (ring.dim_ewma <= 2.0) {
    direction = -1;  // near-single-frame interrupts: latency probe — narrow
  }
  if (direction == 0) {
    ring.dim_streak = 0;
    return;
  }
  ring.dim_streak = (direction > 0) == (ring.dim_streak > 0)
                        ? ring.dim_streak + direction
                        : direction;
  if (ring.dim_streak >= 2 && ring.dim_level + 1 < kDimLevels) {
    ++ring.dim_level;
    ring.dim_streak = 0;
  } else if (ring.dim_streak <= -2 && ring.dim_level > 0) {
    --ring.dim_level;
    ring.dim_streak = 0;
  }
  ring.coalesce_frames = kDimLadder[ring.dim_level].frames;
  ring.coalesce_usecs = kDimLadder[ring.dim_level].usecs;
}

NicCounters Nic::counters() const {
  NicCounters sum = counters_;
  for (const RxRing& ring : rx_rings_) {
    sum.rx_frames += ring.frames_total;
    sum.rx_delivered += ring.delivered;
    sum.rx_interrupts += ring.interrupts;
    sum.rx_dropped += ring.dropped;
    sum.irq_cpu_ns += ring.irq_ns;
  }
  return sum;
}

Result<std::uint32_t> Nic::create_flow_context(tls::CipherSuite suite,
                                               const tls::TrafficKeys& keys,
                                               std::uint64_t initial_seq) {
  if (contexts_.size() >= config_.max_flow_contexts) {
    ++counters_.context_alloc_failures;
    return make_error(Errc::resource_exhausted, "NIC flow contexts exhausted");
  }
  const std::uint32_t id = next_context_id_++;
  FlowContext& ctx =
      contexts_
          .emplace(id, FlowContext{suite, {}, crypto::AesGcm(keys.key),
                                   initial_seq})
          .first->second;
  assert(keys.iv.size() == ctx.iv.size());
  std::copy_n(keys.iv.begin(), ctx.iv.size(), ctx.iv.begin());
  ++counters_.context_allocs;
  return id;
}

void Nic::release_flow_context(std::uint32_t id) {
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) return;
  if (it->second.inflight > 0) {
    it->second.pending_release = true;  // erased when the last user drains
    return;
  }
  contexts_.erase(it);
}

bool Nic::context_in_flight(std::uint32_t id) const {
  const auto it = contexts_.find(id);
  return it != contexts_.end() && it->second.inflight > 0;
}

void Nic::pin_context(std::uint32_t id) {
  const auto it = contexts_.find(id);
  if (it != contexts_.end()) ++it->second.inflight;
}

void Nic::unpin_context(std::uint32_t id) {
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) return;
  if (it->second.inflight > 0) --it->second.inflight;
  if (it->second.inflight == 0 && it->second.pending_release) {
    contexts_.erase(it);
  }
}

std::optional<std::uint64_t> Nic::context_seq(std::uint32_t id) const {
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) return std::nullopt;
  return it->second.internal_seq;
}

void Nic::post_resync(std::size_t queue, std::uint32_t context_id,
                      std::uint64_t new_seq, CpuCharge poster) {
  assert(queue < queues_.size());
  Descriptor d;
  d.is_resync = true;
  d.resync_context = context_id;
  d.resync_seq = new_seq;
  pin_context(context_id);
  queues_[queue].push_back(std::move(d));
  ++pending_;
  kick(poster);
}

void Nic::post_segment(std::size_t queue, SegmentDescriptor descriptor,
                       CpuCharge poster) {
  assert(queue < queues_.size());
  assert(descriptor.segment.payload.size() <= config_.max_segment_bytes());
  if (descriptor.records.count > 0) pin_context(descriptor.records.context_id);
  Descriptor d;
  d.segment = std::move(descriptor);
  queues_[queue].push_back(std::move(d));
  ++pending_;
  kick(poster);
}

std::size_t Nic::pending_descriptors() const { return pending_; }

void Nic::kick(const CpuCharge& poster) {
  if (processing_) return;
  if (pending_descriptors() == 0) return;
  // Ring the doorbell: one fixed cost per drain event. The burst is sized
  // when the drain BEGINS, so descriptors posted inside the doorbell
  // window coalesce into the batch (xmit_more-style); descriptors posted
  // after it wait for the next doorbell, which fires back-to-back from
  // process_batch() while the rings are non-empty. The core whose post
  // arms the doorbell pays the MMIO/scheduling cost (posts that coalesce
  // into an already-open batch ride for free — xmit_more's entire point).
  processing_ = true;
  ++counters_.doorbells;
  if (poster) {
    counters_.doorbell_cpu_ns += std::uint64_t(kPerDoorbellCost);
    poster(kPerDoorbellCost);
  }
  loop_.schedule(kPerDoorbellCost, [this] {
    const std::size_t burst = std::min(
        pending_descriptors(), std::max<std::size_t>(1, config_.tx_burst));
    if (burst == 0) {  // defensive: queues only drain here
      processing_ = false;
      return;
    }
    loop_.schedule(kPerDescriptorCost * SimDuration(burst),
                   [this, burst] { process_batch(burst); });
  });
}

void Nic::process_batch(std::size_t burst) {
  std::size_t drained = 0;
  while (drained < burst) {
    // Round-robin scan for the next non-empty queue. This is the ordering
    // model that makes cross-queue resync+segment pairs non-atomic (§3.2).
    std::size_t scanned = 0;
    while (scanned < queues_.size() && queues_[rr_cursor_].empty()) {
      rr_cursor_ = (rr_cursor_ + 1) % queues_.size();
      ++scanned;
    }
    if (scanned == queues_.size()) break;

    Descriptor d = std::move(queues_[rr_cursor_].front());
    queues_[rr_cursor_].pop_front();
    --pending_;
    rr_cursor_ = (rr_cursor_ + 1) % queues_.size();

    if (d.is_resync) {
      ++counters_.resyncs;
      const auto it = contexts_.find(d.resync_context);
      if (it != contexts_.end()) it->second.internal_seq = d.resync_seq;
      unpin_context(d.resync_context);
    } else {
      ++counters_.segments;
      encrypt_records(d.segment);
      if (d.segment.records.count > 0) {
        unpin_context(d.segment.records.context_id);
      }
      emit_segment(std::move(d.segment));
    }
    ++drained;
  }

  counters_.max_burst_drained = std::max<std::uint64_t>(
      counters_.max_burst_drained, drained);
  processing_ = false;
  // Back-to-back drain while descriptors remain: the NIC's own engine
  // re-arms, no CPU rang this doorbell, so nobody is charged for it.
  kick(nullptr);
}

void Nic::encrypt_records(SegmentDescriptor& descriptor) {
  const InlineTls& run = descriptor.records;
  if (run.count == 0) return;

  const auto it = contexts_.find(run.context_id);
  if (it == contexts_.end()) {
    // The context was freed under the run, or none was bound (id 0):
    // the shells go out unencrypted and fail authentication at the
    // receiver, so the failure is visible, not silent.
    counters_.context_misses += run.count;
    return;
  }
  FlowContext& ctx = it->second;

  // Copy-on-write: the transport retains slices of this slab (plaintext
  // for retransmission), so the in-place encryption below must land in a
  // NIC-private slab when the payload is shared. This is the datapath's
  // one TX-side copy, and only on the inline-crypto path — the hardware
  // analogue of DMA-ing the segment into the NIC before encrypting.
  MutByteView payload = descriptor.segment.payload.mutate();

  std::size_t offset = 0;
  for (std::uint64_t i = 0; i < run.count; ++i) {
    // Each record's plaintext header says where it ends. A run that does
    // not match the segment is a host bug: the rest goes out as shells.
    offset += run.lead;
    const ByteView rest = ByteView(payload).subspan(
        std::min(offset, payload.size()));
    const auto body_len = tls::parse_record_length(rest);
    const bool fits = body_len.ok() && rest.size() - tls::kRecordHeaderSize >=
                                           body_len.value();
    assert(fits && "inline TLS run does not match the segment's records");
    if (!fits) return;
    const std::size_t record_len = tls::kRecordHeaderSize + body_len.value();

    // The hardware uses its INTERNAL counter — not the software's intent.
    // When they differ the wire carries a record encrypted under the wrong
    // nonce: Figure 2's "Out-seq." corrupted segment.
    const std::uint64_t hw_seq = ctx.internal_seq;
    if (hw_seq != run.first_seq + i) ++counters_.out_of_sequence_records;

    // Nonce = IV XOR hw_seq (RFC 8446 §5.3), same as the software path.
    // Ciphertext || tag overwrite the plaintext body + reserved tag space.
    const MutByteView record = payload.subspan(offset, record_len);
    ctx.aead.seal_in_place(tls::record_nonce(ctx.iv, hw_seq),
                           record.first(tls::kRecordHeaderSize),
                           record.subspan(tls::kRecordHeaderSize));
    offset += record_len;

    ctx.internal_seq = hw_seq + 1;  // self-increment
    ++counters_.records_encrypted;
  }
}

void Nic::emit_segment(SegmentDescriptor descriptor) {
  Packet& segment = descriptor.segment;
  const std::size_t mss = config_.mtu_payload;
  const bool is_tcp = segment.hdr.flow.proto == Proto::tcp;

  // RSS hash: computed ONCE per segment here (memoized into the header)
  // and replicated by TSO into every packet below — the receive path
  // steers on this cached value without rehashing.
  segment.hdr.flow_hash();

  // Empty payload (control packets: grants, acks, SYNs) — one header-only
  // frame, explicitly guarded so the TSO do-while below cannot run its
  // zero-byte iteration. Crucially it does NOT consume an IPID: the IPID
  // sequence numbers DATA packets within a TSO burst (receivers compute
  // intra-segment offsets as ip_id - ipid_base), and a control packet
  // burning a slot would shift that arithmetic for no data.
  if (segment.payload.empty()) {
    Packet pkt;
    pkt.hdr = segment.hdr;
    pkt.hdr.ip_id = next_ip_id_;
    pkt.hdr.ipid_base = next_ip_id_;
    pkt.hdr.checksum_valid = is_tcp;
    ++counters_.packets;
    if (tx_) tx_->send(std::move(pkt));
    return;
  }

  const std::uint16_t base_ip_id = next_ip_id_;
  std::size_t offset = 0;
  std::size_t index = 0;
  do {
    const std::size_t take = std::min(mss, segment.payload.size() - offset);
    Packet pkt;
    pkt.hdr = segment.hdr;  // TSO replicates the full overlay header
    pkt.hdr.ip_id = static_cast<std::uint16_t>(base_ip_id + index);
    pkt.hdr.ipid_base = base_ip_id;
    if (is_tcp) {
      // TSO writes per-packet sequence numbers and checksums for TCP...
      pkt.hdr.seq = segment.hdr.seq + static_cast<std::uint32_t>(offset);
      pkt.hdr.checksum_valid = true;
    } else {
      // ...but NOT for undefined transport protocols (§2.2, §7).
      pkt.hdr.checksum_valid = false;
    }
    // The TSO cut is an O(1) slice of the segment's slab — the copy this
    // datapath used to pay per MTU packet is gone; the slab stays pinned
    // until the last packet (ring entry, hold-off buffer, in-flight
    // closure) releases its slice.
    pkt.payload = segment.payload.subslice(offset, take);
    offset += take;
    ++index;
    ++counters_.packets;
    if (tx_) tx_->send(std::move(pkt));
  } while (offset < segment.payload.size());

  next_ip_id_ = static_cast<std::uint16_t>(base_ip_id + index);
}

}  // namespace smt::sim
