// Simulated NIC with TSO and ConnectX-style "autonomous" TLS offload.
//
// Models the architecture of Pismenny et al.'s autonomous offloads as the
// paper describes it (§2.3, §3.2, Figure 2):
//
//  * TSO — a large segment (<= 64 KB) is cut into MTU-sized packets; the
//    TCP-overlay header (incl. the options space carrying message ID,
//    message length, TSO offset) is replicated verbatim into every packet;
//    the IPID increments per packet; TCP sequence numbers are written for
//    the TCP protocol number ONLY (undefined transports get none — the
//    reason Homa/SMT need offset fields, §2.2); checksums likewise.
//    NicConfig::max_segment_bytes() is the one segment limit every
//    transport on the host reads: 64 KB with TSO, one MTU without.
//
//  * TLS offload — per-flow *contexts* live in (limited) NIC memory and
//    hold the AEAD key, IV, and a SELF-INCREMENTING record sequence number.
//    A segment flagged for inline TLS is encrypted with the context's
//    *internal* counter, regardless of what the software intended: if the
//    software's record does not match, the wire bytes are "corrupted"
//    (authenticate under the wrong nonce — Figure 2 "Out-seq."). A resync
//    descriptor rewrites the internal counter ("Out-resync").
//
//  * Queues — descriptors are consumed strictly in order *within* a queue,
//    but the NIC round-robins *across* queues with no atomicity between a
//    resync and its segment posted to different queues — exactly the §3.2
//    hazard that motivates SMT's per-queue flow contexts.
//
//  * Doorbell batching — posting arms a doorbell; each drain event pays
//    kPerDoorbellCost once and then consumes up to tx_burst descriptors
//    (round-robin across queues, FIFO within a queue) at
//    kPerDescriptorCost each, amortising the fixed overhead the same way
//    xmit_more/doorbell coalescing does on real hardware.
//
//  * RSS indirection table — RX ring selection is NOT a direct
//    hash→ring mapping: the five-tuple hash indexes an ethtool-style
//    indirection table (`ethtool -X`) whose entries name rings, so the
//    operator (or an irqbalance-style rebalancer) can resteer traffic by
//    reprogramming entries at runtime. Reprograms are ORDER-PRESERVING:
//    an entry whose old ring still holds pending frames keeps routing to
//    the old ring until that ring drains, then flips — one flow's frames
//    land on exactly one ring at any instant and are never reordered
//    across a reprogram (the rps_dev_flow_table OOO-avoidance discipline).
//
//  * RX rings + interrupt coalescing — inbound frames land in per-queue RX
//    rings (the indirection table picks the queue, so one flow's
//    frames stay FIFO) and are delivered by a simulated interrupt. All
//    coalescing state is PER RING, matching the ethtool rx-frames/rx-usecs
//    contract: ring i's interrupt fires when ITS pending count reaches
//    rx_coalesce_frames, or rx_coalesce_usecs after ITS first pending
//    frame, whichever is first; each interrupt pays kPerInterruptCost
//    once and then delivers up to rx_burst frames from that ring. (A
//    host-global threshold would make the interrupt rate collapse into one
//    shared budget — with 4 active rings, ~4x the configured rate.)
//    Delivery ALWAYS goes through the event loop — never inline from
//    receive() — so RX ordering is deterministic regardless of when frames
//    arrive relative to a drain.
//
//  * IRQ→CPU charging — when the owning layer installs an IrqExecutor
//    (stack::Host maps ring i to softirq core i % softirq_cores via its
//    IRQ-affinity table), kPerInterruptCost and the per-frame completion
//    work are charged to that CPU: interrupts contend with protocol
//    processing and delivery is delayed while the core is backlogged.
//    Without an executor (raw Nic objects) the costs degrade to pure
//    event-loop delay, as before. TX symmetrically charges
//    kPerDoorbellCost to the core that posted the doorbell-arming
//    descriptor, via the CpuCharge callback on post_segment/post_resync.
//    These fixed datapath costs are Nic constants, the same for a raw Nic
//    and a Host-owned one.
//
//  * Adaptive moderation (DIM-style) — with adaptive_rx_coalesce set, each
//    ring adjusts its own effective rx_coalesce_frames/rx_coalesce_usecs
//    from the observed per-interrupt frame rate: sustained full bursts
//    widen the hold-off (amortise more), sparse interrupts narrow it
//    toward fire-immediately (latency-sensitive traffic), the way the
//    kernel's net_dim library steps through its moderation profiles.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "netsim/event.hpp"
#include "netsim/link.hpp"
#include "netsim/packet.hpp"
#include "netsim/recycling.hpp"
#include "crypto/gcm.hpp"
#include "tls/cipher.hpp"
#include "tls/keyschedule.hpp"

namespace smt::sim {

struct NicConfig {
  std::size_t num_queues = 4;
  std::size_t mtu_payload = 1500;    // MTU-sized packet payload budget
  bool tso_enabled = true;
  std::size_t max_flow_contexts = 1024;  // in-NIC memory is finite (§4.4.2)
  // Batched TX datapath: one doorbell drains up to `tx_burst` descriptors
  // in a single scheduling event, so Nic::kPerDoorbellCost is paid once
  // per batch instead of once per descriptor. tx_burst = 1 degenerates to
  // the unbatched path.
  std::size_t tx_burst = 16;
  // Batched RX datapath: one interrupt delivers up to `rx_burst` frames,
  // amortising Nic::kPerInterruptCost the same way the doorbell amortises
  // TX. rx_burst = 1 degenerates to an interrupt per frame. The interrupt
  // is held off until `rx_coalesce_frames` frames are pending or
  // `rx_coalesce_usecs` microseconds after the first pending frame arrived
  // (0 = fire immediately), mirroring ethtool's rx-frames / rx-usecs.
  std::size_t rx_burst = 16;
  std::size_t rx_coalesce_frames = 16;
  double rx_coalesce_usecs = 0.0;
  // Bounded RX rings: a ring holding rx_ring_size frames tail-drops new
  // arrivals (counted in rx_dropped), like real descriptor rings under
  // overflow. 0 = unbounded (the historical behavior).
  std::size_t rx_ring_size = 0;
  // DIM-style adaptive interrupt moderation: each ring walks a moderation
  // ladder from the observed per-interrupt frame rate, overriding the
  // static rx_coalesce_frames/rx_coalesce_usecs pair (which only seeds the
  // starting level).
  bool adaptive_rx_coalesce = false;
  // RSS indirection table entries (ethtool -X). The five-tuple hash
  // indexes this table; each entry names an RX ring. The default table is
  // a uniform round-robin over the active rings (entry i -> ring i %
  // num_queues), reprogrammable via Nic::set_rss_indirection.
  std::size_t rss_indirection_size = 128;

  /// The largest segment the NIC accepts: a 64 KB TSO segment, or one
  /// MTU-sized packet without TSO (§7 Segmentation). Transports cut their
  /// sends to this, and SMT and kTLS size records to fit it (§4.3).
  std::size_t max_segment_bytes() const noexcept {
    return tso_enabled ? std::size_t{65536} : mtu_payload;
  }
};

/// Runs `done` after charging `cost` of interrupt work to whatever CPU
/// services ring `ring`'s IRQ vector. Installed by the stack layer (the
/// Host's IRQ-affinity table routes it to a softirq CpuCore::run), so the
/// netsim layer stays ignorant of CPU-core types.
using IrqExecutor =
    std::function<void(std::size_t ring, SimDuration cost,
                       std::function<void()> done)>;

/// Charges `cost` of interrupt work to ring `ring`'s IRQ CPU without a
/// completion callback (per-frame completion processing inside a drain).
using IrqCharge = std::function<void(std::size_t ring, SimDuration cost)>;

/// Charges CPU time to the core that posted a descriptor (doorbell MMIO).
using CpuCharge = std::function<void(SimDuration cost)>;

/// A TLS record inside a TSO segment that the NIC must encrypt in line.
/// The segment payload at [record_offset, record_offset + 5) holds the
/// plaintext record header (AAD); the plaintext body follows; tag space
/// (16 bytes) is already reserved at the end of the record.
struct TlsRecordDesc {
  std::uint32_t context_id = 0;
  std::size_t record_offset = 0;   // where the 5-byte record header starts
  std::size_t plaintext_len = 0;   // body length (excluding header and tag)
  std::uint64_t record_seq = 0;    // what the *software* intended (the NIC
                                   // ignores this; kept for diagnostics)
};

/// One TX descriptor: either a resync, or a (possibly TSO) segment.
struct SegmentDescriptor {
  Packet segment;                      // header template + full payload
  std::vector<TlsRecordDesc> records;  // empty -> no inline crypto
};

struct NicCounters {
  std::uint64_t segments = 0;
  std::uint64_t packets = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t records_encrypted = 0;
  std::uint64_t out_of_sequence_records = 0;  // encrypted with wrong counter
  std::uint64_t context_allocs = 0;
  std::uint64_t context_alloc_failures = 0;
  std::uint64_t context_misses = 0;   // record referenced a missing context
  std::uint64_t doorbells = 0;        // TX batch drain events
  std::uint64_t max_burst_drained = 0;  // largest batch seen
  std::uint64_t rx_frames = 0;          // frames accepted into RX rings
  std::uint64_t rx_delivered = 0;       // frames handed to the RX handler
  std::uint64_t rx_interrupts = 0;      // RX drain events (each pays
                                        // kPerInterruptCost once)
  std::uint64_t max_rx_batch = 0;       // largest RX batch delivered
  std::uint64_t rx_dropped = 0;         // tail-dropped on a full RX ring
  std::uint64_t irq_cpu_ns = 0;         // interrupt work charged to cores
                                        // via the IrqExecutor/IrqCharge
  std::uint64_t doorbell_cpu_ns = 0;    // doorbell work charged to posting
                                        // cores via CpuCharge
  std::uint64_t rss_reprograms = 0;     // accepted set_rss_indirection calls
  std::uint64_t rss_deferred_entries = 0;  // entry flips held for the old
                                           // ring to drain (order guard)
  std::uint64_t rx_corrupt_frames = 0;  // frames flagged by the link fault
                                        // model (delivered; transports drop)
  std::uint64_t resets = 0;             // Nic::reset() invocations

  friend bool operator==(const NicCounters&, const NicCounters&) = default;
};

/// Per-ring RX observability: the figures the per-ring ethtool contract is
/// stated in (interrupt rate must scale with active rings).
struct RxRingStats {
  std::uint64_t frames = 0;       // accepted into this ring
  std::uint64_t delivered = 0;    // handed to the RX handler
  std::uint64_t interrupts = 0;   // interrupts this ring fired
  std::uint64_t dropped = 0;      // tail-dropped (bounded ring overflow)
  std::size_t coalesce_frames = 0;  // effective threshold (DIM may adjust)
  double coalesce_usecs = 0.0;      // effective hold-off (DIM may adjust)

  friend bool operator==(const RxRingStats&, const RxRingStats&) = default;
};

class Nic {
 public:
  /// Fixed datapath costs, the same for every NIC (ARCHITECTURE.md
  /// "Configuration surface").
  /// Descriptor fetch and DMA setup, per TX descriptor.
  static constexpr SimDuration kPerDescriptorCost = nsec(80);
  /// Ring doorbell, scheduling and DMA engine start-up, per TX batch.
  static constexpr SimDuration kPerDoorbellCost = nsec(350);
  /// IRQ entry/exit and NAPI scheduling, per RX interrupt.
  static constexpr SimDuration kPerInterruptCost = nsec(1200);
  /// Per-frame RX completion work (completion-descriptor fetch, buffer
  /// unmap) charged to the IRQ core alongside kPerInterruptCost when an
  /// IrqExecutor is installed; the RX mirror of kPerDescriptorCost.
  static constexpr SimDuration kPerRxFrameCost = nsec(80);
  /// Driver/firmware work to reprogram the indirection table (the ethtool
  /// -X ioctl path: table write, hash-key MMIO). Charged to the CpuCharge
  /// passed to set_rss_indirection, when one is provided.
  static constexpr SimDuration kRssReprogramCost = nsec(1500);

  Nic(EventLoop& loop, NicConfig config);

  /// Attaches the TX side to a link direction and the RX side handler.
  void attach_tx(LinkDirection* tx) { tx_ = tx; }
  void set_rx_handler(PacketHandler handler) { rx_handler_ = std::move(handler); }

  /// Installs the IRQ→CPU charging hooks (stack::Host does this from its
  /// IRQ-affinity table). `run` gates each ring's drain behind the charged
  /// core; `charge` bills per-frame completion work. Unset hooks degrade
  /// to pure event-loop delay (raw Nic objects keep the old timing).
  void set_irq_executor(IrqExecutor run, IrqCharge charge) {
    irq_run_ = std::move(run);
    irq_charge_ = std::move(charge);
  }

  /// Ingress from the wire: the frame lands in an RX ring (RSS picks the
  /// queue) and is delivered by a coalesced interrupt through the event
  /// loop — NEVER inline, so ordering is deterministic under coalescing.
  void receive(Packet packet);

  /// Full device reset — models a firmware/driver-level NIC reset mid-run:
  /// every TLS offload context is lost, pending TX descriptors and queued
  /// RX frames are discarded (RX counted as drops), the RSS indirection
  /// table reverts to the driver default, and coalescing/DIM state reseeds
  /// exactly as at construction. Cumulative counters survive (they model
  /// host-side observability, and `resets` records the event itself);
  /// context IDs keep monotonically increasing so a stale pre-reset ID can
  /// never alias a post-reset context. Callers (stack::Host::reset_nic)
  /// must also invalidate host-side caches of device state — leases in the
  /// FlowContextManager become dangling names after this.
  void reset();

  /// Frames sitting in RX rings, not yet delivered.
  std::size_t rx_pending() const noexcept {
    std::size_t sum = 0;
    for (const RxRing& ring : rx_rings_) sum += ring.frames.size();
    return sum;
  }

  /// Per-ring counters and effective (possibly DIM-adjusted) moderation.
  RxRingStats rx_ring_stats(std::size_t ring) const {
    const RxRing& r = rx_rings_.at(ring);
    return RxRingStats{r.frames_total, r.delivered,   r.interrupts,
                       r.dropped,      r.coalesce_frames, r.coalesce_usecs};
  }
  std::size_t rx_ring_count() const noexcept { return rx_rings_.size(); }

  /// The RX ring a flow's frames CURRENTLY steer to: the five-tuple hash
  /// indexes the live RSS indirection table. The single source of the
  /// ring-selection formula — drivers keying per-ring state (RX flow
  /// contexts) must use this, not a private copy. Note the result can
  /// change across a set_rss_indirection reprogram (never while the old
  /// ring still holds the flow's frames — see rss_pending_entries).
  std::size_t rx_queue_for(const FiveTuple& flow) const noexcept {
    return rss_table_[flow.hash() % rss_table_.size()];
  }
  /// Same lookup through the header's memoized hash: the steering decision
  /// for a packet in flight never rehashes the five tuple.
  std::size_t rx_queue_for(const PacketHeader& hdr) const noexcept {
    return rss_table_[hdr.flow_hash() % rss_table_.size()];
  }

  /// The TX queue a flow's posts default to (XPS-style static spread). TX
  /// has no indirection table: this is the plain hash→queue mapping, and
  /// it deliberately does NOT follow RSS reprograms — transmit queue
  /// choice is a host decision (XPS), receive steering a NIC one.
  std::size_t tx_queue_for(const FiveTuple& flow) const noexcept {
    return flow.hash() % config_.num_queues;
  }
  /// Hash-memoized variant: callers that hold a flow's cached hash (a TCP
  /// connection, a header in flight) pick the queue without rehashing.
  std::size_t tx_queue_for_hash(std::size_t flow_hash) const noexcept {
    return flow_hash % config_.num_queues;
  }

  /// --- RSS indirection table (ethtool -X) ------------------------------

  /// Reprograms the whole indirection table (the ethtool -X contract: the
  /// full table is written in one ioctl). Rejects a size mismatch or any
  /// entry naming a ring >= num_queues. `poster`, when set, is charged
  /// kRssReprogramCost (the driver's table-write/MMIO work).
  ///
  /// Order guarantee: an entry whose old ring still holds pending frames
  /// keeps steering to the old ring until that ring fully drains (its
  /// interrupt is flushed immediately to expedite this), THEN flips. One
  /// flow's frames therefore land on exactly one ring at any instant and
  /// are never reordered across a reprogram.
  Status set_rss_indirection(const std::vector<std::size_t>& table,
                             CpuCharge poster = nullptr);

  /// The PROGRAMMED table (what ethtool -x would show): pending entries
  /// report their target ring even while the live lookup still routes to
  /// the draining old ring.
  std::vector<std::size_t> rss_indirection() const {
    std::vector<std::size_t> table = rss_table_;
    for (const auto& [entry, target] : rss_pending_) table[entry] = target;
    return table;
  }

  /// Entries whose flip is still held back by a draining old ring.
  std::size_t rss_pending_entries() const noexcept {
    return rss_pending_.size();
  }

  /// Fires `ring`'s interrupt NOW if frames are pending and no drain is in
  /// flight (voiding any hold-off timer). The irqbalance-style rebalancer
  /// uses this before repinning a vector, so held-off frames are delivered
  /// under the OLD affinity — interrupts are neither lost nor duplicated
  /// across a migration.
  void flush_rx_ring(std::size_t ring);

  /// --- TLS offload flow contexts -------------------------------------

  /// Allocates a context; fails when NIC memory is exhausted (§4.4.2).
  Result<std::uint32_t> create_flow_context(tls::CipherSuite suite,
                                            const tls::TrafficKeys& keys,
                                            std::uint64_t initial_seq);

  /// Releases a context. If descriptors referencing it are still queued,
  /// the release is deferred until the hardware drains them — the driver
  /// may free a context at any time without corrupting in-flight work.
  void release_flow_context(std::uint32_t id);
  std::size_t active_contexts() const noexcept { return contexts_.size(); }

  /// True while TX descriptors referencing the context are still queued.
  /// The LRU flow-context manager skips busy contexts when evicting.
  bool context_in_flight(std::uint32_t id) const;

  /// Reads a context's internal record counter (driver shadow state).
  std::optional<std::uint64_t> context_seq(std::uint32_t id) const;

  /// --- TX descriptor rings --------------------------------------------

  /// Posts a resync descriptor: sets the context's internal counter when
  /// the NIC *processes* it (not when posted!). `poster`, when set, is the
  /// CPU charge of the core doing the post — it pays kPerDoorbellCost if
  /// this post arms the doorbell (coalesced posts ride the armed batch).
  void post_resync(std::size_t queue, std::uint32_t context_id,
                   std::uint64_t new_seq, CpuCharge poster = nullptr);

  /// Posts a segment (TSO-split and/or inline-encrypted as flagged).
  void post_segment(std::size_t queue, SegmentDescriptor descriptor,
                    CpuCharge poster = nullptr);

  const NicConfig& config() const noexcept { return config_; }
  const NicCounters& counters() const noexcept { return counters_; }

 private:
  struct FlowContext {
    tls::CipherSuite suite;
    tls::TrafficKeys keys;
    // AEAD state (AES key schedule + GHASH tables) is expanded ONCE when
    // the driver programs the context — exactly what context_establish
    // models — and reused for every record. Rebuilding it per record was
    // the simulator's single hottest wall-clock cost.
    crypto::AesGcm aead;
    std::uint64_t internal_seq = 0;  // the self-incrementing counter
    std::uint32_t inflight = 0;      // queued descriptors referencing it
    bool pending_release = false;    // freed by the driver; erase on drain
  };

  struct Descriptor {
    bool is_resync = false;
    std::uint32_t resync_context = 0;
    std::uint64_t resync_seq = 0;
    SegmentDescriptor segment;
  };

  /// One RX ring's complete interrupt state: pending frames (the drain
  /// cursor is the deque head), hold-off timer, effective coalesce
  /// thresholds, DIM controller state, and counters. Nothing RX-interrupt
  /// related is host-global — that was the bug the per-ring refactor
  /// fixed: a global pending count fired against rx_coalesce_frames meant
  /// N active rings shared one threshold and interrupted ~N times as often
  /// as the per-ring ethtool contract specifies.
  struct RxRing {
    RecyclingDeque<Packet> frames;
    bool draining = false;       // interrupt fired, drain event in flight
    bool timer_armed = false;    // rx_coalesce_usecs hold-off pending
    TimerId hold_off;            // that timer, cancelled when superseded
    // Effective moderation; seeded from NicConfig, adjusted per ring by
    // the DIM controller when adaptive_rx_coalesce is on.
    std::size_t coalesce_frames = 1;
    double coalesce_usecs = 0.0;
    // DIM state: EWMA of frames-per-interrupt, ladder position, and the
    // signal streak that must persist before the level moves (net_dim's
    // tired-of-flapping hysteresis).
    double dim_ewma = 0.0;
    std::size_t dim_level = 0;
    int dim_streak = 0;
    // Counters (aggregated copies live in NicCounters).
    std::uint64_t frames_total = 0;
    std::uint64_t delivered = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t dropped = 0;
  };

  void kick(const CpuCharge& poster);
  void process_batch(std::size_t burst);
  std::size_t pending_descriptors() const;
  void pin_context(std::uint32_t id);
  void unpin_context(std::uint32_t id);
  void emit_segment(SegmentDescriptor descriptor);
  void encrypt_records(SegmentDescriptor& descriptor);
  void maybe_fire_rx_interrupt(std::size_t ring);
  void fire_rx_interrupt(std::size_t ring);
  void drain_rx(std::size_t ring);
  void resolve_rss_pending(std::size_t drained_ring);
  void dim_update(RxRing& ring, std::size_t drained, std::size_t budget);
  void deliver(Packet packet);

  EventLoop& loop_;
  NicConfig config_;
  LinkDirection* tx_ = nullptr;
  PacketHandler rx_handler_;
  IrqExecutor irq_run_;
  IrqCharge irq_charge_;

  std::vector<RecyclingDeque<Descriptor>> queues_;
  std::size_t pending_ = 0;    // descriptors across all queues
  std::size_t rr_cursor_ = 0;  // round-robin scan position
  bool processing_ = false;

  std::vector<RxRing> rx_rings_;

  // RSS indirection: the LIVE lookup table plus entries whose flip to a
  // new ring is deferred until the old ring drains (the order guard).
  std::vector<std::size_t> rss_table_;
  std::map<std::size_t, std::size_t> rss_pending_;  // entry -> target ring

  std::map<std::uint32_t, FlowContext> contexts_;
  std::uint32_t next_context_id_ = 1;
  std::uint16_t next_ip_id_ = 1;

  NicCounters counters_;
};

}  // namespace smt::sim
