// Virtual-time cost model for host-stack work.
//
// Charges are expressed in nanoseconds of simulated CPU time and were
// calibrated so the bench outputs land in the paper's ballpark (tens of
// microseconds of unloaded RTT, ~10^6 RPC/s of per-core message rate).
// The *relative* structure is what matters for reproducing the paper's
// shapes:
//   * TCP spends more per packet than Homa (stream state, ACK clocking);
//   * kTLS pays a framing/record-locate cost on the stream;
//   * software AEAD costs ~ns/B; hardware offload replaces it with a
//     per-segment descriptor/metadata cost (§3, §5.1);
//   * copies cost ~ns/B and dominate large messages (§5.1);
//   * receive-side crypto is software unless an RX flow context is held
//     (the paper's hardware had no rx offload, §7; this stack models the
//     symmetric ConnectX-6 Dx-style rx half so server-side context
//     pressure is real — see stack/flow_context_manager.hpp).
#pragma once

#include "common/time.hpp"

namespace smt::stack {

/// The calibration table. Every host runs the one instance, kCosts below:
/// the paper compares the stacks at fixed costs, so none is a knob.
struct CostModel {
  // --- syscall / scheduling -------------------------------------------
  SimDuration syscall = nsec(900);         // sendmsg/recvmsg entry+exit
  SimDuration wakeup = nsec(2000);         // softirq -> application wakeup
  SimDuration epoll_dispatch = nsec(500);  // event-loop dispatch per event

  // --- per-packet protocol work ----------------------------------------
  SimDuration tcp_tx_packet = nsec(650);
  SimDuration tcp_rx_packet = nsec(950);
  SimDuration homa_tx_packet = nsec(480);
  SimDuration homa_rx_packet = nsec(560);
  // GRO/NAPI-style coalescing: continuation packets of one TSO segment
  // cost less than the segment's first packet on the receive path.
  SimDuration rx_packet_cont = nsec(350);
  // Homa/Linux serialises SRPT/pacer bookkeeping on ONE softirq thread —
  // the paper's "~700 K RPC/s constrained by the softirq thread"
  // (§5.2/§5.3): a per-message cost for every inbound message plus a
  // per-packet cost for multi-packet (scheduled-path) messages. This is
  // the transport's throughput ceiling. HomaEndpoint gates the packet's
  // own protocol work behind this step, so it is on the unloaded path as
  // well: about 1.1 us of RTT at 64 B (ROADMAP direction 1).
  SimDuration homa_pacer_per_message = nsec(550);
  SimDuration homa_pacer_per_packet = nsec(280);
  SimDuration ctrl_packet = nsec(250);     // grants/acks/resends
  SimDuration tcp_send_lock = nsec(1000);   // socket lock + stream state per
                                           // send call (§3.2: TCP serialises
                                           // all transmissions on the socket)

  // --- NIC datapath ---------------------------------------------------
  // The NIC's fixed costs (doorbell, interrupt, per-frame completion, RSS
  // reprogram) are sim::Nic::k* constants, not cost-model fields: one home
  // for a raw Nic and a Host-owned one alike. The interrupt and per-frame
  // costs land on the ring's IRQ-affinity softirq core, so the paper's
  // §5.2 "constrained by the softirq thread" includes that work.

  // --- NIC TLS flow contexts --------------------------------------------
  // Driver work to (re)program one NIC TLS flow context: key expansion,
  // WQE/ICOSQ posts, MMIO. Charged by the endpoint whenever the LRU
  // flow-context manager returns a FRESH lease — establishment and
  // eviction-forced re-establishment are no longer free, so context
  // thrash has a real CPU price (§4.4.2).
  SimDuration context_establish = nsec(2000);

  // --- per-TSO-segment work ---------------------------------------------
  SimDuration tso_build = nsec(600);       // descriptor construction, DMA map
  SimDuration offload_metadata = nsec(300);  // TLS offload metadata per record
                                             // (§5.1 "per-segment cost to
                                             //  populate offloading metadata")
  SimDuration resync_post = nsec(120);     // posting a resync descriptor

  // --- data-touching costs (ns per byte) --------------------------------
  // With AES-NI, software AES-GCM runs near memcpy speed — the paper's
  // observation that large-message latency is copy-bound, not crypto-bound
  // (§5.1), depends on this ratio.
  double copy_per_byte = 0.50;             // kernel<->user copy (~4 GB/s)
  double aead_sw_per_byte = 0.18;          // software AES-GCM (~3.3 GB/s)
  SimDuration aead_sw_per_record = nsec(300);  // per-record setup cost

  // --- kTLS stream processing -------------------------------------------
  SimDuration ktls_frame_locate = nsec(250);   // find record boundary in stream
  // Applications over stream transports reassemble their own messages from
  // the bytestream (partial reads, length scanning — §2 KCM, §5.3 Redis
  // "locating the Redis headers in the bytestream"). Message transports
  // deliver whole messages and skip this entirely.
  SimDuration stream_app_framing = nsec(700);

  SimDuration copy_cost(std::size_t bytes) const noexcept {
    return SimDuration(double(bytes) * copy_per_byte);
  }
  /// Software AEAD over `bytes` sealed or opened as `records` records.
  SimDuration aead_sw_cost(std::size_t bytes,
                           std::size_t records = 1) const noexcept {
    return aead_sw_per_record * SimDuration(records) +
           SimDuration(double(bytes) * aead_sw_per_byte);
  }
};

inline constexpr CostModel kCosts{};

}  // namespace smt::stack
