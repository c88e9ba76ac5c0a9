// Shared LRU flow-context manager: the host's only allocator of NIC TLS
// flow contexts, and the one driver both SMT-hw and kTLS-hw use.
//
// NIC TLS flow contexts live in finite NIC memory (§4.4.2). The seed code
// gave every (session, queue) pair a context for life and errored out when
// the table filled, capping the stack at max_flow_contexts sessions. The
// manager instead treats NIC memory as a cache shared by every endpoint on
// the host:
//
//   * leases are keyed by (proto, session_tag, queue, dir) and kept in LRU
//     order — TX and RX contexts share one table, as on real hardware;
//   * when the NIC table is full, the least-recently-used *idle* context
//     (no in-flight descriptors referencing it) is evicted to make room;
//   * an evicted key is transparently re-established on next use — the
//     fresh NIC context is seeded with the first record sequence number of
//     the descriptor about to be posted, so re-establishment needs no wire
//     resync and produces no out-of-sequence records;
//   * bind_tx() is the tls_device driver step (§2.3 / Figure 2): just
//     before a TX post it late-binds the records to their lease and posts a
//     resync wherever they diverge from the shadow record counter.
//
// This is what lets SMT scale to sessions >> max_flow_contexts: cold
// sessions cost nothing but a table entry, hot sessions keep their
// contexts, and the thrash cost shows up as resyncs/evictions in stats
// instead of as hard send failures.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <set>

#include "common/result.hpp"
#include "netsim/nic.hpp"
#include "tls/cipher.hpp"
#include "tls/keyschedule.hpp"

namespace smt::stack {

class CpuCore;

/// Traffic direction of a NIC flow context. TX contexts encrypt outbound
/// records in line; RX contexts decrypt inbound records (the receive half
/// of the offload — both directions compete for the same finite NIC
/// context memory, so servers feel context pressure too).
enum class FlowDir : std::uint8_t { tx = 0, rx = 1 };

/// Identity of one NIC flow context: the protocol that owns the session
/// and that protocol's session tag (the SMT endpoint packs local port +
/// peer address; kTLS uses the TCP connection id), plus the NIC queue and
/// the traffic direction. Tags of different protocols never collide.
struct FlowKey {
  sim::Proto proto{};
  std::uint64_t session_tag = 0;
  std::uint32_t queue = 0;
  FlowDir dir = FlowDir::tx;
  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

class FlowContextManager {
 public:
  explicit FlowContextManager(sim::Nic& nic) : nic_(nic) {}

  FlowContextManager(const FlowContextManager&) = delete;
  FlowContextManager& operator=(const FlowContextManager&) = delete;

  /// Driver-side view of one NIC context. `shadow_seq` tracks what the
  /// hardware counter will be after the descriptors posted so far; the
  /// driver posts a resync whenever the next record diverges from it.
  struct Lease {
    std::uint32_t nic_context_id = 0;
    std::uint64_t shadow_seq = 0;
    bool fresh = false;  // (re)established by the acquire that returned it
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reestablished = 0;     // misses for previously-held keys
    std::uint64_t acquire_failures = 0;  // no capacity and no idle victim

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  /// Returns the lease for `key`, touching it in LRU order. On a miss a
  /// NIC context is allocated, evicting least-recently-used idle contexts
  /// as needed; the new context's counter is seeded with `first_seq`.
  /// Fails only when the table is full of busy (in-flight) contexts.
  /// The returned pointer is valid until the lease is evicted/invalidated.
  Result<Lease*> acquire(const FlowKey& key, tls::CipherSuite suite,
                         const tls::TrafficKeys& keys, std::uint64_t first_seq);

  /// Late-binds `desc`, about to be posted on `key.queue`: re-acquires
  /// `key`'s lease seeded with the first record's seq (a fresh lease
  /// charges CostModel::context_establish to `core`), rewrites each record's
  /// context id, and posts a resync (doorbell charged to `core`) wherever
  /// the shadow counter diverges. On a failed acquire the records keep
  /// stale ids, so the NIC counts a context miss. No records: no-op.
  void bind_tx(const FlowKey& key, tls::CipherSuite suite,
               const tls::TrafficKeys& keys, sim::SegmentDescriptor& desc,
               CpuCore* core);

  /// Releases every context of `proto`'s `session_tag` (rekey, teardown).
  /// Safe while descriptors are in flight — the NIC defers the free.
  void invalidate_session(sim::Proto proto, std::uint64_t session_tag);

  /// Drops every lease without touching the NIC — the device already
  /// forgot them (Nic::reset()). Outstanding Lease pointers dangle; the
  /// next acquire of each key is a miss that re-establishes through the
  /// normal path, seeded with that message's first record sequence, so no
  /// wire resync is needed. Counted per lease in stats().misses /
  /// reestablished on the later acquires, not here.
  void invalidate_all();

  bool holds(const FlowKey& key) const { return entries_.count(key) != 0; }
  std::size_t size() const noexcept { return entries_.size(); }
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    Lease lease;
    std::list<FlowKey>::iterator lru_pos;
  };

  bool evict_one_idle();

  sim::Nic& nic_;
  std::list<FlowKey> lru_;  // front = least recently used
  std::map<FlowKey, Entry> entries_;
  std::set<FlowKey> ever_held_;  // for the reestablished counter
  Stats stats_;
};

}  // namespace smt::stack
