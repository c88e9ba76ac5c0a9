// Sharded multi-threaded simulation engine.
//
// One EventLoop per shard, driven in parallel by a pool of OS threads
// (one per shard, capped at the usable CPUs — a worker runs its shards
// sequentially inside each window, so the schedule depends on the shard
// count alone, never on the machine). Shards synchronize conservatively
// in barrier windows (a time-stepped variant of null-message
// synchronization): every window the barrier's completion step picks the
// globally earliest pending timestamp T and lets each shard run its
// events with `when < T + lookahead` in parallel. Cross-shard interactions — a packet
// hop over a link, a switch egress into another shard's host — become
// MAILBOX POSTS stamped with their arrival time.
//
// The conservative contract that makes this safe:
//
//   lookahead <= minimum cross-shard latency.
//
// A post made while a shard executes window [T, T+lookahead) carries
// `when = now + latency >= T + lookahead`, i.e. at or after the window's
// horizon — so no shard can ever receive work for a time it has already
// passed. Mailboxes are drained BETWEEN windows by the barrier's
// phase-completion step — exactly one thread runs it while every other
// worker is parked — in a fixed deterministic order:
// destination shards in index order, and each inbox sorted by
// (when, src shard, per-inbox post sequence). A single source shard's
// posts keep their program order; ties across sources break by shard id.
// Run-to-run, a fixed shard count and seed therefore replays the exact
// same schedule — byte-identical stats — even though windows execute on
// concurrent threads.
//
// `shards == 1` short-circuits everything: run() is exactly
// EventLoop::run() on the calling thread, and post() is exactly
// EventLoop::schedule_at — no threads, no barriers, no mailbox — so a
// one-shard engine is byte-identical AND instruction-identical to the
// single-threaded engine it wraps.
//
// Determinism holds per shard count. A 1-shard and an N-shard run of the
// same scenario agree on all virtual-time results unless the scenario
// makes two SAME-TIMESTAMP events race for the same destination state
// from a local and a remote source (the (when, seq) tie then resolves by
// scheduling order, which sharding changes). docs/determinism.md spells
// out the full contract.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/thread_annotations.hpp"
#include "common/time.hpp"
#include "netsim/event.hpp"

namespace smt::sim {

class ShardedEngine {
 public:
  /// `lookahead` must not exceed the minimum latency of any cross-shard
  /// hop (link propagation, switch egress latency). Values below 1 ns are
  /// clamped to 1 so a window always has positive width.
  explicit ShardedEngine(std::size_t shards, SimDuration lookahead = usec(1));
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  SimDuration lookahead() const noexcept { return lookahead_; }

  /// Checks a proposed minimum cross-shard hop latency against the
  /// conservative contract (lookahead <= min cross-shard latency).
  /// Topology builders call this for every wire class that can cross a
  /// shard — impairments that only ADD delay (fault jitter) need no
  /// extra margin, since the minimum is what the contract bounds.
  /// Always ok for a single-shard engine. `what` names the offending
  /// latency in the error message.
  Status validate_lookahead(SimDuration min_cross_latency,
                            const char* what) const;

  /// The shard's event loop. Intra-shard code (hosts, NICs, transports
  /// affined to the shard) schedules here exactly as it would on a
  /// standalone EventLoop.
  EventLoop& loop(std::size_t shard) { return shards_[shard]->loop; }

  /// Virtual time of a shard (its last executed event).
  SimTime now(std::size_t shard) const { return shards_[shard]->loop.now(); }

  /// Cross-shard mailbox post from shard `src` to shard `dst`: `fn` runs
  /// on `dst`'s thread at virtual time `when`. Thread-safe from any shard
  /// thread mid-run and from the driving thread before run(). Multi-shard
  /// posts must honour the lookahead contract: `when` at or after the
  /// horizon of the window the post is made in (asserted in debug builds).
  void post_from(std::size_t src, std::size_t dst, SimTime when,
                 EventCallback fn);

  /// A RemoteScheduler bound to a (src, dst) shard pair — what cross-shard
  /// link directions and switch egress ports get wired with. The src shard
  /// id is the mailbox ordering key, so it must be the shard whose thread
  /// will invoke the scheduler.
  RemoteScheduler remote_scheduler(std::size_t src, std::size_t dst) {
    return [this, src, dst](SimTime when, EventCallback fn) {
      post_from(src, dst, when, std::move(fn));
    };
  }

  /// Runs every shard to completion (all loops drained, all mailboxes
  /// empty). Returns the total number of events executed across shards —
  /// deterministic for a fixed shard count and seed.
  std::size_t run();

  struct Stats {
    std::uint64_t windows = 0;      // barrier windows executed
    std::uint64_t cross_posts = 0;  // mailbox messages delivered
    std::uint64_t events = 0;       // events executed, all shards
  };
  /// Deterministic for a fixed shard count and seed (windows and
  /// cross_posts are 0 in one-shard mode, where no window machinery runs).
  const Stats& stats() const noexcept { return stats_; }

  /// The shards' EventLoop::digest()s folded in shard order. Deterministic
  /// for a fixed shard count and seed; a one-shard engine's digest is its
  /// loop's.
  std::uint64_t digest() const noexcept {
    std::uint64_t folded = 0;
    for (const auto& shard : shards_) {
      folded = mix64(folded) ^ shard->loop.digest();
    }
    return folded;
  }

 private:
  struct Mail {
    SimTime when;
    std::uint32_t src;
    std::uint64_t seq;  // per-inbox arrival order (see drain_inboxes)
    EventCallback fn;
  };

  struct Shard {
    EventLoop loop;
    // Inbox of cross-shard posts not yet delivered into `loop`. Guarded
    // by `inbox_mutex` (producers post concurrently mid-window); drained
    // only between windows, when every worker is parked at the barrier.
    // clang's -Wthread-safety enforces the GUARDED_BY statically.
    smt::Mutex inbox_mutex;
    std::vector<Mail> inbox SMT_GUARDED_BY(inbox_mutex);
    std::uint64_t inbox_seq SMT_GUARDED_BY(inbox_mutex) = 0;
    // The inbox's twin: drain_inboxes (under parked_) swaps it in and
    // drains the posts through it, so it is empty between drains and
    // neither buffer is reallocated once grown.
    std::vector<Mail> spare;
    std::size_t executed = 0;  // events run by this shard's worker
  };

  /// Delivers every pending mailbox message into its destination loop in
  /// the deterministic (dst, when, src, seq) order. Called only from the
  /// barrier's phase-completion step, while all workers are parked
  /// (`parked_` — see the member comment).
  void drain_inboxes() SMT_REQUIRES(parked_);

  /// Earliest pending timestamp across all loops (inboxes already
  /// drained), or EventLoop::kNoEvent when the simulation is finished.
  SimTime earliest_pending() const SMT_REQUIRES(parked_);

  std::vector<std::unique_ptr<Shard>> shards_;
  SimDuration lookahead_;
  // Written by the phase-completion step between windows, read by workers
  // inside a window; barrier phase completion orders every access. NOT
  // GUARDED_BY(parked_): workers legitimately read both after release
  // without holding the capability (the barrier's release/acquire on its
  // epoch provides the ordering the analysis cannot see).
  SimTime horizon_ = 0;
  bool done_ = false;
  Stats stats_;
  /// Notional capability for "the barrier's phase-completion step": held
  /// only by the single thread running the completion callback while every
  /// other worker is parked. Functions that scan or mutate cross-shard
  /// state without per-shard locks (drain_inboxes, earliest_pending)
  /// REQUIRE it, so clang statically rejects any new call site that is
  /// not inside the completion step. Zero runtime state or cost.
  smt::NotionalCapability parked_;
};

}  // namespace smt::sim
