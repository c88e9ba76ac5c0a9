#include "netsim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace smt::sim {

namespace {

/// The CPUs the calling thread may run on, which its workers inherit: the
/// worker pool's cap. hardware_concurrency() counts the machine's cores and
/// ignores affinity, so under `taskset -c 2` a two-shard run got two
/// workers spin-waiting on one CPU for each other's barrier arrival.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return std::size_t(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

// Centralized epoch-counting barrier with an inline completion step,
// spin-then-yield waiting. std::barrier's futex sleep/wake costs tens of
// microseconds per window on virtualized hosts (sandboxed runners
// intercept the syscall), which dwarfs a typical window's event work;
// spinning costs ~1 us. The worker pool never exceeds the CPUs the run
// may use (see ShardedEngine::run), so a spinning waiter occupies an
// otherwise idle CPU, not a busy one.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t n) : n_(n) {}

  /// Blocks until all n participants arrive. The LAST arriver runs
  /// `complete` while every other participant is still parked, then
  /// releases them; `complete`'s writes happen-before the return of every
  /// other participant's arrive_and_wait (release/acquire on epoch_), and
  /// each participant's prior writes happen-before `complete` (acq_rel on
  /// arrived_).
  template <typename Completion>
  void arrive_and_wait(Completion&& complete) {
    const std::uint64_t my_epoch = epoch_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      complete();
      arrived_.store(0, std::memory_order_relaxed);
      epoch_.store(my_epoch + 1, std::memory_order_release);
      return;
    }
    std::size_t spins = 0;
    while (epoch_.load(std::memory_order_acquire) == my_epoch) {
      if (++spins < 4096) {
        cpu_relax();
      } else {
        // Safety valve for oversubscribed hosts (other processes on the
        // pool's CPUs): stop burning the core.
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

 private:
  const std::size_t n_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace

ShardedEngine::ShardedEngine(std::size_t shards, SimDuration lookahead)
    : lookahead_(lookahead < 1 ? 1 : lookahead) {
  assert(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedEngine::~ShardedEngine() = default;

Status ShardedEngine::validate_lookahead(SimDuration min_cross_latency,
                                         const char* what) const {
  if (shards_.size() <= 1 || min_cross_latency >= lookahead_) {
    return Status::success();
  }
  return make_error(
      Errc::invalid_argument,
      std::string(what) + " must be >= the engine's lookahead (" +
          std::to_string(std::int64_t(lookahead_)) + " ns): a cross-shard "
          "post below the lookahead could land before the destination "
          "shard's horizon");
}

void ShardedEngine::post_from(std::size_t src, std::size_t dst, SimTime when,
                              EventCallback fn) {
  if (shards_.size() == 1) {
    // One-shard mode is byte-identical to the plain engine: a "remote"
    // post IS a local schedule_at, with the same seq assignment.
    shards_[0]->loop.schedule_at(when, std::move(fn));
    return;
  }
  // Lookahead contract: a post made inside window [T, H) must not land
  // before H — the destination may already have executed past `when`.
  assert(when >= horizon_ &&
         "cross-shard post violates the lookahead contract");
  Shard& shard = *shards_[dst];
  const smt::MutexLock lock(shard.inbox_mutex);
  shard.inbox.push_back(
      Mail{when, std::uint32_t(src), shard.inbox_seq++, std::move(fn)});
}

void ShardedEngine::drain_inboxes() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // Double-buffered: the inbox and the empty spare trade places, and
    // the posts drain from the spare.
    std::vector<Mail>& batch = shard.spare;
    {
      const smt::MutexLock lock(shard.inbox_mutex);
      batch.swap(shard.inbox);
    }
    if (batch.empty()) continue;
    // (when, src, seq): a single source's same-time posts keep their
    // program order (its seqs are monotone even under interleaving);
    // cross-source ties break by shard id. seq is unique per inbox, so no
    // two keys tie and std::sort yields exactly the stable order, without
    // stable_sort's scratch buffer. Deterministic run-to-run.
    std::sort(batch.begin(), batch.end(), [](const Mail& a, const Mail& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.src != b.src) return a.src < b.src;
      return a.seq < b.seq;
    });
    for (Mail& mail : batch) {
      assert(mail.when >= shard.loop.now() &&
             "mailbox delivery behind the destination shard's clock");
      shard.loop.schedule_at(mail.when, std::move(mail.fn));
    }
    stats_.cross_posts += batch.size();
    batch.clear();  // keeps the capacity for the next window
  }
}

SimTime ShardedEngine::earliest_pending() const {
  SimTime earliest = EventLoop::kNoEvent;
  for (const auto& shard : shards_) {
    earliest = std::min(earliest, shard->loop.earliest());
  }
  return earliest;
}

std::size_t ShardedEngine::run() {
  if (shards_.size() == 1) {
    // Byte- and instruction-identical to the single-threaded engine: no
    // threads, no barriers, no windows.
    const std::size_t executed = shards_[0]->loop.run();
    stats_.events += executed;
    return executed;
  }

  const std::size_t n = shards_.size();
  std::size_t executed_before = 0;
  for (const auto& shard : shards_) executed_before += shard->executed;

  // Worker pool: never more threads than usable CPUs. A worker owns the
  // shards s ≡ w (mod T) and runs them sequentially inside each window —
  // the window schedule is a per-shard property (mailboxes are drained
  // only between windows), so neither the worker count nor the
  // shard→worker assignment can change any event order. Results depend on
  // the shard COUNT alone, not on the machine's core count.
  const std::size_t pool = std::min(n, usable_cpus());

  // ONE barrier round per window: the last worker to arrive runs the
  // completion step — drains mailboxes, picks the next window (or flags
  // completion) — while every other worker is still parked, then releases
  // them. No coordinator thread exists, and the barrier's release/acquire
  // ordering is all the synchronization horizon_ and done_ need. The
  // parked_ notional capability makes the "everyone else is parked"
  // invariant visible to clang's thread-safety analysis: only this
  // completion step may call drain_inboxes / earliest_pending.
  SpinBarrier gate(pool);
  auto between_windows = [this]() noexcept {
    parked_.acquire();
    drain_inboxes();
    const SimTime floor = earliest_pending();
    if (floor == EventLoop::kNoEvent) {
      done_ = true;
      parked_.release();
      return;
    }
    horizon_ = floor + lookahead_;
    ++stats_.windows;
    parked_.release();
  };

  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (std::size_t w = 0; w < pool; ++w) {
    workers.emplace_back([this, &gate, &between_windows, w, n, pool] {
      for (;;) {
        gate.arrive_and_wait(between_windows);
        if (done_) break;
        for (std::size_t s = w; s < n; s += pool) {
          Shard& shard = *shards_[s];
          shard.executed += shard.loop.run_ready_before(horizon_);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  done_ = false;  // a later run() can resume after more external posts

  std::size_t executed_after = 0;
  for (const auto& shard : shards_) executed_after += shard->executed;
  const std::size_t executed = executed_after - executed_before;
  stats_.events += executed;
  return executed;
}

}  // namespace smt::sim
