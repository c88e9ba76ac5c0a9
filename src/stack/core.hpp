// Simulated CPU core: a serialised resource with a run queue.
//
// This is what produces head-of-line blocking *on a core* (§2 of the
// paper): work charged to a core executes after everything already queued
// there, so a small RPC handled on the same softirq core as a large one
// waits — unless the transport spreads messages across cores (Homa SRPT).
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "netsim/event.hpp"

namespace smt::stack {

class CpuCore {
 public:
  /// A core is affined to the shard that owns `loop`: under the sharded
  /// engine (netsim/shard.hpp) all of its methods — run/charge and the
  /// free_at_/busy_ns_ state behind them — must only be touched from that
  /// shard's thread. Host construction guarantees this (a Host's cores
  /// share the Host's loop); cross-shard work reaches a core only via a
  /// mailbox post that runs on the owning shard.
  explicit CpuCore(sim::EventLoop& loop) : loop_(&loop) {}

  /// Enqueues `cost` nanoseconds of work; `fn` runs at completion.
  /// Takes the event loop's move-only small-buffer callback directly, so
  /// a lambda passed here lands in the loop's inline storage without an
  /// intermediate std::function heap cell.
  void run(SimDuration cost, sim::EventLoop::Callback fn) {
    const SimTime start = std::max(loop_->now(), free_at_);
    free_at_ = start + cost;
    busy_ns_ += cost;
    loop_->schedule_at(free_at_, std::move(fn));
  }

  /// Charges CPU time without a completion callback.
  void charge(SimDuration cost) {
    const SimTime start = std::max(loop_->now(), free_at_);
    free_at_ = start + cost;
    busy_ns_ += cost;
  }

  /// IRQ-class work (NIC interrupt servicing, doorbell MMIO): identical
  /// scheduling to run()/charge(), but tallied separately the way
  /// /proc/stat splits irq/softirq time from everything else — the §5.2
  /// CPU-usage experiment needs to show how much of a core interrupts eat.
  void run_irq(SimDuration cost, sim::EventLoop::Callback fn) {
    irq_ns_ += cost;
    note_irq_load(cost);
    run(cost, std::move(fn));
  }
  void charge_irq(SimDuration cost) {
    irq_ns_ += cost;
    note_irq_load(cost);
    charge(cost);
  }

  /// Recent IRQ pressure: a decaying accumulator of IRQ-class charges that
  /// halves every kIrqLoadHalfLife of virtual time. Between interrupts the
  /// soaked core's instantaneous backlog() reads zero, but the next
  /// interrupt will land there — IRQ-aware placement (Host's
  /// least_loaded_softirq_index) weighs this in so SRPT work skips the
  /// interrupt-soaked core. Pure integer arithmetic: deterministic.
  std::uint64_t irq_load() const noexcept {
    return decay_load(irq_load_, load_epoch(loop_->now()) - irq_load_epoch_);
  }

  /// Outstanding backlog relative to now (for least-loaded choices).
  SimDuration backlog() const noexcept {
    const SimTime now = loop_->now();
    return free_at_ > now ? free_at_ - now : 0;
  }

  /// Total busy time accumulated (for CPU-usage accounting, §5.2).
  std::uint64_t busy_ns() const noexcept { return busy_ns_; }

  /// The IRQ-class slice of busy_ns() (NIC interrupts + doorbells).
  std::uint64_t irq_busy_ns() const noexcept { return irq_ns_; }

  /// Half-life of the irq_load() accumulator.
  static constexpr SimDuration kIrqLoadHalfLife = usec(100);

 private:
  static std::uint64_t load_epoch(SimTime now) noexcept {
    return std::uint64_t(now) / std::uint64_t(kIrqLoadHalfLife);
  }
  static std::uint64_t decay_load(std::uint64_t load,
                                  std::uint64_t epochs) noexcept {
    return epochs >= 64 ? 0 : load >> epochs;
  }
  void note_irq_load(SimDuration cost) noexcept {
    const std::uint64_t epoch = load_epoch(loop_->now());
    irq_load_ = decay_load(irq_load_, epoch - irq_load_epoch_);
    irq_load_epoch_ = epoch;
    irq_load_ += std::uint64_t(cost);
  }

  sim::EventLoop* loop_;
  SimTime free_at_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t irq_ns_ = 0;
  std::uint64_t irq_load_ = 0;        // decaying recent-IRQ accumulator
  std::uint64_t irq_load_epoch_ = 0;  // last decay epoch applied
};

/// Adapts a CpuCore into the NIC's doorbell-charging callback (sim::CpuCharge)
/// for post_segment/post_resync: the posting core pays Nic::kPerDoorbellCost
/// when its post arms the doorbell. nullptr in, nullptr out (posts with no
/// known posting core — timer retries — stay uncharged, pure delay).
inline std::function<void(SimDuration)> doorbell_charge(CpuCore* core) {
  if (core == nullptr) return nullptr;
  return [core](SimDuration cost) { core->charge_irq(cost); };
}

}  // namespace smt::stack
