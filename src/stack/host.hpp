// Simulated host: NIC + application cores + softirq cores + protocol demux.
//
// Mirrors the paper's testbed configuration (§5 HW&OS): separate cores for
// softirq contexts and application threads, one NIC, protocols demuxed by
// protocol number + destination port. Transport endpoints register
// themselves for (proto, port) pairs and decide which softirq core their
// work lands on:
//   * TCP: RSS — hash(5-tuple) pins the flow to ONE softirq core (HoLB);
//   * Homa/SMT: per-message choice of the least-loaded core (SRPT-style
//     dynamic distribution, §2.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "netsim/event.hpp"
#include "netsim/nic.hpp"
#include "netsim/packet.hpp"
#include "netsim/shard.hpp"
#include "stack/core.hpp"
#include "stack/cost_model.hpp"
#include "stack/flow_context_manager.hpp"

namespace smt::stack {

struct HostConfig {
  std::uint32_t ip = 0;
  std::size_t app_cores = 12;      // paper §5.2: 12 application threads
  std::size_t softirq_cores = 4;   // paper §5.2: 4 stack threads
  sim::NicConfig nic;
  /// irqbalance-style periodic IRQ rebalancing from construction on, with
  /// this sampling period (0 = off; see Host::enable_irq_rebalance).
  SimDuration irq_rebalance_period = 0;
};

struct IrqRebalanceStats {
  std::uint64_t ticks = 0;        // sampling periods evaluated
  std::uint64_t migrations = 0;   // ring affinity repins
  std::uint64_t rss_spreads = 0;  // indirection-table spreads issued

  friend bool operator==(const IrqRebalanceStats&,
                         const IrqRebalanceStats&) = default;
};

/// Everything a host has counted (its part of Topology::counters()), read
/// from the one place that counts each fact.
struct HostCounters {
  SimTime now = 0;  // the host's loop clock: the last event its shard ran
  std::uint64_t app_busy_ns = 0;
  std::uint64_t softirq_busy_ns = 0;
  std::uint64_t irq_busy_ns = 0;
  std::vector<std::uint64_t> core_irq_ns;  // per softirq core
  std::vector<std::size_t> irq_affinity;   // per RX ring
  std::vector<sim::RxRingStats> rings;     // incl. per-ring IRQ time
  std::vector<std::size_t> rss_table;
  sim::NicCounters nic;
  FlowContextManager::Stats flow_contexts;
  IrqRebalanceStats rebalance;

  friend bool operator==(const HostCounters&, const HostCounters&) = default;
};

class Host {
 public:
  Host(sim::EventLoop& loop, HostConfig config)
      : loop_(loop), config_(config), nic_(loop, config.nic) {
    for (std::size_t i = 0; i < config.app_cores; ++i) app_cores_.emplace_back(loop);
    for (std::size_t i = 0; i < config.softirq_cores; ++i)
      softirq_cores_.emplace_back(loop);
    nic_.set_rx_handler([this](sim::Packet pkt) { demux(std::move(pkt)); });
    // IRQ-affinity table (the /proc/irq/*/smp_affinity analogue): ring i's
    // interrupt vector is serviced by softirq core i % softirq_cores.
    // Reprogrammable at runtime via set_irq_affinity(); the executor reads
    // the table at fire time, so changes take effect immediately.
    irq_affinity_.resize(nic_.config().num_queues);
    for (std::size_t i = 0; i < irq_affinity_.size(); ++i) {
      irq_affinity_[i] = i % softirq_cores_.size();
    }
    last_fired_core_ = irq_affinity_;
    last_ring_irq_ns_.assign(irq_affinity_.size(), 0);
    last_core_irq_ns_.assign(softirq_cores_.size(), 0);
    nic_.set_irq_executor(
        [this](std::size_t ring, SimDuration cost, std::function<void()> fn) {
          ring %= irq_affinity_.size();
          // The affinity table is read at FIRE time; the drain's per-frame
          // charge below reuses this core even if a repin lands in between
          // (a vector migration takes effect at the next interrupt, like
          // /proc/irq/*/smp_affinity).
          const std::size_t core = irq_affinity_[ring];
          last_fired_core_[ring] = core;
          softirq_cores_[core].run_irq(cost, std::move(fn));
          note_irq_activity();
        },
        [this](std::size_t ring, SimDuration cost) {
          ring %= irq_affinity_.size();
          softirq_cores_[last_fired_core_[ring]].charge_irq(cost);
        });
    if (config.irq_rebalance_period > 0) {
      enable_irq_rebalance(config.irq_rebalance_period);
    }
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::EventLoop& loop() noexcept { return loop_; }
  sim::Nic& nic() noexcept { return nic_; }

  /// Host-wide LRU manager for NIC TLS flow contexts — shared by every
  /// endpoint so all sessions compete for (and recycle) the same finite
  /// NIC context table.
  FlowContextManager& flow_contexts() noexcept { return flow_contexts_; }
  const FlowContextManager& flow_contexts() const noexcept {
    return flow_contexts_;
  }

  /// NIC reset with driver-side reconciliation: the device loses every TLS
  /// flow context, queued descriptor, and RX frame (Nic::reset()), and the
  /// host-side lease cache forgets the now-dangling context IDs so the
  /// next send per flow transparently re-establishes through the normal
  /// FlowContextManager miss path. Call from a scheduled event, never from
  /// inside a NIC delivery callback (leases handed out within the current
  /// synchronous hook would dangle mid-use).
  void reset_nic() {
    nic_.reset();
    flow_contexts_.invalidate_all();
  }
  const HostConfig& config() const noexcept { return config_; }
  const CostModel& costs() const noexcept { return kCosts; }
  std::uint32_t ip() const noexcept { return config_.ip; }

  CpuCore& app_core(std::size_t i) { return app_cores_.at(i); }
  std::size_t app_core_count() const noexcept { return app_cores_.size(); }

  CpuCore& softirq_core(std::size_t i) { return softirq_cores_.at(i); }
  std::size_t softirq_core_count() const noexcept {
    return softirq_cores_.size();
  }

  /// RSS: the fixed softirq core for a flow (TCP's affinity model).
  CpuCore& softirq_for_flow(const sim::FiveTuple& flow) {
    return softirq_cores_[flow.hash() % softirq_cores_.size()];
  }
  std::size_t softirq_index_for_flow(const sim::FiveTuple& flow) const {
    return flow.hash() % softirq_cores_.size();
  }
  /// Hash-memoized variants: per-packet pinning decisions reuse the flow's
  /// cached RSS hash (a TCP connection's, or a header's in-flight stamp)
  /// instead of rehashing the five tuple on every packet.
  CpuCore& softirq_for_hash(std::size_t flow_hash) {
    return softirq_cores_[flow_hash % softirq_cores_.size()];
  }

  /// The softirq core servicing RX ring `ring`'s interrupt vector.
  std::size_t irq_affinity(std::size_t ring) const {
    return irq_affinity_.at(ring);
  }
  /// Re-pins ring `ring`'s IRQ to `core` (irqbalance / smp_affinity).
  /// Takes effect at the next interrupt: a drain already in flight keeps
  /// charging the core its interrupt fired on.
  void set_irq_affinity(std::size_t ring, std::size_t core) {
    irq_affinity_.at(ring) = core % softirq_cores_.size();
  }

  /// --- irqbalance-style periodic re-affinity ----------------------------

  /// Hysteresis: a migration needs the hottest core's IRQ delta to exceed
  /// the coldest core's by BOTH this ratio and an absolute floor — a
  /// balanced load must produce zero migrations, not ping-pong. The floor
  /// is max(kMinImbalance, period / 10): like irqbalance's load deviation
  /// threshold it scales with the sampling window, so a latency probe
  /// trickling a few interrupts per period never triggers a migration.
  static constexpr double kImbalanceRatio = 2.0;
  static constexpr SimDuration kMinImbalance = usec(5);
  /// A migration also requires the hottest core to have spent at least
  /// this fraction of the period on IRQ work. A mostly-idle system is
  /// trivially "imbalanced" (a lone flow's interrupts all hit one core
  /// while the others read zero), but migrating it buys nothing and taxes
  /// the latency path with flushes and context re-leases — irqbalance's
  /// refusal to balance at trivial load.
  static constexpr double kMinHotFraction = 0.20;

  /// Enables the rebalancer: every `period` (irqbalance's --interval,
  /// scaled to sim time), per-core irq_busy_ns deltas are sampled; when
  /// the hottest core exceeds the coldest by the hysteresis bounds above,
  /// the hottest ring affined to it is flushed (pending frames drain
  /// under the OLD vector) and repinned to the coldest core. The
  /// single-flow escape hatch: when ONE ring carries the majority of the
  /// IRQ load (RSS cannot spread a single flow by hashing), its
  /// indirection-table entries are also spread onto the rings whose
  /// affinity cores are coldest, so over successive periods the flow
  /// rotates rings/cores instead of soaking one softirq core.
  /// The timer goes dormant while the NIC is idle (and re-arms from the
  /// next interrupt), so EventLoop::run() still terminates.
  void enable_irq_rebalance(SimDuration period) {
    rebalance_period_ = period;
    rebalance_on_ = true;
    loop_.cancel(rebalance_timer_);  // re-armed below with the new period
    // Baseline the deltas at enable time: load charged before enabling
    // must not count as this period's imbalance.
    for (std::size_t i = 0; i < softirq_cores_.size(); ++i) {
      last_core_irq_ns_[i] = softirq_cores_[i].irq_busy_ns();
    }
    for (std::size_t r = 0; r < last_ring_irq_ns_.size(); ++r) {
      last_ring_irq_ns_[r] = nic_.rx_ring_stats(r).irq_ns;
    }
    arm_rebalance();
  }
  void disable_irq_rebalance() {
    rebalance_on_ = false;
    rebalance_armed_ = false;
    loop_.cancel(rebalance_timer_);
  }
  const IrqRebalanceStats& irq_rebalance_stats() const noexcept {
    return rebalance_stats_;
  }

  HostCounters counters() const {
    HostCounters c;
    c.now = loop_.now();
    c.app_busy_ns = total_app_busy_ns();
    c.softirq_busy_ns = total_softirq_busy_ns();
    c.irq_busy_ns = total_irq_busy_ns();
    for (const CpuCore& core : softirq_cores_) {
      c.core_irq_ns.push_back(core.irq_busy_ns());
    }
    c.irq_affinity = irq_affinity_;
    for (std::size_t r = 0; r < nic_.rx_ring_count(); ++r) {
      c.rings.push_back(nic_.rx_ring_stats(r));
    }
    c.rss_table = nic_.rss_indirection();
    c.nic = nic_.counters();
    c.flow_contexts = flow_contexts_.stats();
    c.rebalance = rebalance_stats_;
    return c;
  }

  /// Least-loaded softirq core (Homa/SMT per-message distribution),
  /// IRQ-aware: the score is the core's queued backlog PLUS its recent
  /// IRQ pressure (CpuCore::irq_load), so SRPT placement skips the
  /// interrupt-soaked core even when its instantaneous backlog reads zero
  /// between interrupts. Ties break round-robin from `start_from` — a
  /// fixed lowest-index rule would hand every message to the same core on
  /// an idle host.
  /// `start_from` lets the caller reserve low-numbered cores (Homa keeps
  /// core 0 as its pacer/SRPT thread). An out-of-range `start_from` clamps
  /// to the LAST core, never wraps to 0: wrapping would hand work meant
  /// for "any non-reserved core" straight to the reserved pacer core on
  /// hosts with a single softirq core.
  std::size_t least_loaded_softirq_index(std::size_t start_from = 0) const {
    const std::size_t n = softirq_cores_.size();
    if (start_from >= n) start_from = n - 1;
    const auto score = [this](std::size_t i) {
      return std::uint64_t(softirq_cores_[i].backlog()) +
             softirq_cores_[i].irq_load();
    };
    std::uint64_t best = score(start_from);
    for (std::size_t i = start_from + 1; i < n; ++i) {
      best = std::min(best, score(i));
    }
    const std::size_t span = n - start_from;
    std::size_t pick = start_from;
    for (std::size_t k = 0; k < span; ++k) {
      const std::size_t i = start_from + (least_loaded_rr_ + k) % span;
      if (score(i) == best) {
        pick = i;
        break;
      }
    }
    least_loaded_rr_ = (pick - start_from + 1) % span;
    return pick;
  }

  /// Aggregate CPU accounting (for the §5.2 CPU-usage experiment).
  std::uint64_t total_app_busy_ns() const {
    std::uint64_t sum = 0;
    for (const auto& core : app_cores_) sum += core.busy_ns();
    return sum;
  }
  std::uint64_t total_softirq_busy_ns() const {
    std::uint64_t sum = 0;
    for (const auto& core : softirq_cores_) sum += core.busy_ns();
    return sum;
  }
  /// IRQ-class CPU across every core (NIC interrupt servicing on the
  /// softirq cores + doorbell MMIO on whichever core posted) — the
  /// interrupt column of the §5.2 CPU-usage experiment.
  std::uint64_t total_irq_busy_ns() const {
    std::uint64_t sum = 0;
    for (const auto& core : app_cores_) sum += core.irq_busy_ns();
    for (const auto& core : softirq_cores_) sum += core.irq_busy_ns();
    return sum;
  }

  /// --- protocol demux ---------------------------------------------------

  using Endpoint = std::function<void(sim::Packet)>;

  void register_endpoint(sim::Proto proto, std::uint16_t port, Endpoint ep) {
    endpoints_[{proto, port}] = std::move(ep);
  }
  void unregister_endpoint(sim::Proto proto, std::uint16_t port) {
    endpoints_.erase({proto, port});
  }

 private:
  void demux(sim::Packet pkt) {
    const auto key = std::make_pair(pkt.hdr.flow.proto, pkt.hdr.flow.dst_port);
    const auto it = endpoints_.find(key);
    if (it != endpoints_.end()) it->second(std::move(pkt));
    // Unmatched packets are dropped, as a real host would.
  }

  /// Called from the IRQ executor on every interrupt: a dormant rebalancer
  /// wakes up. Keeping the timer armed only while interrupts flow is what
  /// lets EventLoop::run() drain to completion with the rebalancer on.
  void note_irq_activity() {
    if (rebalance_on_ && !rebalance_armed_) arm_rebalance();
  }

  void arm_rebalance() {
    rebalance_armed_ = true;
    rebalance_timer_ = loop_.schedule(rebalance_period_, [this] {
      rebalance_armed_ = false;
      rebalance_tick();
    });
  }

  void rebalance_tick() {
    ++rebalance_stats_.ticks;
    const std::size_t cores = softirq_cores_.size();
    const std::size_t rings = irq_affinity_.size();
    // Per-core and per-ring IRQ deltas over the elapsed period.
    std::vector<std::uint64_t> core_delta(cores);
    bool active = nic_.rx_pending() > 0;
    for (std::size_t i = 0; i < cores; ++i) {
      const std::uint64_t cur = softirq_cores_[i].irq_busy_ns();
      core_delta[i] = cur - last_core_irq_ns_[i];
      last_core_irq_ns_[i] = cur;
      active = active || core_delta[i] > 0;
    }
    std::vector<std::uint64_t> ring_delta(rings);
    for (std::size_t r = 0; r < rings; ++r) {
      const std::uint64_t cur = nic_.rx_ring_stats(r).irq_ns;
      ring_delta[r] = cur - last_ring_irq_ns_[r];
      last_ring_irq_ns_[r] = cur;
    }
    std::size_t hot = 0, cold = 0;
    for (std::size_t i = 1; i < cores; ++i) {
      if (core_delta[i] > core_delta[hot]) hot = i;
      if (core_delta[i] < core_delta[cold]) cold = i;
    }
    const std::uint64_t floor =
        std::max(std::uint64_t(kMinImbalance),
                 std::uint64_t(rebalance_period_ / 10));
    const bool imbalanced =
        cores > 1 && core_delta[hot] - core_delta[cold] > floor &&
        double(core_delta[hot]) > kImbalanceRatio * double(core_delta[cold]) &&
        double(core_delta[hot]) > kMinHotFraction * double(rebalance_period_);
    if (imbalanced) {
      // The hottest ring whose vector points at the hot core.
      std::size_t victim = rings;
      std::uint64_t victim_delta = 0;
      std::uint64_t total_delta = 0;
      for (std::size_t r = 0; r < rings; ++r) {
        total_delta += ring_delta[r];
        if (irq_affinity_[r] == hot && ring_delta[r] > victim_delta) {
          victim_delta = ring_delta[r];
          victim = r;
        }
      }
      if (victim < rings) {
        // Flush BEFORE the repin: held-off frames fire under the old
        // vector, so the migration neither loses nor duplicates an
        // interrupt and pending frames are delivered on the OLD core.
        nic_.flush_rx_ring(victim);
        set_irq_affinity(victim, cold);
        ++rebalance_stats_.migrations;
        if (rings > 1 && victim_delta * 2 > total_delta) {
          spread_ring_entries(victim, core_delta, cold);
        }
      }
    }
    if (active) {
      arm_rebalance();
    } else {
      rebalance_armed_ = false;  // dormant until the next interrupt
    }
  }

  /// Reprograms every indirection entry feeding `victim` onto the other
  /// rings, coldest affinity cores first (the single-flow spread: one
  /// flow's entry lands on the ring whose core has the most headroom).
  void spread_ring_entries(std::size_t victim,
                           const std::vector<std::uint64_t>& core_delta,
                           std::size_t charge_core) {
    std::vector<std::size_t> targets;
    for (std::size_t r = 0; r < irq_affinity_.size(); ++r) {
      if (r != victim) targets.push_back(r);
    }
    std::stable_sort(targets.begin(), targets.end(),
                     [&](std::size_t a, std::size_t b) {
                       return core_delta[irq_affinity_[a]] <
                              core_delta[irq_affinity_[b]];
                     });
    std::vector<std::size_t> table = nic_.rss_indirection();
    std::size_t next = 0;
    for (std::size_t& entry : table) {
      if (entry == victim) entry = targets[next++ % targets.size()];
    }
    // While a previous spread's entry flips are still held behind the
    // draining victim ring, rss_indirection() already reports the pending
    // targets — re-submitting the identical table would charge the
    // reprogram cost every period for zero steering change.
    if (next == 0) return;
    CpuCore& core = softirq_cores_[charge_core];
    const Status st = nic_.set_rss_indirection(
        table, [&core](SimDuration cost) { core.charge_irq(cost); });
    (void)st;  // table built from rss_indirection(): always valid
    ++rebalance_stats_.rss_spreads;
  }

  sim::EventLoop& loop_;
  HostConfig config_;
  sim::Nic nic_;
  FlowContextManager flow_contexts_{nic_};
  std::vector<CpuCore> app_cores_;
  std::vector<CpuCore> softirq_cores_;
  std::vector<std::size_t> irq_affinity_;  // RX ring -> softirq core index
  // The core each ring's LAST interrupt fired on: the drain's per-frame
  // charge follows the fire-time vector even across a mid-drain repin.
  std::vector<std::size_t> last_fired_core_;

  // irqbalance-style rebalancer state.
  SimDuration rebalance_period_ = 0;
  IrqRebalanceStats rebalance_stats_;
  bool rebalance_on_ = false;
  bool rebalance_armed_ = false;
  sim::TimerId rebalance_timer_;  // the armed tick; enable/disable cancel it
  std::vector<std::uint64_t> last_core_irq_ns_;  // delta baselines
  std::vector<std::uint64_t> last_ring_irq_ns_;

  // Round-robin cursor for least_loaded tie-breaking (mutable: placement
  // is logically a query, but fair tie-breaking needs rotation state).
  mutable std::size_t least_loaded_rr_ = 0;

  std::map<std::pair<sim::Proto, std::uint16_t>, Endpoint> endpoints_;
};

}  // namespace smt::stack
