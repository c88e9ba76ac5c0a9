// Point-to-point simulated link with bandwidth, propagation delay, and a
// deterministic fault model (uniform or Gilbert–Elliott burst loss,
// corruption, bounded reorder, scheduled flaps), modelling both the paper's
// back-to-back 100 Gb/s topology (§5 "HW&OS") and the adversity scenario
// matrix (WAN-grade impairments, bursty outages).
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "netsim/event.hpp"
#include "netsim/fault.hpp"
#include "netsim/packet.hpp"

namespace smt::sim {

struct LinkConfig {
  double bandwidth_gbps = 100.0;
  SimDuration propagation = usec(1);
  /// Loss (uniform: fault.good_loss_rate alone), corruption, reorder and
  /// flaps, drawn from the fault.seed stream.
  FaultProfile fault;
};

/// One direction of a link. Serialisation delay is modelled with a
/// next-free-time cursor; propagation is added on top.
///
/// RNG stream: the FaultState's fault RNG seeds from
/// mix_seed(fault.seed, stream) where `stream` is the direction index (Link
/// uses 0 for a2b, 1 for b2a; fabric uplinks use the host index), so the
/// two directions of a Link — built from one LinkConfig — never draw the
/// same drop pattern. The stream lives on the SENDING endpoint's shard.
///
/// Drop accounting contract: `next_free_` advances for EVERY packet,
/// including ones killed by the flap window, the drop predicate, or the
/// fault model's loss — a dropped packet still occupied the wire, so loss
/// can never inflate measured link capacity. Checks run in a fixed order
/// (flap, predicate, then FaultState::impair's loss, corruption, jitter)
/// and each drop increments exactly one of the split counters below.
class LinkDirection {
 public:
  LinkDirection(EventLoop& loop, const LinkConfig& config,
                std::uint64_t stream = 0)
      : loop_(loop),
        lane_(loop.new_lane()),
        config_(config),
        fault_(config.fault, stream) {}

  void set_receiver(PacketHandler handler) { receiver_ = std::move(handler); }

  /// Optional deterministic drop predicate evaluated before the fault
  /// model's random loss (used by tests to kill specific packets).
  void set_drop_predicate(std::function<bool(const Packet&)> predicate) {
    drop_predicate_ = std::move(predicate);
  }

  /// Marks this direction as CROSS-SHARD: delivery becomes a mailbox post
  /// to the receiver's shard (ShardedEngine::remote_scheduler) stamped
  /// with the arrival time, instead of a local schedule_at. The sender's
  /// serialisation cursor, counters, and fault RNG stay on THIS
  /// shard; only the receiver callback runs remotely. The lookahead
  /// contract requires config.propagation >= the engine's lookahead (fault
  /// jitter only adds on top). Wire before run(): receiver_ and remote_
  /// are read concurrently afterwards.
  void set_remote_scheduler(RemoteScheduler remote) {
    remote_ = std::move(remote);
  }

  void send(Packet packet) {
    const SimTime now = loop_.now();
    const double bits = double(packet.wire_size()) * 8.0;
    const auto serialization =
        SimDuration(bits / config_.bandwidth_gbps);  // ns at N Gb/s

    // A flap kill still charges the slot (contract above).
    const bool down = fault_.flap(now, next_free_);
    next_free_ = std::max(now, next_free_) + serialization;
    ++stats_.packets_sent;
    if (down) {
      ++stats_.dropped_by_fault;
      return;
    }

    if (drop_predicate_ && drop_predicate_(packet)) {
      ++stats_.dropped_by_predicate;
      return;
    }
    const FaultState::Impairment fault = fault_.impair(packet);
    if (fault.killed) {
      ++stats_.dropped_by_fault;
      return;
    }
    if (fault.corrupted) ++stats_.packets_corrupted;

    const SimTime arrival = next_free_ + config_.propagation + fault.jitter;
    auto deliver = [this, pkt = std::move(packet)]() mutable {
      if (receiver_) receiver_(std::move(pkt));
    };
    if (remote_) {
      remote_(arrival, std::move(deliver));  // cross-shard mailbox post
    } else {
      // Arrivals follow the serialisation cursor, so they queue on the
      // direction's lane (jitter that reorders them takes the heap).
      loop_.schedule_at(lane_, arrival, std::move(deliver));
    }
  }

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t dropped_by_predicate = 0;
    /// Fault-model loss kills + packets sent into a flap window.
    std::uint64_t dropped_by_fault = 0;
    /// Packets delivered with hdr.corrupted set (counted here at the point
    /// of corruption; the transport counts the matching ingress discards).
    std::uint64_t packets_corrupted = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  EventLoop& loop_;
  LaneId lane_;  // local deliveries
  LinkConfig config_;
  FaultState fault_;  // flaps + loss/corrupt/jitter
  PacketHandler receiver_;
  RemoteScheduler remote_;  // set => cross-shard delivery
  std::function<bool(const Packet&)> drop_predicate_;
  SimTime next_free_ = 0;
  Stats stats_;
};

/// Full-duplex link: direction a2b and b2a. The directions share one
/// LinkConfig but draw from decorrelated RNG streams (stream index 0 / 1).
class Link {
 public:
  Link(EventLoop& loop, const LinkConfig& config)
      : a2b_(loop, config, 0), b2a_(loop, config, 1) {}

  /// Cross-shard form: each direction's sender-side state (serialisation
  /// cursor, counters, fault RNG) lives on the SENDING endpoint's
  /// loop, so a Link can span two shards. With a_loop == b_loop this is
  /// identical to the single-loop constructor.
  Link(EventLoop& a_loop, EventLoop& b_loop, const LinkConfig& config)
      : a2b_(a_loop, config, 0), b2a_(b_loop, config, 1) {}

  LinkDirection& a2b() noexcept { return a2b_; }
  LinkDirection& b2a() noexcept { return b2a_; }

 private:
  LinkDirection a2b_;
  LinkDirection b2a_;
};

}  // namespace smt::sim
