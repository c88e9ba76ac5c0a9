// The deterministic wire fault model — Gilbert–Elliott burst loss,
// corruption, bounded reorder, scheduled flaps — and the one pipeline that
// applies it. Both wire kinds call the same FaultState: edge links
// (LinkDirection, link.hpp) and fabric-core switch egress ports
// (Switch::Port, switch.hpp), so the two can never drift apart in draw
// order or semantics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/packet.hpp"

namespace smt::sim {

/// Deterministic wire impairments. All state evolves from `seed` (mixed
/// with the wire's stream index) and virtual time only, so every fault
/// pattern replays byte-identically per shard count. Fields default to
/// "off"; `enabled()` gates the per-packet work. Uniform loss is
/// `good_loss_rate` alone: with p_good_to_bad = 0 the chain never leaves
/// the good state and each packet draws one chance.
struct FaultProfile {
  // Gilbert–Elliott burst loss: a two-state Markov chain stepped once per
  // packet. Loss is drawn in the CURRENT state, then the transition — so a
  // burst begins with the packet AFTER the good→bad flip.
  double p_good_to_bad = 0.0;  // per-packet transition probability
  double p_bad_to_good = 1.0;  // per-packet transition probability
  double good_loss_rate = 0.0;
  double bad_loss_rate = 0.0;

  // Corruption: deliver-but-flag. The packet arrives with hdr.corrupted set
  // and is discarded at transport ingress — modelling a frame whose GCM tag
  // or checksum check fails AFTER spending wire and NIC resources.
  double corrupt_rate = 0.0;

  // Bounded reorder/jitter: with probability reorder_rate a packet's
  // arrival is delayed by an extra uniform [1, reorder_jitter], letting
  // later packets overtake it. Jitter only ever ADDS delay, so the
  // cross-shard lookahead contract (arrival >= now + propagation) holds.
  double reorder_rate = 0.0;
  SimDuration reorder_jitter = 0;

  // Scheduled flaps: the wire is DOWN during
  //   [flap_offset + k*flap_period, flap_offset + k*flap_period + flap_down)
  // for k = 0, 1, ... — a pure function of virtual time, no RNG. Every
  // packet sent while down is dropped, and the serialisation cursor resets
  // at the up transition (queued occupancy does not survive an outage).
  SimDuration flap_period = 0;  // 0 => no flaps
  SimDuration flap_down = 0;
  SimDuration flap_offset = 0;

  std::uint64_t seed = 1;  // fault-RNG stream (decorrelated per wire)

  bool ge_enabled() const noexcept {
    return good_loss_rate > 0.0 || bad_loss_rate > 0.0;
  }
  bool flaps_enabled() const noexcept {
    return flap_period > 0 && flap_down > 0;
  }
  bool enabled() const noexcept {
    return ge_enabled() || corrupt_rate > 0.0 ||
           (reorder_rate > 0.0 && reorder_jitter > 0) || flaps_enabled();
  }
};

/// The one range/shape check for a FaultProfile, used by every layer that
/// accepts one (FabricSpec, the scenario loader, the topology builder).
/// `where` prefixes the error ("fault", "fabric_fault", ...).
inline Status validate(const FaultProfile& f, std::string_view where) {
  auto fail = [where](const char* what) {
    return make_error(Errc::invalid_argument,
                      std::string(where) + ": " + what);
  };
  for (const double p : {f.p_good_to_bad, f.p_bad_to_good, f.good_loss_rate,
                         f.bad_loss_rate, f.corrupt_rate, f.reorder_rate}) {
    if (p < 0.0 || p > 1.0) return fail("probabilities must be within [0, 1]");
  }
  if (f.reorder_jitter < 0 || f.flap_period < 0 || f.flap_down < 0 ||
      f.flap_offset < 0) {
    return fail("durations must be >= 0");
  }
  if (f.flap_down > 0 && f.flap_period == 0) {
    return fail("flap_down needs flap_period > 0");
  }
  if (f.flap_period > 0 && f.flap_down >= f.flap_period) {
    return fail("flap_down must be < flap_period (equal means the wire "
                "never comes up)");
  }
  return Status::success();
}

/// Sender-side fault state of one wire: the profile, its private fault RNG
/// (mix_seed(profile.seed, stream)), the Gilbert–Elliott bit and the last
/// observed flap state. A wire calls flap() before its own drop checks and
/// impair() after them; together they run the fixed per-packet order
///   flap, GE loss in the current state, GE transition, corruption, jitter
/// and nothing else ever draws from the stream.
class FaultState {
 public:
  /// An inactive state: never kills, corrupts or delays anything.
  FaultState() = default;
  FaultState(const FaultProfile& profile, std::uint64_t stream)
      : profile_(profile),
        rng_(mix_seed(profile.seed, stream)),
        active_(profile.enabled()) {}

  bool active() const noexcept { return active_; }

  /// Whether the flap schedule has the wire DOWN at `now` — pure phase
  /// arithmetic, no RNG, no state change (the switch health probe
  /// re-checks this instead of drawing randomness).
  bool down_at(SimTime now) const noexcept {
    if (!profile_.flaps_enabled() || now < profile_.flap_offset) return false;
    return (now - profile_.flap_offset) % profile_.flap_period <
           profile_.flap_down;
  }

  /// Steps the flap state for a packet offered at `now`; true = the wire
  /// is down and the packet dies. On the up transition the caller's
  /// serialisation `cursor` resets to `now`: an outage voids the queue.
  bool flap(SimTime now, SimTime& cursor) noexcept {
    if (!profile_.flaps_enabled()) return false;
    const bool down = down_at(now);
    if (!down && was_down_) cursor = now;
    was_down_ = down;
    return down;
  }

  struct Impairment {
    bool killed = false;     // burst loss: drop the packet
    bool corrupted = false;  // this wire set hdr.corrupted
    SimDuration jitter = 0;  // extra arrival delay, only ever >= 0
  };

  /// Burst loss, corruption and jitter for a packet the wire is about to
  /// carry. A killed packet draws no corruption or jitter.
  Impairment impair(Packet& packet) {
    Impairment out;
    if (!active_) return out;
    const FaultProfile& f = profile_;
    if (f.ge_enabled()) {
      const double rate = ge_bad_ ? f.bad_loss_rate : f.good_loss_rate;
      out.killed = rate > 0.0 && rng_.chance(rate);
      if (ge_bad_) {
        if (f.p_bad_to_good > 0.0 && rng_.chance(f.p_bad_to_good)) {
          ge_bad_ = false;
        }
      } else if (f.p_good_to_bad > 0.0 && rng_.chance(f.p_good_to_bad)) {
        ge_bad_ = true;
      }
      if (out.killed) return out;
    }
    if (f.corrupt_rate > 0.0 && rng_.chance(f.corrupt_rate)) {
      packet.hdr.corrupted = true;
      out.corrupted = true;
    }
    if (f.reorder_rate > 0.0 && f.reorder_jitter > 0 &&
        rng_.chance(f.reorder_rate)) {
      out.jitter = SimDuration(1) + SimDuration(rng_.next_below(
                                        std::uint64_t(f.reorder_jitter)));
    }
    return out;
  }

 private:
  FaultProfile profile_;
  Rng rng_{0};             // burst/corrupt/jitter stream
  bool active_ = false;    // cached profile_.enabled()
  bool ge_bad_ = false;    // Gilbert–Elliott state (false = good)
  bool was_down_ = false;  // last observed flap state
};

}  // namespace smt::sim
