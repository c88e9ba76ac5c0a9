// sim::FaultState — the one fault pipeline both wire kinds call — and the
// one FaultProfile validator.
#include "netsim/fault.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/switch.hpp"

namespace smt::sim {
namespace {

Packet make_packet(std::uint64_t msg_id) {
  Packet pkt;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.msg_id = msg_id;
  pkt.payload.assign(1430, 0xab);  // 1500 B on the wire: 120 ns at 100 Gb/s
  return pkt;
}

TEST(FaultState, InactiveStateNeverImpairs) {
  FaultState none;
  EXPECT_FALSE(none.active());
  SimTime cursor = 42;
  for (int i = 0; i < 100; ++i) {
    Packet pkt = make_packet(std::uint64_t(i));
    EXPECT_FALSE(none.flap(SimTime(i), cursor));
    const FaultState::Impairment out = none.impair(pkt);
    EXPECT_FALSE(out.killed || out.corrupted || pkt.hdr.corrupted);
    EXPECT_EQ(out.jitter, 0);
  }
  EXPECT_EQ(cursor, 42);
}

TEST(FaultState, BurstStartsOnThePacketAfterTheFlip) {
  // Certain flips, lossless good state, lossy bad state: loss is drawn in
  // the CURRENT state before the transition, so the chain alternates
  // survive (good -> bad), die (bad -> good), survive, ...
  FaultProfile f;
  f.p_good_to_bad = 1.0;
  f.p_bad_to_good = 1.0;
  f.bad_loss_rate = 1.0;
  FaultState state(f, 0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Packet pkt = make_packet(i);
    EXPECT_EQ(state.impair(pkt).killed, i % 2 == 1) << "packet " << i;
  }

  // A sticky bad state: only the first packet (sent in the good state)
  // survives the flip.
  f.p_bad_to_good = 0.0;
  FaultState sticky(f, 0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Packet pkt = make_packet(i);
    EXPECT_EQ(sticky.impair(pkt).killed, i > 0) << "packet " << i;
  }
}

TEST(FaultState, FlapUpTransitionResetsTheCursor) {
  FaultProfile f;
  f.flap_period = 100;
  f.flap_down = 10;
  f.flap_offset = 20;  // down during [20, 30), [120, 130), ...
  FaultState state(f, 0);
  SimTime cursor = 500;
  EXPECT_FALSE(state.flap(5, cursor));  // before the first outage
  EXPECT_EQ(cursor, 500);
  EXPECT_TRUE(state.flap(25, cursor));  // down: the cursor is the caller's
  EXPECT_EQ(cursor, 500);
  EXPECT_FALSE(state.flap(40, cursor));  // first packet after the outage
  EXPECT_EQ(cursor, 40);
  cursor = 999;
  EXPECT_FALSE(state.flap(50, cursor));  // still up: no second reset
  EXPECT_EQ(cursor, 999);
  EXPECT_TRUE(state.flap(125, cursor));
  EXPECT_FALSE(state.flap(130, cursor));  // the next period's up edge
  EXPECT_EQ(cursor, 130);
}

TEST(FaultState, DownAtIsPurePhaseArithmetic) {
  FaultProfile f;
  f.flap_period = 100;
  f.flap_down = 10;
  f.flap_offset = 20;
  f.corrupt_rate = 0.5;
  f.reorder_rate = 0.5;
  f.reorder_jitter = 1000;
  f.seed = 9;
  FaultState probed(f, 3);
  FaultState untouched(f, 3);
  EXPECT_FALSE(probed.down_at(19));
  EXPECT_TRUE(probed.down_at(20));
  EXPECT_TRUE(probed.down_at(29));
  EXPECT_FALSE(probed.down_at(30));
  EXPECT_TRUE(probed.down_at(125));
  // down_at consumes no draws and moves no flap state: interleaving it
  // with packets leaves the impairment sequence identical to a state that
  // was never probed.
  for (std::uint64_t i = 0; i < 200; ++i) {
    for (SimTime t = 0; t < 300; t += 7) (void)probed.down_at(t);
    Packet a = make_packet(i);
    Packet b = make_packet(i);
    const FaultState::Impairment pa = probed.impair(a);
    const FaultState::Impairment pb = untouched.impair(b);
    EXPECT_EQ(pa.corrupted, pb.corrupted) << "packet " << i;
    EXPECT_EQ(pa.jitter, pb.jitter) << "packet " << i;
  }
  // ...and a probe never counts as an observed up transition.
  SimTime cursor = 77;
  EXPECT_FALSE(probed.flap(40, cursor));
  EXPECT_EQ(cursor, 77);
}

TEST(FaultState, JitterLiesInOneToReorderJitter) {
  FaultProfile f;
  f.reorder_rate = 1.0;
  f.reorder_jitter = 5;
  FaultState state(f, 0);
  std::set<SimDuration> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Packet pkt = make_packet(i);
    const SimDuration jitter = state.impair(pkt).jitter;
    EXPECT_GE(jitter, 1);
    EXPECT_LE(jitter, 5);
    seen.insert(jitter);
  }
  EXPECT_EQ(seen, (std::set<SimDuration>{1, 2, 3, 4, 5}));
}

TEST(FaultValidate, AcceptsDefaultsAndAFullProfile) {
  EXPECT_TRUE(validate(FaultProfile{}, "fault").ok());
  FaultProfile f;
  f.p_good_to_bad = 0.01;
  f.p_bad_to_good = 0.1;
  f.good_loss_rate = 0.001;
  f.bad_loss_rate = 1.0;
  f.corrupt_rate = 0.001;
  f.reorder_rate = 0.1;
  f.reorder_jitter = usec(50);
  f.flap_period = msec(2);
  f.flap_down = usec(200);
  f.flap_offset = usec(500);
  EXPECT_TRUE(validate(f, "fault").ok());
}

TEST(FaultValidate, RejectsOutOfRangeProbabilities) {
  for (double FaultProfile::*field :
       {&FaultProfile::p_good_to_bad, &FaultProfile::p_bad_to_good,
        &FaultProfile::good_loss_rate, &FaultProfile::bad_loss_rate,
        &FaultProfile::corrupt_rate, &FaultProfile::reorder_rate}) {
    for (const double bad : {-0.1, 1.5}) {
      FaultProfile f;
      f.*field = bad;
      const Status st = validate(f, "fabric_fault");
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), Errc::invalid_argument);
      EXPECT_EQ(st.message().rfind("fabric_fault: ", 0), 0u) << st.message();
      EXPECT_NE(st.message().find("probabilities"), std::string::npos);
    }
  }
}

TEST(FaultValidate, RejectsNegativeDurations) {
  for (SimDuration FaultProfile::*field :
       {&FaultProfile::reorder_jitter, &FaultProfile::flap_period,
        &FaultProfile::flap_down, &FaultProfile::flap_offset}) {
    FaultProfile f;
    f.*field = -1;
    const Status st = validate(f, "fault");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("durations"), std::string::npos)
        << st.message();
  }
}

TEST(FaultValidate, RejectsFlapShapesThatNeverMakeSense) {
  FaultProfile no_period;
  no_period.flap_down = 10;
  EXPECT_FALSE(validate(no_period, "fault").ok());

  FaultProfile always_down;
  always_down.flap_period = 10;
  always_down.flap_down = 10;
  EXPECT_FALSE(validate(always_down, "fault").ok());
  always_down.flap_down = 11;
  EXPECT_FALSE(validate(always_down, "fault").ok());
  always_down.flap_down = 9;
  EXPECT_TRUE(validate(always_down, "fault").ok());
}

// ---------------------------------------------------------------------------
// Link vs switch-port parity: both wire kinds run the one FaultState
// pipeline, so the same profile on the same stream must impair the same
// packets by the same amounts.

/// What happened to each offered packet: absent = killed, else
/// (corrupted, jitter).
using Outcomes = std::map<std::uint64_t, std::pair<bool, SimDuration>>;

TEST(FaultParity, LinkAndSwitchPortImpairIdentically) {
  FaultProfile f;
  f.p_good_to_bad = 0.1;
  f.p_bad_to_good = 0.3;
  f.good_loss_rate = 0.01;
  f.bad_loss_rate = 0.7;
  f.corrupt_rate = 0.2;
  f.reorder_rate = 0.3;
  f.reorder_jitter = usec(2);
  f.seed = 77;
  constexpr std::uint64_t kStream = 5;
  constexpr std::uint64_t kPackets = 400;
  constexpr SimDuration kSpacing = usec(10);  // idle wire for every send
  constexpr SimDuration kSerialisation = 120;

  EventLoop loop;
  LinkConfig lc;
  lc.propagation = usec(1);
  lc.fault = f;
  LinkDirection link(loop, lc, kStream);
  Switch sw(loop, SwitchConfig{});

  Outcomes via_link, via_switch;
  auto record = [&loop](Outcomes& out, SimDuration fixed) {
    return [&loop, &out, fixed](Packet pkt) {
      const std::uint64_t id = pkt.hdr.msg_id;
      const SimTime sent = SimTime(id) * kSpacing;
      out[id] = {pkt.hdr.corrupted, loop.now() - sent - fixed};
    };
  };
  link.set_receiver(record(via_link, kSerialisation + lc.propagation));
  const std::size_t port = sw.add_port(record(
      via_switch, Switch::kForwardingLatency + kSerialisation));
  sw.set_route(1, port);
  sw.set_port_fault(port, f, kStream);

  for (std::uint64_t i = 0; i < kPackets; ++i) {
    loop.schedule_at(SimTime(i) * kSpacing, [&, i] {
      link.send(make_packet(i));
      sw.receive(make_packet(i));
    });
  }
  loop.run();

  EXPECT_EQ(via_link, via_switch);
  // Non-vacuous: every impairment kind fired.
  std::size_t corrupted = 0, jittered = 0;
  for (const auto& [id, outcome] : via_link) {
    corrupted += outcome.first ? 1 : 0;
    jittered += outcome.second > 0 ? 1 : 0;
    EXPECT_GE(outcome.second, 0);
    EXPECT_LE(outcome.second, usec(2));
  }
  EXPECT_LT(via_link.size(), kPackets);
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(jittered, 0u);

  // Both wire kinds record the same fates.
  EXPECT_EQ(link.stats().dropped_by_fault, kPackets - via_link.size());
  EXPECT_EQ(sw.stats().fault_dropped, link.stats().dropped_by_fault);
  EXPECT_EQ(link.stats().packets_corrupted, corrupted);
  EXPECT_EQ(sw.stats().corrupted, corrupted);
  EXPECT_EQ(sw.port_stats(port).corrupted, corrupted);
}

}  // namespace
}  // namespace smt::sim
