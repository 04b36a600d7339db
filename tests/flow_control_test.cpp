// Unit + protocol tests for windowed send admission (flow control): the
// FlowController state machine in isolation, then the Endpoint integration
// (deferred sends, credit acks, queue drain, sole-member bypass) through the
// simulated cluster.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "rrmp/flow_control.h"

namespace rrmp {
namespace {

FlowControlParams windowed(std::uint32_t window) {
  FlowControlParams p;
  p.enabled = true;
  p.window_size = window;
  return p;
}

// ------------------------------------------------------ controller unit ----

TEST(FlowControllerTest, DisabledAdmitsEverything) {
  FlowController fc;  // default params: disabled
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fc.may_send());
    fc.on_frame_sent();
  }
  EXPECT_TRUE(fc.may_send());
  EXPECT_EQ(fc.send_seq(), 100u);
}

TEST(FlowControllerTest, WindowBlocksAtCapacity) {
  FlowController fc(windowed(4), 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fc.may_send());
    fc.on_frame_sent();
  }
  EXPECT_FALSE(fc.may_send());
  EXPECT_EQ(fc.outstanding(), 4u);
  EXPECT_EQ(fc.credits(), 0u);
}

TEST(FlowControllerTest, CursorAdvanceReleasesCredits) {
  FlowController fc(windowed(2), 0);
  fc.on_frame_sent();
  fc.on_frame_sent();
  EXPECT_FALSE(fc.may_send());
  fc.on_cursor(7, 1);  // peer 7 received seq 1 contiguously
  EXPECT_EQ(fc.window_floor(), 1u);
  EXPECT_EQ(fc.outstanding(), 1u);
  EXPECT_EQ(fc.credits(), 1u);
  EXPECT_TRUE(fc.may_send());
}

TEST(FlowControllerTest, WindowFloorIsMinimumPeerCursor) {
  FlowController fc(windowed(8), 0);
  for (int i = 0; i < 6; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 5);
  fc.on_cursor(2, 3);  // the slowest peer holds the floor
  EXPECT_EQ(fc.window_floor(), 3u);
  EXPECT_EQ(fc.outstanding(), 3u);
  fc.on_cursor(2, 6);
  EXPECT_EQ(fc.window_floor(), 5u);  // now peer 1 is slowest
}

TEST(FlowControllerTest, StaleCursorNeverRetractsCredit) {
  FlowController fc(windowed(8), 0);
  for (int i = 0; i < 6; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 5);
  fc.on_cursor(1, 3);  // reordered older ack
  EXPECT_EQ(fc.window_floor(), 5u);
}

TEST(FlowControllerTest, CursorClampedToSendSeq) {
  // A corrupt or future cursor must not open the window beyond what was
  // actually transmitted.
  FlowController fc(windowed(4), 0);
  fc.on_frame_sent();
  fc.on_frame_sent();
  fc.on_cursor(1, 100);
  EXPECT_EQ(fc.window_floor(), 2u);
  EXPECT_EQ(fc.outstanding(), 0u);
}

TEST(FlowControllerTest, PressureHalvesEffectiveWindow) {
  FlowController fc(windowed(8), 0);
  EXPECT_EQ(fc.effective_window(), 8u);
  EXPECT_FALSE(fc.pressured());
  // Peer at 90% of its own advertised budget: past the 0.75 watermark.
  fc.on_peer_budget(3, 900, 1000);
  EXPECT_TRUE(fc.pressured());
  EXPECT_EQ(fc.effective_window(), 4u);
  // Relief: the same peer drops below the watermark.
  fc.on_peer_budget(3, 100, 1000);
  EXPECT_FALSE(fc.pressured());
  EXPECT_EQ(fc.effective_window(), 8u);
}

TEST(FlowControllerTest, PressureNeverDropsWindowBelowOne) {
  FlowController fc(windowed(1), 0);
  fc.on_peer_budget(3, 1000, 1000);
  EXPECT_TRUE(fc.pressured());
  EXPECT_EQ(fc.effective_window(), 1u);
  EXPECT_TRUE(fc.may_send());  // still makes progress
}

TEST(FlowControllerTest, PressuredWindowSplitsAcrossAdvertisedSenders) {
  // Under pressure the halved window is shared among the senders currently
  // advertising outstanding frames in the digest gossip: one peer sender →
  // a quarter each, three → an eighth (floored, min 1). Idle peers (zero
  // advertised outstanding) don't dilute the split, and the full window
  // returns the moment pressure clears.
  FlowController fc(windowed(16), 0);
  fc.on_peer_budget(9, 95, 100);  // pressure on
  EXPECT_EQ(fc.effective_window(), 8u);
  fc.on_peer_occupancy(1, 0, 3);  // a concurrent sender
  EXPECT_EQ(fc.effective_window(), 4u);
  fc.on_peer_occupancy(2, 0, 0);  // idle peer: not a sender
  EXPECT_EQ(fc.effective_window(), 4u);
  fc.on_peer_occupancy(2, 0, 5);
  fc.on_peer_occupancy(3, 0, 1);
  EXPECT_EQ(fc.effective_window(), 2u);  // 8 / 4 senders
  fc.on_peer_occupancy(4, 0, 7);
  fc.on_peer_occupancy(5, 0, 7);
  EXPECT_EQ(fc.effective_window(), 1u);  // floored at 1: always progress
  fc.on_peer_budget(9, 10, 100);  // pressure off: crowd split disengages
  EXPECT_EQ(fc.effective_window(), 16u);
}

TEST(FlowControllerTest, BackpressureDisabledIgnoresOccupancy) {
  FlowControlParams p = windowed(8);
  p.backpressure = false;
  FlowController fc(p, 0);
  fc.on_peer_budget(3, 1000, 1000);
  EXPECT_FALSE(fc.pressured());
  EXPECT_EQ(fc.effective_window(), 8u);
}

TEST(FlowControllerTest, DigestOccupancyJudgedAgainstSelfBudgetFallback) {
  // BufferDigest carries bytes only: with no peer-reported budget the
  // occupancy is judged against our own budget; with neither, never
  // pressured (unlimited buffers feel no pressure).
  FlowController unlimited(windowed(8), /*self_budget_bytes=*/0);
  unlimited.on_peer_occupancy(3, 1 << 30, 0);
  EXPECT_FALSE(unlimited.pressured());

  FlowController budgeted(windowed(8), /*self_budget_bytes=*/1000);
  budgeted.on_peer_occupancy(3, 800, 0);
  EXPECT_TRUE(budgeted.pressured());
  budgeted.on_peer_occupancy(3, 100, 0);
  EXPECT_FALSE(budgeted.pressured());

  // A CreditAck-reported budget takes precedence over the fallback.
  budgeted.on_peer_budget(3, 800, 1 << 20);
  EXPECT_FALSE(budgeted.pressured());
}

TEST(FlowControllerTest, RetainPeersUnwedgesDepartedFloorAndPressure) {
  FlowController fc(windowed(4), 0);
  for (int i = 0; i < 4; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 4);
  fc.on_cursor(2, 0);          // peer 2 never received anything...
  fc.on_peer_budget(2, 10, 10);  // ...and advertises full buffers
  EXPECT_EQ(fc.window_floor(), 0u);
  EXPECT_FALSE(fc.may_send());
  EXPECT_TRUE(fc.pressured());
  fc.retain_peers({1, 3});  // peer 2 departed
  EXPECT_EQ(fc.window_floor(), 4u);
  EXPECT_TRUE(fc.may_send());
  EXPECT_FALSE(fc.pressured());
}

TEST(FlowControllerTest, CreditsNeverExceedWindowSize) {
  FlowController fc(windowed(4), 0);
  EXPECT_LE(fc.credits(), 4u);
  for (int i = 0; i < 4; ++i) {
    fc.on_frame_sent();
    EXPECT_LE(fc.credits(), 4u);
  }
  fc.on_cursor(1, 4);
  EXPECT_LE(fc.credits(), 4u);
  fc.on_peer_budget(2, 10, 10);  // pressured: effective window shrinks
  EXPECT_LE(fc.credits(), 4u);
}

// ----------------------------------------------------------- AIMD unit ----

FlowControlParams aimd(std::uint32_t window) {
  FlowControlParams p = windowed(window);
  p.adaptive = true;
  return p;
}

TEST(FlowControllerTest, AimdStartsAtMinWindowAndGrowsPerCleanRound) {
  FlowController fc(aimd(8), 0);
  EXPECT_EQ(fc.current_window(), 2u);
  fc.on_clean_round();
  EXPECT_EQ(fc.current_window(), 3u);
  for (int i = 0; i < 20; ++i) fc.on_clean_round();
  EXPECT_EQ(fc.current_window(), 8u);  // capped at the static-window ceiling
}

TEST(FlowControllerTest, AimdHalvesOnLossFlooredAtMinWindow) {
  FlowController fc(aimd(8), 0);
  for (int i = 0; i < 20; ++i) fc.on_clean_round();
  EXPECT_EQ(fc.current_window(), 8u);
  fc.on_loss();
  EXPECT_EQ(fc.current_window(), 4u);
  fc.on_loss();
  EXPECT_EQ(fc.current_window(), 2u);
  fc.on_loss();
  EXPECT_EQ(fc.current_window(), 2u);  // never below kMinAdaptiveWindow
}

TEST(FlowControllerTest, AimdFloorNeverExceedsWindowSize) {
  // A one-frame window leaves no room to grow or shrink: the AIMD floor is
  // clamped to the ceiling.
  FlowController fc(aimd(1), 0);
  EXPECT_EQ(fc.current_window(), 1u);
  fc.on_loss();
  fc.on_clean_round();
  EXPECT_EQ(fc.current_window(), 1u);
}

TEST(FlowControllerTest, AimdGatesAdmissionThroughCurrentWindow) {
  FlowController fc(aimd(8), 0);
  fc.on_frame_sent();
  fc.on_frame_sent();
  EXPECT_FALSE(fc.may_send());  // cwnd = 2, both slots outstanding
  fc.on_clean_round();          // cwnd = 3
  EXPECT_TRUE(fc.may_send());
  EXPECT_LE(fc.credits(), fc.current_window());
}

TEST(FlowControllerTest, AimdNoOpWhenAdaptiveOff) {
  FlowController fc(windowed(8), 0);
  EXPECT_EQ(fc.current_window(), 8u);
  fc.on_clean_round();
  fc.on_loss();
  EXPECT_EQ(fc.current_window(), 8u);  // static knob governs, untouched
  EXPECT_EQ(fc.effective_window(), 8u);
}

TEST(FlowControllerTest, JoinedPeerSeededAtFloorNotZero) {
  FlowController fc(windowed(4), 0);
  for (int i = 0; i < 6; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 5);
  EXPECT_EQ(fc.window_floor(), 5u);
  // A genuine joiner is seeded at the current floor: the crowd's window does
  // not reopen frames 1..5 that everyone else already acknowledged.
  fc.on_peer_joined(2);
  EXPECT_EQ(fc.window_floor(), 5u);
  EXPECT_EQ(fc.outstanding(), 1u);
  // The joiner's first real ack necessarily says 0 (it received nothing
  // contiguously); monotonicity holds the seed against it.
  fc.on_cursor(2, 0);
  EXPECT_EQ(fc.window_floor(), 5u);
  // An established peer is never re-seeded upward by a spurious join event.
  fc.on_cursor(3, 1);
  fc.on_peer_joined(3);
  EXPECT_EQ(fc.window_floor(), 1u);
}

TEST(FlowControllerTest, ReleaseStalledPeersWalksFloorPastSeededBinding) {
  FlowController fc(windowed(4), 0);
  EXPECT_FALSE(fc.release_stalled_peers());  // no peers, nothing to do
  for (int i = 0; i < 4; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 2);
  // Peer 2 joins mid-stream: binding seeded at the floor (2). Its genuine
  // acks say 0 — it is backfilling history *below* the floor, so the frame
  // at the floor is not what blocks it.
  fc.on_peer_joined(2);
  fc.on_cursor(2, 0);
  fc.on_cursor(1, 4);
  EXPECT_EQ(fc.window_floor(), 2u);
  EXPECT_TRUE(fc.release_stalled_peers());
  EXPECT_EQ(fc.window_floor(), 3u);
  EXPECT_TRUE(fc.release_stalled_peers());
  EXPECT_EQ(fc.window_floor(), 4u);
  // Floor == send_seq: releasing further would fabricate credit.
  EXPECT_FALSE(fc.release_stalled_peers());
  EXPECT_EQ(fc.window_floor(), 4u);
}

TEST(FlowControllerTest, ReleaseNeverSkipsAnHonestFloorHolder) {
  FlowController fc(windowed(4), 0);
  for (int i = 0; i < 4; ++i) fc.on_frame_sent();
  fc.on_cursor(1, 4);
  fc.on_cursor(2, 1);  // genuinely stuck on frame 2: it *reported* 1
  EXPECT_EQ(fc.window_floor(), 1u);
  // The honest holder keeps the binding: this stall belongs to the
  // re-multicast path, which can still deliver frame 2 for real.
  EXPECT_FALSE(fc.release_stalled_peers());
  EXPECT_EQ(fc.window_floor(), 1u);
  // A seeded peer alongside it does not change that — the floor cannot
  // move while any honest holder sits on it.
  fc.on_cursor(3, 3);
  fc.on_peer_joined(4);  // seeded at 1 (the floor)
  EXPECT_FALSE(fc.release_stalled_peers());
  EXPECT_EQ(fc.window_floor(), 1u);
}

TEST(FlowControllerTest, SanitizedClampsNonsenseKnobs) {
  FlowControlParams p;
  p.window_size = 0;
  p.ack_interval = Duration::millis(0);
  FlowControlParams s = sanitized(p);
  EXPECT_EQ(s.window_size, 1u);
  EXPECT_GT(s.ack_interval, Duration::millis(0));
}

// -------------------------------------------------- endpoint integration ----

harness::ClusterConfig flow_cluster(std::size_t n, std::uint64_t seed,
                                    std::uint32_t window) {
  harness::ClusterConfig cc;
  cc.region_sizes = {n};
  cc.seed = seed;
  cc.protocol.flow.enabled = true;
  cc.protocol.flow.window_size = window;
  cc.protocol.flow.ack_interval = Duration::millis(5);
  return cc;
}

TEST(FlowEndpointTest, FlowOffPutsNoCreditTrafficOnTheWire) {
  harness::ClusterConfig cc;
  cc.region_sizes = {6};
  cc.seed = 11;
  harness::Cluster cluster(cc);
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (int i = 0; i < 5; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0xAB));
    }
  });
  cluster.run_for(Duration::millis(500));
  EXPECT_EQ(cluster.network().stats().sends_by_type[static_cast<std::size_t>(
                proto::MessageType::kCreditAck)],
            0u);
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  EXPECT_EQ(cluster.metrics().counters().credit_acks_sent, 0u);
  EXPECT_EQ(cluster.metrics().counters().sends_deferred, 0u);
}

TEST(FlowEndpointTest, BurstBeyondWindowDefersThenDrainsOnCredit) {
  harness::Cluster cluster(flow_cluster(6, 21, /*window=*/2));
  constexpr std::size_t kBurst = 10;
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0xCD));
    }
    // The burst outruns the window immediately: at most `window` frames hit
    // the wire, the rest wait for credit.
    EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), 2u);
    EXPECT_EQ(cluster.endpoint(0).queued_sends(), kBurst - 2);
  });
  cluster.run_for(Duration::seconds(2));
  // Credit acks released the whole burst, in order, and everyone got it.
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
  EXPECT_EQ(cluster.metrics().counters().sends_deferred, kBurst - 2);
  EXPECT_GT(cluster.metrics().counters().credit_acks_sent, 0u);
  EXPECT_GT(cluster.network().stats().sends_by_type[static_cast<std::size_t>(
                proto::MessageType::kCreditAck)],
            0u);
}

TEST(FlowEndpointTest, SoleMemberBypassesGating) {
  // A sender alone in its region has no peer to grant credit; gating there
  // would wedge the stream forever, so admission is bypassed.
  harness::Cluster cluster(flow_cluster(1, 31, /*window=*/1));
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (int i = 0; i < 5; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0xEF));
    }
    EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
    EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), 5u);
  });
  cluster.run_for(Duration::millis(200));
  EXPECT_EQ(cluster.metrics().counters().sends_deferred, 0u);
}

TEST(FlowEndpointTest, HaltDropsQueuedFrames) {
  harness::Cluster cluster(flow_cluster(6, 41, /*window=*/1));
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (int i = 0; i < 4; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x11));
    }
    EXPECT_GT(cluster.endpoint(0).queued_sends(), 0u);
    cluster.crash(0);
    EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  });
  cluster.run_for(Duration::millis(100));
}

// ------------------------------------------------- churn-safe credit state ----

TEST(FlowEndpointTest, MidBurstJoinerDoesNotDragFloorToZero) {
  // Regression for the joiner zero-cursor bug: a member (re)joining
  // mid-flash-crowd has received nothing, so its first CreditAck reports
  // cursor 0 for every active stream. Before churn-safe seeding that ack
  // dragged every sender's window floor back to 0 — outstanding() jumped
  // past the window and the whole crowd wedged until the joiner backfilled.
  // With seeding, the joiner's cursor starts at the sender's current floor
  // and the floor never regresses.
  harness::Cluster cluster(flow_cluster(6, 51, /*window=*/4));
  constexpr MemberId kJoiner = 5;
  constexpr std::size_t kBurst = 30;
  cluster.schedule_script_after(Duration::millis(1),
                                [&] { cluster.crash(kJoiner); });
  for (std::size_t i = 0; i < kBurst; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(5 + static_cast<std::int64_t>(i)),
        [&] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x22));
        });
  }
  std::uint64_t floor_before_join = 0;
  cluster.schedule_script(TimePoint::zero() + Duration::millis(22), [&] {
    floor_before_join = cluster.endpoint(0).flow().window_floor();
    cluster.rejoin(kJoiner);
    // The seed is installed at view-change time, before any ack from the
    // joiner can arrive: the floor is already held.
    EXPECT_GE(cluster.endpoint(0).flow().window_floor(), floor_before_join);
  });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(32), [&] {
    // Mid-burst, two ack intervals after the join: the joiner's cursor-0
    // acks have arrived and must not have reopened acknowledged frames.
    EXPECT_GT(floor_before_join, 0u);  // the premise: the crowd had progressed
    EXPECT_GE(cluster.endpoint(0).flow().window_floor(), floor_before_join);
    EXPECT_LE(cluster.endpoint(0).flow().outstanding(), 4u);
  });
  cluster.run_for(Duration::seconds(3));
  // Nothing wedged: the queue drained and everyone (joiner included, via
  // recovery) got the whole burst.
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
}

TEST(FlowEndpointTest, StaleAckFromDepartedPeerIgnored) {
  // Departure-vs-ack race: a CreditAck from a member that just left the
  // view must not re-install its cursor — a zero cursor from a departed
  // peer would wedge the window until the next tick's retain_peers pass.
  harness::Cluster cluster(flow_cluster(4, 61, /*window=*/2));
  cluster.schedule_script_after(Duration::millis(1), [&] {
    cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x33));
    cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x33));
  });
  cluster.schedule_script_after(Duration::millis(60), [&] {
    ASSERT_EQ(cluster.endpoint(0).flow().window_floor(), 2u);
    cluster.crash(3);
    // The stale ack was already in flight when member 3 died: replay it.
    proto::CreditAck stale;
    stale.member = 3;
    stale.cursors = {{/*source=*/0, /*cursor=*/0}};
    cluster.endpoint(0).handle_message(proto::Message{stale}, 3);
    EXPECT_EQ(cluster.endpoint(0).flow().window_floor(), 2u);
    EXPECT_EQ(cluster.endpoint(0).flow().outstanding(), 0u);
    EXPECT_TRUE(cluster.endpoint(0).flow().may_send());
  });
  cluster.run_for(Duration::millis(100));
}

// ---------------------------------------------- partition-safe credit state ----

TEST(FlowEndpointTest, PartitionReleasesSeveredBindingAndHealReseeds) {
  // The fault-injection hardening end to end: member 3 sits behind a dead
  // inbound edge (every link into it drops), so its honest cursor-0 acks
  // wedge the sender at floor 0 — release_stalled_peers never fires for an
  // honest holder, and the stall re-multicasts into 3 keep vanishing. A
  // partition severing 3 must release its binding immediately (the stream
  // un-wedges for the reachable majority), stale acks from either era must
  // be rejected by the connectivity generation, and the heal must re-seed 3
  // at the current floor instead of letting its next genuine cursor-0 ack
  // reopen the whole partition-era stream.
  harness::Cluster cluster(flow_cluster(4, 131, /*window=*/2));
  cluster.set_lossy_members({3}, 1.0);
  constexpr std::size_t kBurst = 8;
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x88));
    }
    EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), 2u);
    EXPECT_EQ(cluster.endpoint(0).queued_sends(), kBurst - 2);
  });
  cluster.schedule_script_after(Duration::millis(60), [&] {
    // The wedge: member 3 honestly reported 0 and can never advance.
    const Endpoint& e = cluster.endpoint(0);
    ASSERT_EQ(e.flow().window_floor(), 0u);
    ASSERT_EQ(e.flow().send_seq(), 2u);
    ASSERT_EQ(e.queued_sends(), kBurst - 2);
    ASSERT_EQ(e.view_generation(), 0u);

    cluster.partition({{3}});
    // The severed binding is released at the partition barrier, not at the
    // next credit tick: the floor recomputes over the reachable peers (both
    // at 2) and the freed credit drains the queue on the spot.
    EXPECT_EQ(e.view_generation(), 1u);
    EXPECT_EQ(e.flow().window_floor(), 2u);
    EXPECT_EQ(e.flow().send_seq(), 4u);
    EXPECT_EQ(e.queued_sends(), kBurst - 4);

    // A pre-partition ack from 3 was still in flight at the cut: stale
    // generation, no credit voice — and its full-buffer report must not
    // install phantom pressure either.
    proto::CreditAck stale;
    stale.member = 3;
    stale.view_gen = 0;
    stale.cursors = {{/*source=*/0, /*cursor=*/0}};
    stale.bytes_in_use = 1000;
    stale.budget_bytes = 1000;
    cluster.endpoint(0).handle_message(proto::Message{stale}, 3);
    EXPECT_EQ(e.flow().window_floor(), 2u);
    EXPECT_FALSE(e.flow().pressured());

    // Even a correctly-stamped ack is mute while its sender is severed.
    stale.view_gen = 1;
    cluster.endpoint(0).handle_message(proto::Message{stale}, 3);
    EXPECT_EQ(e.flow().window_floor(), 2u);
    EXPECT_FALSE(e.flow().pressured());
  });
  cluster.schedule_script_after(Duration::millis(120), [&] {
    const Endpoint& e = cluster.endpoint(0);
    // The reachable majority finished the burst during the partition.
    ASSERT_EQ(e.flow().send_seq(), kBurst);
    ASSERT_EQ(e.queued_sends(), 0u);

    cluster.heal();
    // Heal bumps the generation again and re-seeds 3 at the current floor:
    // the partition-era stream is not reopened.
    EXPECT_EQ(e.view_generation(), 2u);
    EXPECT_EQ(e.flow().window_floor(), kBurst);

    // A partition-era ack from a *reachable* peer, delivered late: only the
    // generation check rejects it (member 1 is in view and unsevered), so
    // this is the regression for the view_gen stamp itself.
    proto::CreditAck stale;
    stale.member = 1;
    stale.view_gen = 1;
    stale.cursors = {{/*source=*/0, /*cursor=*/0}};
    stale.bytes_in_use = 1000;
    stale.budget_bytes = 1000;
    cluster.endpoint(0).handle_message(proto::Message{stale}, 1);
    EXPECT_EQ(e.flow().window_floor(), kBurst);
    EXPECT_FALSE(e.flow().pressured());
    EXPECT_TRUE(e.flow().may_send());
  });
  cluster.schedule_script_after(Duration::millis(160), [&] {
    // Member 3's genuine post-heal acks (current generation, cursor 0 — its
    // inbound edge is still dead) have arrived; the heal-time seed holds
    // the floor against them.
    EXPECT_EQ(cluster.endpoint(0).flow().window_floor(), kBurst);
    EXPECT_TRUE(cluster.endpoint(0).flow().may_send());
  });
  cluster.run_for(Duration::millis(220));
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  // The stream reached everyone the network could actually deliver to.
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    for (MemberId m = 1; m <= 2; ++m) {
      EXPECT_TRUE(cluster.endpoint(m).has_received(MessageId{0, s}))
          << "member " << m << " seq " << s;
    }
  }
}

// ------------------------------------------------------- stall remulticast ----

TEST(FlowEndpointTest, StallRemulticastsWedgingFrameAndRecovers) {
  // With gap-driven recovery disabled and no anti-entropy, a receiver that
  // loses a Data frame has no way to repair it — its cursor wedges the
  // window floor forever. The sender-driven stall retransmission is the
  // last line: after kStallRetransmitTicks quiet ticks it re-multicasts the
  // frame just past the floor (counted by the flow_stall_remcast metric)
  // and the stream un-wedges.
  harness::ClusterConfig cc = flow_cluster(6, 71, /*window=*/2);
  cc.protocol.gap_driven_recovery = false;
  cc.data_loss = 0.2;
  harness::Cluster cluster(cc);
  constexpr std::size_t kBurst = 8;
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x44));
    }
  });
  cluster.run_for(Duration::seconds(5));
  EXPECT_GT(cluster.metrics().counters().flow_stall_remcasts, 0u);
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
}

TEST(FlowEndpointTest, FloorBelowOldestKeptFrameRemulticastsNothing) {
  // The stall re-multicast reads the sender's window by index. Member 3's
  // acks never reach the sender, so members 1-2 alone lift the floor and
  // the window prunes the acknowledged prefix. A late cursor-0 ack from 3
  // then drops the floor below the oldest frame kept: the stalls it causes
  // have nothing to re-multicast (and must read nothing out of range) until
  // the link heals and 3's real cursor reopens the window.
  harness::Cluster cluster(flow_cluster(4, 141, /*window=*/2));
  cluster.set_link_loss(3, 0, 1.0);
  constexpr std::size_t kBurst = 8;
  auto send = [&cluster](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x99));
    }
  };
  std::uint64_t remcasts = 0;
  cluster.schedule_script_after(Duration::millis(1), [&] { send(kBurst / 2); });
  cluster.schedule_script_after(Duration::millis(60), [&] {
    const Endpoint& e = cluster.endpoint(0);
    ASSERT_EQ(e.flow().send_seq(), kBurst / 2);
    // Acknowledged by 1-2 ticks ago: frames 1-4 are pruned from the window.
    ASSERT_EQ(e.flow().window_floor(), kBurst / 2);
    remcasts = cluster.metrics().counters().flow_stall_remcasts;
    proto::CreditAck late;
    late.member = 3;
    late.cursors = {{/*source=*/0, /*cursor=*/0}};
    cluster.endpoint(0).handle_message(proto::Message{late}, 3);
    EXPECT_EQ(e.flow().window_floor(), 0u);
    send(kBurst / 2);
    EXPECT_EQ(e.queued_sends(), kBurst / 2);
  });
  cluster.schedule_script_after(Duration::millis(120), [&] {
    // Twelve wedged credit ticks: the stall path ran, found the wedging
    // frame already pruned, and sent nothing.
    const Endpoint& e = cluster.endpoint(0);
    EXPECT_EQ(e.flow().window_floor(), 0u);
    EXPECT_EQ(e.flow().send_seq(), kBurst / 2);
    EXPECT_EQ(cluster.metrics().counters().flow_stall_remcasts, remcasts);
    cluster.set_link_loss(3, 0, 0.0);
  });
  cluster.run_for(Duration::millis(400));
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
}

TEST(FlowEndpointTest, UnrecoverableJoinerBackfillReleasesInsteadOfDeadlock) {
  // The churn wedge: a member crashes, its pre-crash history is evicted
  // region-wide, and it rejoins mid-stream. Its seeded binding then freezes
  // the floor — its true cursor needs contiguity from frame 1 and the
  // copies are gone, so it can never catch up. Without the stalled-cursor
  // release every sender wedges at floor + window forever.
  harness::Cluster cluster(flow_cluster(6, 111, /*window=*/2));
  constexpr std::size_t kBurst = 40;
  cluster.schedule_script_after(Duration::millis(1), [&] { cluster.crash(5); });
  cluster.schedule_script_after(Duration::millis(2), [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x7E));
    }
  });
  cluster.schedule_script_after(Duration::millis(30), [&] {
    // Erase the head of the stream everywhere before the victim returns:
    // its backfill is now impossible, not merely slow.
    for (MemberId m = 0; m < cluster.size(); ++m) {
      if (m == 5) continue;
      for (std::uint64_t s = 1; s <= 6; ++s) {
        cluster.force_discard(m, MessageId{0, s});
      }
    }
    cluster.rejoin(5);
  });
  cluster.run_for(Duration::seconds(5));
  // The sender finished its whole schedule: the window never deadlocked.
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  EXPECT_GT(cluster.metrics().counters().flow_stall_releases, 0u);
  // The release sacrificed nothing the live members needed: they still
  // hold the full stream.
  for (std::uint64_t s = 7; s <= kBurst; ++s) {
    for (MemberId m = 1; m <= 4; ++m) {
      EXPECT_TRUE(cluster.endpoint(m).has_received(MessageId{0, s}))
          << "member " << m << " seq " << s;
    }
  }
}

// ------------------------------------------------------ cursor piggyback ----

harness::ClusterConfig adaptive_cluster(std::size_t n, std::uint64_t seed) {
  harness::ClusterConfig cc = flow_cluster(n, seed, /*window=*/4);
  cc.protocol.flow.adaptive = true;
  cc.protocol.flow.piggyback = true;
  return cc;
}

TEST(FlowEndpointTest, PiggybackSuppressesCreditAcksWithoutLosingGoodput) {
  // Same schedule and seed, piggyback off vs on: the piggybacked cursors
  // (and the unchanged-cursor suppression for quiet receivers) must remove
  // a substantial share of standalone CreditAck multicasts while every
  // message still reaches every member.
  auto run = [](bool piggyback, std::uint64_t* acks_sent,
                std::uint64_t* suppressed) {
    harness::ClusterConfig cc = flow_cluster(6, 81, /*window=*/4);
    cc.protocol.flow.piggyback = piggyback;
    harness::Cluster cluster(cc);
    constexpr std::size_t kBurst = 12;
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.schedule_script(
          TimePoint::zero() +
              Duration::millis(1 + 2 * static_cast<std::int64_t>(i)),
          [&cluster] {
            // Two interleaved senders: each piggybacks its cursor for the
            // other's stream on its own Data frames.
            cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x55));
            cluster.endpoint(1).multicast(std::vector<std::uint8_t>(32, 0x66));
          });
    }
    cluster.run_for(Duration::seconds(2));
    *acks_sent = cluster.metrics().counters().credit_acks_sent;
    *suppressed = cluster.metrics().counters().credit_acks_suppressed;
    for (std::uint64_t s = 1; s <= kBurst; ++s) {
      EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
      EXPECT_TRUE(cluster.all_received(MessageId{1, s})) << "seq " << s;
    }
  };
  std::uint64_t acks_off = 0, suppressed_off = 0;
  std::uint64_t acks_on = 0, suppressed_on = 0;
  run(false, &acks_off, &suppressed_off);
  run(true, &acks_on, &suppressed_on);
  EXPECT_EQ(suppressed_off, 0u);  // suppression is piggyback-gated
  EXPECT_GT(suppressed_on, 0u);
  EXPECT_LT(acks_on, acks_off);
}

TEST(FlowEndpointTest, AdaptiveBurstDeliversEverything) {
  // AIMD + piggybacking end to end: the window starts at 2 frames, grows
  // through the burst, and the whole stream lands everywhere.
  harness::Cluster cluster(adaptive_cluster(6, 91));
  constexpr std::size_t kBurst = 16;
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x77));
    }
    // The burst outran the AIMD start window of 2.
    EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), 2u);
    EXPECT_EQ(cluster.endpoint(0).queued_sends(), kBurst - 2);
  });
  cluster.run_for(Duration::seconds(3));
  EXPECT_EQ(cluster.endpoint(0).queued_sends(), 0u);
  EXPECT_EQ(cluster.endpoint(0).flow().send_seq(), kBurst);
  // The clean rounds grew the window beyond its starting point.
  EXPECT_GT(cluster.endpoint(0).flow().current_window(), 2u);
  for (std::uint64_t s = 1; s <= kBurst; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
}

}  // namespace
}  // namespace rrmp
