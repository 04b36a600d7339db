// Protocol-behavior tests for the RRMP endpoint, driven through the
// simulated cluster: recovery phases, waiter forwarding, duplicate
// suppression, search details, handoff, stability exchange, lookup modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "harness/cluster.h"

namespace rrmp::harness {
namespace {

ClusterConfig single_region(std::size_t n, std::uint64_t seed) {
  ClusterConfig cc;
  cc.region_sizes = {n};
  cc.seed = seed;
  return cc;
}

// ----------------------------------------------------------- local phase ----

TEST(EndpointRecovery, SingleMissingMemberRecoversLocally) {
  Cluster cluster(single_region(10, 1));
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 9; ++m) holders.push_back(m);  // member 9 misses
  MessageId id = cluster.inject(0, 1, holders);
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_TRUE(cluster.endpoint(9).has_received(id));
  EXPECT_EQ(cluster.endpoint(9).active_recoveries(), 0u);
  // One request was enough (neighbors all had it).
  EXPECT_GE(cluster.metrics().counters().local_requests_sent, 1u);
  EXPECT_EQ(cluster.metrics().counters().remote_requests_sent, 0u);  // root region
}

TEST(EndpointRecovery, ReorderedFrameClosesTheRecoveryItsGapOpened) {
  // The simulated links keep FIFO order, so reordering is pinned here: seq 2
  // of member 0 reaches member 3 before seq 1 does.
  Cluster cluster(single_region(4, 12));
  constexpr MemberId kSource = 0, kReceiver = 3;
  std::size_t wire_requests = 0;  // kReceiver's LocalRequests, as received
  for (MemberId m = 0; m < kReceiver; ++m) {
    cluster.host(m).set_receiver(
        [&, ep = &cluster.endpoint(m)](const proto::Message& msg,
                                       MemberId from) {
          const auto* r = std::get_if<proto::LocalRequest>(&msg);
          if (r != nullptr && r->requester == kReceiver) ++wire_requests;
          ep->handle_message(msg, from);
        });
  }
  std::map<std::uint64_t, int> deliveries;  // seq -> times delivered
  Endpoint& ep = cluster.endpoint(kReceiver);
  ep.set_delivery_handler(
      [&](const proto::Data& d) { ++deliveries[d.id.seq]; });
  auto frame = [](std::uint64_t seq) {
    return proto::Message{
        proto::Data{MessageId{kSource, seq}, {static_cast<std::uint8_t>(seq)}}};
  };

  ep.handle_message(frame(2), kSource);  // the gap at seq 1 opens a recovery
  EXPECT_EQ(ep.active_recoveries(), 1u);
  EXPECT_EQ(cluster.metrics().counters().losses_detected, 1u);
  EXPECT_EQ(cluster.metrics().counters().local_requests_sent, 1u);

  ep.handle_message(frame(1), kSource);  // the late frame closes it
  EXPECT_EQ(ep.active_recoveries(), 0u);
  EXPECT_EQ(cluster.metrics().counters().recoveries, 1u);

  // Its retry timer went with it: no request follows over the next second.
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.metrics().counters().local_requests_sent, 1u);
  EXPECT_EQ(wire_requests, 1u);
  EXPECT_EQ(ep.active_recoveries(), 0u);
  EXPECT_EQ(deliveries, (std::map<std::uint64_t, int>{{1, 1}, {2, 1}}));
}

TEST(EndpointRecovery, RetriesUntilSomeoneHasIt) {
  // Only 1 of 30 members holds the message: most first probes miss, so
  // retries must drive recovery to completion anyway.
  Cluster cluster(single_region(30, 2));
  MessageId id = cluster.inject(0, 1, std::vector<MemberId>{0});
  cluster.run_until_quiet(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
  // With 29 missing members and ~1/30 hit rate, retries were needed.
  EXPECT_GT(cluster.metrics().counters().local_requests_sent, 29u);
}

TEST(EndpointRecovery, RecoveryLatencyGrowsWithScarcity) {
  auto mean_latency = [](std::size_t holders_count, std::uint64_t seed) {
    Cluster cluster(single_region(50, seed));
    std::vector<MemberId> holders;
    for (MemberId m = 0; m < holders_count; ++m) holders.push_back(m);
    cluster.inject(0, 1, holders);
    cluster.run_until_quiet(Duration::seconds(5));
    double total = 0;
    for (Duration d : cluster.metrics().recovery_latencies()) total += d.ms();
    return total /
           static_cast<double>(cluster.metrics().recovery_latencies().size());
  };
  double scarce = mean_latency(1, 3);
  double plentiful = mean_latency(40, 3);
  EXPECT_GT(scarce, plentiful);
}

TEST(EndpointRecovery, MaxAttemptsBoundsLocalRequests) {
  ClusterConfig cc = single_region(5, 4);
  cc.protocol.max_attempts = 3;
  Cluster cluster(cc);
  // Nobody holds the message: member 0 announces seq 1 but no data exists.
  cluster.inject_session_to(0, 1, cluster.region_members(0));
  cluster.run_until_quiet(Duration::seconds(2));
  // 5 members x 3 attempts max (self-exclusion leaves 4 targets); the
  // source member ignores its own session, so 4 members retried.
  EXPECT_LE(cluster.metrics().counters().local_requests_sent, 12u);
  // Recovery tasks gave up but remain open (message genuinely missing).
  EXPECT_GT(cluster.endpoint(1).active_recoveries(), 0u);
}

// ---------------------------------------------------------- remote phase ----

TEST(EndpointRecovery, WaiterForwarding) {
  // Child member asks a parent member that ALSO misses the message; the
  // parent records the waiter and forwards on receipt (§2.2 case 2).
  ClusterConfig cc;
  cc.region_sizes = {2, 1};
  cc.protocol.lambda = 10.0;  // the lone child member always sends remote
  cc.seed = 5;
  Cluster cluster(cc);
  // Parent member 0 holds it; parent member 1 does not; child member 2 not.
  cluster.inject_data_to(0, 1, std::vector<MemberId>{0});
  MessageId id{0, 1};
  // Child detects the loss; its remote request may hit member 0 or 1.
  cluster.inject_session_to(0, 1, std::vector<MemberId>{2});
  // Member 1 learns of the message only later.
  cluster.inject_session_to(0, 1, std::vector<MemberId>{1});
  cluster.run_until_quiet(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
  EXPECT_TRUE(cluster.endpoint(2).has_received(id));
}

TEST(EndpointRecovery, NoRemotePhaseInRootRegion) {
  Cluster cluster(single_region(10, 6));
  cluster.inject(0, 1, std::vector<MemberId>{0});
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_EQ(cluster.metrics().counters().remote_requests_sent, 0u);
}

// The root region has no parent region to ask. When every root member
// loses a message from a sender in another region, the root still recovers
// it, from the sender.
TEST(EndpointRecovery, RootRegionRecoversLossOfAnotherRegionsMessage) {
  ClusterConfig cc;
  cc.region_sizes = {4, 4, 4, 4};
  cc.intra_rtt = Duration::millis(4);
  cc.inter_one_way = Duration::millis(10);
  Cluster cluster(cc);
  const std::vector<MemberId> root = cluster.region_members(0);
  const MessageId lost{4, 5};
  cluster.network().set_data_drop_fn(
      [&](const proto::Message& msg, MemberId to) {
        const auto* d = std::get_if<proto::Data>(&msg);
        return d != nullptr && d->id == lost &&
               std::find(root.begin(), root.end(), to) != root.end();
      });
  for (int i = 0; i < 8; ++i) {
    cluster.endpoint(4).multicast({static_cast<std::uint8_t>(i)});
  }
  cluster.run_for(Duration::seconds(3));
  for (MemberId m = 0; m < cluster.size(); ++m) {
    EXPECT_TRUE(cluster.endpoint(m).has_received(lost)) << "member " << m;
    EXPECT_EQ(cluster.endpoint(m).active_recoveries(), 0u) << "member " << m;
  }
}

TEST(EndpointRecovery, LambdaZeroSendsNoRemoteRequests) {
  ClusterConfig cc;
  cc.region_sizes = {5, 5};
  cc.protocol.lambda = 0.0;
  cc.seed = 7;
  Cluster cluster(cc);
  std::vector<MemberId> parent = cluster.region_members(0);
  cluster.inject_data_to(parent[0], 1, parent);
  cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.metrics().counters().remote_requests_sent, 0u);
  // The regional loss can never be repaired: only remote recovery crosses
  // regions (the paper's motivation for the remote phase).
  EXPECT_FALSE(cluster.all_received(MessageId{parent[0], 1}));
}

// ----------------------------------------------------- repairs and relays ----

TEST(EndpointRepairs, DuplicateRepairsDeliverOnce) {
  Cluster cluster(single_region(20, 8));
  int deliveries = 0;
  cluster.endpoint(5).set_delivery_handler(
      [&](const proto::Data&) { ++deliveries; });
  // 19 holders: member 5's request lands fast; also push a direct repair
  // twice to force the duplicate path.
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 20; ++m) {
    if (m != 5) holders.push_back(m);
  }
  MessageId id = cluster.inject(0, 1, holders);
  proto::Repair dup{id, {0xAB}, false};
  cluster.endpoint(5).handle_message(proto::Message{dup}, 1);
  cluster.endpoint(5).handle_message(proto::Message{dup}, 2);
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_EQ(deliveries, 1);
  EXPECT_TRUE(cluster.endpoint(5).has_received(id));
}

TEST(EndpointRepairs, RemoteRepairTriggersRegionalMulticast) {
  ClusterConfig cc;
  cc.region_sizes = {5, 10};
  cc.protocol.regional_backoff = Duration::zero();
  cc.seed = 9;
  Cluster cluster(cc);
  std::vector<MemberId> parent = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(parent[0], 1, parent);
  cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
  cluster.run_until_quiet(Duration::seconds(3));
  EXPECT_TRUE(cluster.all_received(id));
  EXPECT_GE(cluster.metrics().counters().regional_multicasts, 1u);
  // Every child member got the message although only ~lambda remote
  // requests were sent.
  EXPECT_LT(cluster.metrics().counters().remote_requests_sent, 20u);
}

TEST(EndpointRepairs, LocalRepairDoesNotTriggerRegionalMulticast) {
  Cluster cluster(single_region(10, 10));
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 9; ++m) holders.push_back(m);
  cluster.inject(0, 1, holders);
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_EQ(cluster.metrics().counters().regional_multicasts, 0u);
}

// ------------------------------------------------------------------ search ----

TEST(EndpointSearch, RequestAtBuffererAnswersImmediately) {
  ClusterConfig cc;
  cc.region_sizes = {5, 1};
  cc.seed = 11;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) {
    if (m == 2) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(2, id, requester);
  TimePoint repaired = cluster.metrics().first_remote_repair(id);
  EXPECT_EQ(repaired, cluster.now());  // same instant: no search
  EXPECT_EQ(cluster.metrics().counters().searches_started, 0u);
}

TEST(EndpointSearch, SearchFoundStopsAllSearchers) {
  ClusterConfig cc;
  cc.region_sizes = {30, 1};
  cc.seed = 12;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) {
    if (m == 7) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  cluster.inject_remote_request(3, id, cluster.region_members(1)[0]);
  cluster.run_until_quiet(Duration::seconds(2));
  // Requester served, and nobody is stuck searching.
  EXPECT_TRUE(
      cluster.endpoint(cluster.region_members(1)[0]).has_received(id));
  for (MemberId m : region0) {
    EXPECT_EQ(cluster.endpoint(m).active_searches(), 0u) << "member " << m;
  }
}

TEST(EndpointSearch, NeverReceivedMemberRecordsWaiterAndRecovers) {
  // Footnote 4: a member contacted by the search that never received the
  // message starts its own recovery and forwards on receipt.
  ClusterConfig cc;
  cc.region_sizes = {4, 1};
  cc.seed = 13;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id{region0[0], 1};
  // Members 0,1 received-and-discarded; member 2 holds; member 3 never saw it.
  cluster.inject_data_to(region0[0], 1,
                         std::vector<MemberId>{region0[0], region0[1], region0[2]});
  cluster.force_discard(region0[0], id);
  cluster.force_discard(region0[1], id);
  cluster.force_long_term(region0[2], id);
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(region0[0], id, requester);
  cluster.run_until_quiet(Duration::seconds(2));
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
  EXPECT_TRUE(cluster.endpoint(region0[3]).has_received(id));  // recovered too
}

TEST(EndpointSearch, RemoteRequestForUnknownMessageStartsRecovery) {
  // Case 2 of §3.3: the contacted member never received the message at all.
  ClusterConfig cc = single_region(10, 14);
  // Pin C = n so the lone holder always survives its idle decision; with
  // one slow random prober, a holder can otherwise legitimately idle out
  // before a probe refreshes it (the paper's acknowledged race).
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 10.0;
  Cluster cluster(cc);
  MessageId id{0, 1};
  cluster.inject_data_to(0, 1, std::vector<MemberId>{3});  // only member 3
  // Remote request from a fictitious downstream member id: use member 9 of
  // the same cluster topology as a stand-in requester address.
  cluster.inject_remote_request(5, id, 9);
  cluster.run_until_quiet(Duration::seconds(2));
  // Member 5 recovered the message itself and forwarded it to 9.
  EXPECT_TRUE(cluster.endpoint(5).has_received(id));
  EXPECT_TRUE(cluster.endpoint(9).has_received(id));
  EXPECT_GE(cluster.metrics().counters().remote_repairs_sent, 1u);
}

// ---------------------------------------------------------- request ladder ----

TEST(EndpointLadder, EveryRequestFrameClimbsTheSameLadder) {
  // §3.3's ladder, climbed alike by a RemoteRequest, an Escalate and a
  // SearchRequest: repair from the buffer; else, never received, record a
  // waiter and recover (the waiter is repaired once the message arrives);
  // else, received and discarded, forward to the holder a completed search
  // located.
  enum Frame { kRemoteRequest, kEscalate, kSearchRequest };
  enum State { kBuffered, kNeverReceived, kDiscarded };
  struct Row {
    Frame frame;
    State state;
    std::size_t repairs;   // remote Repairs of the id reaching the requester
    std::size_t found;     // SearchFound{id, target} heard by a region peer
    std::size_t forwards;  // RemoteRequest{id, requester} reaching the holder
    std::size_t waiters;   // at the target, right after the frame
    std::size_t recoveries;
  };
  const Row rows[] = {
      {kRemoteRequest, kBuffered, 1, 0, 0, 0, 0},
      {kRemoteRequest, kNeverReceived, 1, 0, 0, 1, 1},
      {kRemoteRequest, kDiscarded, 0, 0, 1, 0, 0},
      {kEscalate, kBuffered, 1, 0, 0, 0, 0},
      {kEscalate, kNeverReceived, 1, 0, 0, 1, 1},
      {kEscalate, kDiscarded, 0, 0, 1, 0, 0},
      {kSearchRequest, kBuffered, 1, 1, 0, 0, 0},
      {kSearchRequest, kNeverReceived, 1, 0, 0, 1, 1},
      {kSearchRequest, kDiscarded, 0, 0, 1, 0, 0},
  };
  const char* frame_names[] = {"RemoteRequest", "Escalate", "SearchRequest"};
  const char* state_names[] = {"buffered", "never received", "discarded"};
  // Region 0 holds the source, the target and the holder; the requester
  // sits alone in a child region, as a remote requester does.
  constexpr MemberId kSource = 0, kTarget = 1, kHolder = 2, kRequester = 5;
  const MessageId id{kSource, 1};
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(frame_names[row.frame]) + " at a " +
                 state_names[row.state] + " target");
    std::size_t repairs = 0, found = 0, forwards = 0;
    ClusterConfig cc;
    cc.region_sizes = {5, 1};
    cc.seed = 40;
    cc.protocol.hierarchy.enabled = row.frame == kEscalate;
    Cluster cluster(cc);
    if (row.state != kNeverReceived) {
      cluster.inject_data_to(kSource, 1, std::vector<MemberId>{kTarget});
    }
    if (row.state == kDiscarded) {
      cluster.force_discard(kTarget, id);
      cluster.endpoint(kTarget).handle_message(
          proto::Message{proto::SearchFound{id, kHolder}}, kHolder);
    }
    // Tap the requester's and the holder's frames on their way in.
    cluster.host(kRequester)
        .set_receiver([&, ep = &cluster.endpoint(kRequester)](
                          const proto::Message& msg, MemberId from) {
          const auto* r = std::get_if<proto::Repair>(&msg);
          if (r != nullptr && r->id == id && r->remote) ++repairs;
          ep->handle_message(msg, from);
        });
    cluster.host(kHolder).set_receiver(
        [&, ep = &cluster.endpoint(kHolder)](const proto::Message& msg,
                                             MemberId from) {
          const auto* f = std::get_if<proto::SearchFound>(&msg);
          if (f != nullptr && f->id == id && f->holder == kTarget) ++found;
          const auto* q = std::get_if<proto::RemoteRequest>(&msg);
          if (q != nullptr && q->id == id && q->requester == kRequester) {
            ++forwards;
          }
          ep->handle_message(msg, from);
        });
    Endpoint& target = cluster.endpoint(kTarget);
    switch (row.frame) {
      case kRemoteRequest:
        target.handle_message(
            proto::Message{proto::RemoteRequest{id, kRequester}}, kRequester);
        break;
      case kEscalate:
        target.handle_message(
            proto::Message{proto::Escalate{id, kRequester, 0}}, kRequester);
        break;
      case kSearchRequest:
        target.handle_message(
            proto::Message{proto::SearchRequest{id, kRequester}}, kHolder);
        break;
    }
    EXPECT_EQ(target.waiter_count(), row.waiters);
    EXPECT_EQ(target.active_recoveries(), row.recoveries);
    if (row.state == kNeverReceived) {
      // The message turns up: the target serves its waiter.
      cluster.inject_data_to(kSource, 1, std::vector<MemberId>{kTarget});
    }
    cluster.run_for(Duration::millis(100));  // > the 50 ms inter-region hop
    EXPECT_EQ(repairs, row.repairs);
    EXPECT_EQ(found, row.found);
    EXPECT_EQ(forwards, row.forwards);
  }
}

// ------------------------------------------------------------- hash-direct ----

TEST(EndpointHashDirect, RecoveryTargetsHashBufferers) {
  ClusterConfig cc = single_region(20, 15);
  cc.policy = buffer::HashBasedParams{4, Duration::millis(40)};
  Cluster cluster(cc);
  std::vector<MemberId> all = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(0, 1, all);
  cluster.run_for(Duration::millis(100));  // grace expires at non-bufferers
  // Exactly the k hash-selected members still buffer.
  EXPECT_EQ(cluster.count_buffered(id), 4u);
  auto expected = buffer::hash_bufferers(id, all, 4);
  for (MemberId m : expected) {
    EXPECT_TRUE(cluster.endpoint(m).buffer().has(id)) << "member " << m;
  }
  // A late joiner-style miss: someone who never got it can fetch it straight
  // from the hashed set without any search.
  ClusterConfig cc2 = cc;
  (void)cc2;
  std::size_t searches_before = cluster.metrics().counters().searches_started;
  cluster.inject_session_to(0, 1, std::vector<MemberId>{});  // no-op guard
  EXPECT_EQ(cluster.metrics().counters().searches_started, searches_before);
}

TEST(EndpointHashDirect, MissingMemberRecoversViaHashedSetWithoutSearch) {
  ClusterConfig cc = single_region(20, 16);
  cc.policy = buffer::HashBasedParams{4};
  Cluster cluster(cc);
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 19; ++m) holders.push_back(m);  // member 19 misses
  MessageId id = cluster.inject(0, 1, holders);
  cluster.run_for(Duration::millis(200));
  EXPECT_TRUE(cluster.endpoint(19).has_received(id));
  EXPECT_EQ(cluster.metrics().counters().searches_started, 0u);
}

// --------------------------------------------------------------- stability ----

TEST(EndpointStability, HistoryExchangeDiscardsStableMessages) {
  ClusterConfig cc = single_region(8, 17);
  cc.policy = buffer::StabilityParams{};
  Cluster cluster(cc);
  std::vector<MemberId> all = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(0, 1, all);  // everyone has it
  EXPECT_EQ(cluster.count_buffered(id), 8u);
  cluster.run_for(Duration::millis(100));  // several history rounds
  // Stability can only mark seq < next_expected... seq 1 becomes stable once
  // everyone reports next_expected = 2.
  EXPECT_EQ(cluster.count_buffered(id), 0u);
  EXPECT_GT(cluster.network().stats().sends_by_type[static_cast<int>(
                proto::MessageType::kHistory)],
            0u);
}

TEST(EndpointStability, UnstableMessageIsKept) {
  ClusterConfig cc = single_region(8, 18);
  cc.policy = buffer::StabilityParams{};
  cc.protocol.max_attempts = 1;  // keep the missing member from recovering
  cc.control_loss = 1.0;         // all requests/repairs lost
  Cluster cluster(cc);
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 7; ++m) holders.push_back(m);  // member 7 misses
  MessageId id = cluster.inject(0, 1, holders);
  cluster.run_for(Duration::millis(150));
  // History multicasts are also lost under control_loss=1, so nothing can
  // be declared stable; everyone keeps buffering.
  EXPECT_EQ(cluster.count_buffered(id), 7u);
}

// ------------------------------------------------------------ housekeeping ----

TEST(EndpointLifecycle, SenderDeliversAndBuffersOwnMessage) {
  Cluster cluster(single_region(5, 19));
  MessageId id = cluster.endpoint(0).multicast({1, 2, 3});
  EXPECT_TRUE(cluster.endpoint(0).has_received(id));
  EXPECT_TRUE(cluster.endpoint(0).buffer().has(id));
  cluster.run_for(Duration::millis(20));
  EXPECT_TRUE(cluster.all_received(id));
}

TEST(EndpointLifecycle, SessionMessagesExposeTailLoss) {
  ClusterConfig cc = single_region(6, 20);
  cc.protocol.session_interval = Duration::millis(20);
  cc.data_loss = 1.0;  // initial multicast loses EVERYTHING
  Cluster cluster(cc);
  MessageId id = cluster.endpoint(0).multicast({9});
  cluster.run_for(Duration::millis(200));
  // Nobody got the data, but session messages (also via ip_multicast with
  // loss 1.0)... never arrive either. So nothing recovered:
  EXPECT_FALSE(cluster.all_received(id));
  // Retry with partial loss: sessions eventually get through.
  ClusterConfig cc2 = single_region(6, 21);
  cc2.protocol.session_interval = Duration::millis(20);
  cc2.data_loss = 0.8;
  Cluster c2(cc2);
  MessageId id2 = c2.endpoint(0).multicast({9});
  c2.run_for(Duration::seconds(2));
  EXPECT_TRUE(c2.all_received(id2));
}

TEST(EndpointLifecycle, HaltStopsAllActivity) {
  Cluster cluster(single_region(10, 22));
  cluster.inject_session_to(0, 1, std::vector<MemberId>{5});  // 5 now recovering
  EXPECT_EQ(cluster.endpoint(5).active_recoveries(), 1u);
  cluster.endpoint(5).halt();
  EXPECT_FALSE(cluster.endpoint(5).active());
  EXPECT_EQ(cluster.endpoint(5).active_recoveries(), 0u);
  std::uint64_t sends = cluster.network().stats().sends;
  cluster.run_for(Duration::seconds(1));
  EXPECT_EQ(cluster.network().stats().sends, sends);  // silence after halt
}

TEST(EndpointLifecycle, HaltedMemberMulticastsNothing) {
  // The network only detaches a crashed member's receive handler, so a
  // frame it still multicast would be stored, delivered locally and reach
  // every live member. A halted endpoint must send nothing, flow control
  // on or off.
  for (bool flow : {false, true}) {
    SCOPED_TRACE(flow ? "flow on" : "flow off");
    ClusterConfig cc = single_region(6, 27);
    cc.protocol.flow.enabled = flow;
    Cluster cluster(cc);
    cluster.crash(0);
    std::uint64_t delivered = cluster.metrics().counters().delivered;
    std::uint64_t sends = cluster.network().stats().sends;
    MessageId id = cluster.endpoint(0).multicast({1, 2, 3});
    EXPECT_EQ(id, (MessageId{0, 0}));
    EXPECT_FALSE(cluster.endpoint(0).has_received(MessageId{0, 1}));
    EXPECT_EQ(cluster.metrics().counters().delivered, delivered);
    EXPECT_EQ(cluster.network().stats().sends, sends);
    cluster.run_for(Duration::millis(100));
    for (MemberId m = 1; m < 6; ++m) {
      EXPECT_FALSE(cluster.endpoint(m).has_received(MessageId{0, 1}));
    }
  }
}

TEST(EndpointLifecycle, LeaveTransfersLongTermBuffers) {
  Cluster cluster(single_region(10, 23));
  std::vector<MemberId> all = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(0, 1, all);
  cluster.force_long_term(3, id);
  for (MemberId m : all) {
    if (m != 3) cluster.force_discard(m, id);
  }
  EXPECT_EQ(cluster.count_buffered(id), 1u);
  cluster.leave(3);
  cluster.run_for(Duration::millis(50));
  // Some surviving member inherited the message as a long-term copy.
  EXPECT_EQ(cluster.count_buffered(id), 1u);
  EXPECT_EQ(cluster.count_long_term(id), 1u);
  EXPECT_FALSE(cluster.directory().alive(3));
  EXPECT_EQ(cluster.metrics().counters().handoffs, 1u);
}

TEST(EndpointLifecycle, MissingFromIntrospection) {
  Cluster cluster(single_region(4, 24));
  cluster.inject_session_to(0, 3, std::vector<MemberId>{1});
  auto missing = cluster.endpoint(1).missing_from(0);
  EXPECT_EQ(missing, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EndpointLifecycle, CrashLeavesNoTimerPending) {
  // Two-phase buffering arms one timer per stored entry: an idle check,
  // then a long-term TTL check. A crash must cancel those along with the
  // endpoint's own timers, so nothing can fire for the halted member.
  ClusterConfig cc = single_region(8, 28);
  cc.policy = buffer::TwoPhaseParams{Duration::millis(40), 6.0,
                                     Duration::millis(100)};
  Cluster cluster(cc);
  cluster.endpoint(0).multicast({1});
  cluster.run_for(Duration::millis(44));  // idle checks ran; TTL checks armed
  cluster.endpoint(0).multicast({2});
  cluster.run_for(Duration::millis(8));  // delivered; idle checks pending
  sim::Simulator& lane = cluster.network().lane_sim(0);
  EXPECT_GT(lane.pending_count(), 0u);
  for (MemberId m = 0; m < 8; ++m) cluster.crash(m);
  EXPECT_EQ(lane.pending_count(), 0u);
}

TEST(EndpointLifecycle, RejoinedMemberGetsFreshEndpoint) {
  Cluster cluster(single_region(6, 26));
  MessageId id = cluster.inject_data_to(0, 1, cluster.region_members(0));
  cluster.crash(2);
  EXPECT_FALSE(cluster.directory().alive(2));
  cluster.rejoin(2);
  EXPECT_TRUE(cluster.directory().alive(2));
  EXPECT_FALSE(cluster.endpoint(2).has_received(id));  // fresh state
  // The rejoined member participates again: a session hint brings the
  // old message in from survivors' buffers.
  cluster.inject_session_to(0, 1, std::vector<MemberId>{2});
  cluster.run_until_quiet(Duration::seconds(2));
  EXPECT_TRUE(cluster.endpoint(2).has_received(id));
}

// ------------------------------------------------------- session heartbeat ----

TEST(SessionHeartbeat, IdleSenderBacksOffAndSnapsBack) {
  // LBRM's variable heartbeat: once the sender has nothing new, each
  // Session doubles the spacing to the next, up to kMaxSessionBackoff
  // intervals. A new frame brings the next Session within one interval and
  // restarts the doubling.
  ClusterConfig cc = single_region(4, 29);
  const Duration interval = Duration::millis(20);
  cc.protocol.session_interval = interval;
  Cluster cluster(cc);
  struct Heard {
    TimePoint at;
    std::uint64_t highest;
  };
  std::vector<Heard> heard;  // Sessions at member 1; outlives the tap
  Endpoint* ep = &cluster.endpoint(1);
  SimHost* host = &cluster.host(1);
  host->set_receiver([ep, host, &heard](const proto::Message& msg,
                                        MemberId from) {
    if (const auto* s = std::get_if<proto::Session>(&msg)) {
      heard.push_back({host->now(), s->highest_seq});
    }
    ep->handle_message(msg, from);
  });
  cluster.schedule_script_after(Duration::millis(1), [&] {
    for (std::uint8_t i = 0; i < 3; ++i) cluster.endpoint(0).multicast({i});
  });
  TimePoint fourth;
  cluster.schedule_script_after(Duration::millis(500), [&] {
    fourth = cluster.now();
    cluster.endpoint(0).multicast({3});
  });
  cluster.run_for(Duration::millis(700));

  auto first_of_4 = std::find_if(heard.begin(), heard.end(),
                                 [](const Heard& h) { return h.highest == 4; });
  ASSERT_NE(first_of_4, heard.end());
  const std::size_t snap = static_cast<std::size_t>(first_of_4 - heard.begin());
  // Idle: 20, 40, 80 ms, then the 4x cap for as long as nothing is new.
  ASSERT_GE(snap, 6u);
  const Duration idle_gaps[] = {interval, interval * 2, interval * 4};
  for (std::size_t i = 1; i < snap; ++i) {
    EXPECT_EQ(heard[i].highest, 3u) << "session " << i;
    EXPECT_EQ(heard[i].at - heard[i - 1].at,
              idle_gaps[std::min<std::size_t>(i - 1, 2)])
        << "gap before session " << i;
  }
  // The 4th frame snaps the heartbeat back: its Session is sent within one
  // interval (and arrives one intra-region hop later), then the gaps
  // double again from 20 ms.
  EXPECT_LE(first_of_4->at - fourth, interval + cc.intra_rtt / 2);
  ASSERT_GE(heard.size(), snap + 4);
  for (std::size_t i = snap + 1; i < snap + 4; ++i) {
    EXPECT_EQ(heard[i].highest, 4u) << "session " << i;
    EXPECT_EQ(heard[i].at - heard[i - 1].at, idle_gaps[i - snap - 1])
        << "gap before session " << i;
  }
}


// ----------------------------------------------------------- buffer digest ----

TEST(DigestCadence, ChangedDigestRepeatsOnceThenKeepsAlive) {
  // A BufferDigest goes out on the tick its content changes (the first
  // tick counts), once more on the next, then only as a keep-alive every
  // kDigestKeepAliveTicks ticks. Tables age once per keep-alive period: a
  // quiet but connected peer never ages out, and a severed one leaves 13-16
  // ticks after its last digest arrived.
  static_assert(buffer::kDigestKeepAliveTicks == 4);
  static_assert(buffer::kMaxMissedDigests == 3);
  constexpr std::size_t kMembers = 4;
  ClusterConfig cc = single_region(kMembers, 31);
  const Duration tick = Duration::millis(20);
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = tick;
  cc.policy = buffer::BufferEverythingParams{};  // a stored frame stays
  Cluster cluster(cc);
  const Duration hop = cc.intra_rtt / 2;
  // Every member ticks at tick * (k + 1) for k = 0, 1, ...; its digests
  // arrive one hop later. Tap each member's digests on their way in.
  struct Heard {
    MemberId from;
    TimePoint at;
  };
  std::vector<std::vector<Heard>> heard(kMembers);  // outlives the taps
  for (MemberId m = 0; m < kMembers; ++m) {
    SimHost* host = &cluster.host(m);
    host->set_receiver([ep = &cluster.endpoint(m), host, log = &heard[m]](
                           const proto::Message& msg, MemberId from) {
      if (const auto* d = std::get_if<proto::BufferDigest>(&msg)) {
        log->push_back({d->member, host->now()});
      }
      ep->handle_message(msg, from);
    });
  }
  // The ticks of member 1's digests that member 0 heard from `since` on.
  auto ticks_heard = [&](TimePoint since) {
    std::vector<std::int64_t> ticks;
    for (const Heard& h : heard[0]) {
      if (h.from != 1 || h.at < since) continue;
      EXPECT_EQ((h.at.us() - hop.us()) % tick.us(), 0) << h.at;
      ticks.push_back((h.at.us() - hop.us()) / tick.us() - 1);
    }
    return ticks;
  };

  // No data: the first tick is a change, then the repeat and keep-alives.
  cluster.run_for(Duration::millis(290));
  EXPECT_EQ(ticks_heard(TimePoint::zero()),
            (std::vector<std::int64_t>{0, 1, 4, 8, 12}));

  // A multicast changes every buffer: member 1 stores the frame at 295 ms,
  // so tick 14 (300 ms) sends, 15 repeats, and keep-alives follow.
  const TimePoint sent = cluster.now();
  cluster.endpoint(0).multicast({1});
  cluster.run_for(Duration::millis(300));
  EXPECT_EQ(ticks_heard(sent), (std::vector<std::int64_t>{14, 15, 18, 22, 26}));

  // Through 2 s of quiet every member keeps a row for each of its 3 peers.
  for (int ms = 0; ms < 2000; ++ms) {
    cluster.run_for(Duration::millis(1));
    for (MemberId m = 0; m < kMembers; ++m) {
      ASSERT_EQ(cluster.endpoint(m).buffer().digests().peer_count(),
                kMembers - 1)
          << "member " << m << " at " << cluster.now();
    }
  }

  // Cut member 3 off between ticks, with no digest in flight. Each
  // survivor drops its row at its 13th to 16th tick after member 3's last
  // digest arrived: more than 12 and at most 16 ticks later.
  constexpr MemberId kCut = 3;
  cluster.partition({{0, 1, 2}, {kCut}});
  std::vector<TimePoint> dropped(kCut, TimePoint::max());
  for (int ms = 0; ms < 500; ++ms) {
    cluster.run_for(Duration::millis(1));
    for (MemberId m = 0; m < kCut; ++m) {
      if (dropped[m] == TimePoint::max() &&
          !cluster.endpoint(m).buffer().digests().has_peer(kCut)) {
        dropped[m] = cluster.now();
      }
    }
  }
  for (MemberId m = 0; m < kCut; ++m) {
    SCOPED_TRACE("survivor " + std::to_string(m));
    auto last = std::find_if(heard[m].rbegin(), heard[m].rend(),
                             [](const Heard& h) { return h.from == kCut; });
    ASSERT_NE(last, heard[m].rend());
    ASSERT_NE(dropped[m], TimePoint::max());
    EXPECT_GT(dropped[m] - last->at, tick * 12);
    EXPECT_LE(dropped[m] - last->at, tick * 16);
    EXPECT_EQ(cluster.endpoint(m).buffer().digests().peer_count(), 2u);
  }
}

TEST(DigestSharing, EveryPeerRowSharesTheSendersRuns) {
  // A region multicast is prepared once per fan-out, and a DigestTable row
  // keeps a reference to the digest's runs: after one tick, every member's
  // row for member m is one allocation, not one copy per receiver.
  constexpr std::size_t kMembers = 4;
  ClusterConfig cc = single_region(kMembers, 37);
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(20);
  cc.policy = buffer::BufferEverythingParams{};  // a stored frame stays
  Cluster cluster(cc);
  const MessageId id = cluster.endpoint(0).multicast({1});
  // The first tick fires at 20 ms and its digests arrive one hop (5 ms)
  // later; the second tick is at 40 ms.
  cluster.run_for(Duration::millis(30));
  using Runs = SharedArray<proto::DigestRange>;
  for (MemberId m = 0; m < kMembers; ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    std::vector<Runs> rows;
    for (MemberId p = 0; p < kMembers; ++p) {
      if (p == m) continue;
      rows.push_back(cluster.endpoint(p).buffer().digests().ranges_of(m));
    }
    EXPECT_EQ(rows[0], (Runs{{id.source, id.seq, 1}}));
    for (const Runs& row : rows) EXPECT_TRUE(row.shares_owner_with(rows[0]));
  }
}

}  // namespace
}  // namespace rrmp::harness
