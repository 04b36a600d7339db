// Unit tests for the RecordingSink: first-repair and last-delivery
// tracking, per-id counters, and the deterministic merge of lane sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "rrmp/metrics.h"

namespace rrmp {
namespace {

MessageId id(std::uint64_t seq) { return MessageId{1, seq}; }
TimePoint at(std::int64_t ms) {
  return TimePoint::zero() + Duration::millis(ms);
}

TEST(RecordingSinkTest, FirstRemoteRepairKeepsEarliest) {
  RecordingSink sink;
  EXPECT_EQ(sink.first_remote_repair(id(1)), TimePoint::max());
  sink.on_repair_sent(1, id(1), /*remote=*/true, at(30));
  sink.on_repair_sent(2, id(1), /*remote=*/true, at(20));
  sink.on_repair_sent(3, id(1), /*remote=*/true, at(40));
  EXPECT_EQ(sink.first_remote_repair(id(1)), at(20));
  // Local repairs do not count toward remote tracking.
  sink.on_repair_sent(4, id(2), /*remote=*/false, at(5));
  EXPECT_EQ(sink.first_remote_repair(id(2)), TimePoint::max());
  EXPECT_EQ(sink.counters().repairs_sent, 4u);
  EXPECT_EQ(sink.counters().remote_repairs_sent, 3u);
}

TEST(RecordingSinkTest, RequestCountersSplitLocalRemote) {
  RecordingSink sink;
  sink.on_request_sent(1, id(1), /*remote=*/false, at(1));
  sink.on_request_sent(1, id(1), /*remote=*/true, at(2));
  sink.on_request_sent(2, id(1), /*remote=*/true, at(3));
  EXPECT_EQ(sink.counters().local_requests_sent, 1u);
  EXPECT_EQ(sink.counters().remote_requests_sent, 2u);
  EXPECT_EQ(sink.remote_requests_for(id(1)), 2u);
  EXPECT_EQ(sink.remote_requests_for(id(2)), 0u);
}

TEST(RecordingSinkTest, RecoveryLatenciesAccumulate) {
  RecordingSink sink;
  sink.on_recovered(1, id(1), at(30), Duration::millis(12));
  sink.on_recovered(2, id(1), at(35), Duration::millis(18));
  ASSERT_EQ(sink.recovery_latencies().size(), 2u);
  EXPECT_EQ(sink.recovery_latencies()[0], Duration::millis(12));
  EXPECT_EQ(sink.counters().recoveries, 2u);
}

TEST(RecordingSinkTest, LastDeliveryKeepsLatest) {
  RecordingSink sink;
  EXPECT_EQ(sink.last_delivery(id(1)), TimePoint::zero());
  sink.on_delivered(1, id(1), at(30));
  sink.on_delivered(2, id(1), at(40));
  sink.on_delivered(3, id(1), at(20));
  sink.on_delivered(5, id(2), at(7));
  EXPECT_EQ(sink.last_delivery(id(1)), at(40));
  EXPECT_EQ(sink.last_delivery(id(2)), at(7));
  EXPECT_EQ(sink.last_delivery(id(3)), TimePoint::zero());
  EXPECT_EQ(sink.counters().delivered, 4u);
}

TEST(RecordingSinkTest, ClearResetsEverything) {
  RecordingSink sink;
  sink.on_delivered(1, id(1), at(1));
  sink.on_recovered(1, id(1), at(1), Duration::millis(1));
  sink.on_request_sent(1, id(1), /*remote=*/true, at(1));
  sink.on_repair_sent(1, id(1), true, at(2));
  sink.clear();
  EXPECT_EQ(sink.counters().delivered, 0u);
  EXPECT_TRUE(sink.recovery_latencies().empty());
  EXPECT_EQ(sink.remote_requests_for(id(1)), 0u);
  EXPECT_EQ(sink.last_delivery(id(1)), TimePoint::zero());
  EXPECT_EQ(sink.first_remote_repair(id(1)), TimePoint::max());
}

// ---- merge ---------------------------------------------------------------

/// One call of recording method `method` (an index into record()'s switch).
struct Scripted {
  TimePoint at;
  int method;
  MemberId member;
  MessageId id;
};

constexpr int kMethods = 18;

// The two repair kinds come last, so repairs_sent (their sum) ends at a
// total no other counter shares in MergeEqualsRecordingIntoOneSink.
void record(RecordingSink& s, const Scripted& e) {
  const MemberId m = e.member;
  const MessageId& i = e.id;
  const TimePoint t = e.at;
  switch (e.method) {
    case 0: return s.on_delivered(m, i, t);
    case 1: return s.on_loss_detected(m, i, t);
    case 2: return s.on_recovered(m, i, t, Duration::micros(t.us() + m));
    case 3: return s.on_request_sent(m, i, /*remote=*/false, t);
    case 4: return s.on_request_sent(m, i, /*remote=*/true, t);
    case 5: return s.on_search_started(m, i, t);
    case 6: return s.on_search_hop(m, m + 10, i, t);
    case 7: return s.on_search_completed(m, i, t);
    case 8: return s.on_regional_multicast(m, i, t);
    case 9: return s.on_relay_suppressed(m, i, t);
    case 10: return s.on_handoff_sent(m, m + 10, 2, t);
    case 11: return s.on_send_deferred(m, i, t);
    case 12: return s.on_credit_ack_sent(m, t);
    case 13: return s.on_credit_ack_suppressed(m, t);
    case 14: return s.on_flow_stall_remcast(m, i, t);
    case 15: return s.on_flow_stall_release(m, t);
    case 16: return s.on_repair_sent(m, i, /*remote=*/false, t);
    case 17: return s.on_repair_sent(m, i, /*remote=*/true, t);
  }
}

// One lane's script: four rounds `period_ms` apart. Each round calls method
// k `scale * (k + 1)` times, alternating between `first_member` and
// `first_member + 2`, all for message seq (round + seq_offset) % 3.
std::vector<Scripted> lane_script(std::int64_t period_ms,
                                  MemberId first_member,
                                  std::uint64_t seq_offset, int scale) {
  std::vector<Scripted> out;
  for (std::int64_t r = 0; r < 4; ++r) {
    const MessageId msg{7, (static_cast<std::uint64_t>(r) + seq_offset) % 3};
    for (int k = 0; k < kMethods; ++k) {
      for (int n = 0; n < scale * (k + 1); ++n) {
        out.push_back(Scripted{at(period_ms * r), k,
                               first_member + 2 * static_cast<MemberId>(n % 2),
                               msg});
      }
    }
  }
  return out;
}

TEST(RecordingSinkTest, MergeEqualsRecordingIntoOneSink) {
  // Two lanes with disjoint members (odd in a, even in b) ticking every 2
  // and every 3 ms, so they share timestamps 0 and 6. b sends twice as many
  // of every event, so each counter's total is distinct and a field summed
  // from the wrong input shows.
  const std::vector<Scripted> script_a = lane_script(2, 1, 0, 1);
  const std::vector<Scripted> script_b = lane_script(3, 2, 1, 2);
  RecordingSink a;
  RecordingSink b;
  for (const Scripted& e : script_a) record(a, e);
  for (const Scripted& e : script_b) record(b, e);

  // One sink that recorded both scripts in time order, ties to lane a.
  std::vector<Scripted> both_scripts;
  std::merge(script_a.begin(), script_a.end(), script_b.begin(),
             script_b.end(), std::back_inserter(both_scripts),
             [](const Scripted& x, const Scripted& y) { return x.at < y.at; });
  RecordingSink both;
  for (const Scripted& e : both_scripts) record(both, e);

  const RecordingSink* lanes[] = {&a, &b};
  const RecordingSink merged = RecordingSink::merge(lanes);
  EXPECT_EQ(merged.counters(), both.counters());
  // Latencies concatenate in input order rather than by time.
  std::vector<Duration> latencies = a.recovery_latencies();
  latencies.insert(latencies.end(), b.recovery_latencies().begin(),
                   b.recovery_latencies().end());
  EXPECT_EQ(merged.recovery_latencies(), latencies);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    const MessageId msg{7, seq};
    EXPECT_EQ(merged.first_remote_repair(msg), both.first_remote_repair(msg));
    EXPECT_EQ(merged.remote_requests_for(msg), both.remote_requests_for(msg));
    EXPECT_GT(merged.remote_requests_for(msg), 0u);
    EXPECT_EQ(merged.last_delivery(msg), both.last_delivery(msg));
  }
  // The earliest remote repair of seq 0 is lane a's, of seq 1 lane b's.
  EXPECT_LT(a.first_remote_repair(MessageId{7, 0}),
            b.first_remote_repair(MessageId{7, 0}));
  EXPECT_LT(b.first_remote_repair(MessageId{7, 1}),
            a.first_remote_repair(MessageId{7, 1}));
  // The latest delivery of seq 2 is lane a's, of seq 1 lane b's.
  EXPECT_GT(a.last_delivery(MessageId{7, 2}), b.last_delivery(MessageId{7, 2}));
  EXPECT_GT(b.last_delivery(MessageId{7, 1}), a.last_delivery(MessageId{7, 1}));
}

}  // namespace
}  // namespace rrmp
