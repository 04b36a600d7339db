// FaultScript: the key=value spec parser (grammar, diagnostics), the
// builder/parse equivalence, schedule-time id validation, and the
// scripted-equals-programmatic determinism contract.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "harness/cluster.h"
#include "harness/fault_script.h"

namespace rrmp::harness {
namespace {

using Kind = FaultEvent::Kind;

// ------------------------------------------------------------------ parse ----

TEST(FaultScriptParseTest, FullGrammarRoundTrips) {
  const char* spec = R"(
# comment-only line, then a blank one

at=0      event=link-loss  members=2,4-6 rate=0.3   # trailing comment
at=1500us event=crash      members=1
at=20ms   event=control-loss rate=0.5
at=35     event=data-loss  rate=0.125 members=0
at=40ms   event=partition  groups=0-2|3,5
at=60ms   event=data-loss  rate=0
at=80ms   event=heal
at=1s     event=rejoin     members=1
at=2s     event=leave      members=6
at=3s     event=link-loss  members=3 rate=1 src=0
)";
  std::string error;
  std::optional<FaultScript> script = FaultScript::parse(spec, &error);
  ASSERT_TRUE(script.has_value()) << error;
  ASSERT_EQ(script->size(), 10u);
  const std::vector<FaultEvent>& ev = script->events();

  EXPECT_EQ(ev[0].kind, Kind::kLinkLoss);
  EXPECT_EQ(ev[0].at, TimePoint::zero());
  EXPECT_EQ(ev[0].members, (std::vector<MemberId>{2, 4, 5, 6}));
  EXPECT_EQ(ev[0].rate, 0.3);
  EXPECT_EQ(ev[0].src, kInvalidMember);

  EXPECT_EQ(ev[1].kind, Kind::kCrash);
  EXPECT_EQ(ev[1].at, TimePoint::from_us(1500));
  EXPECT_EQ(ev[1].members, (std::vector<MemberId>{1}));

  EXPECT_EQ(ev[2].kind, Kind::kControlLoss);
  EXPECT_EQ(ev[2].at, TimePoint::zero() + Duration::millis(20));
  EXPECT_EQ(ev[2].rate, 0.5);

  // No suffix defaults to milliseconds; data-loss scoped to one sender.
  EXPECT_EQ(ev[3].kind, Kind::kDataLoss);
  EXPECT_EQ(ev[3].at, TimePoint::zero() + Duration::millis(35));
  EXPECT_EQ(ev[3].rate, 0.125);
  EXPECT_EQ(ev[3].members, (std::vector<MemberId>{0}));

  EXPECT_EQ(ev[4].kind, Kind::kPartition);
  ASSERT_EQ(ev[4].groups.size(), 2u);
  EXPECT_EQ(ev[4].groups[0], (std::vector<MemberId>{0, 1, 2}));
  EXPECT_EQ(ev[4].groups[1], (std::vector<MemberId>{3, 5}));

  // Unscoped data-loss: empty member list = every sender.
  EXPECT_EQ(ev[5].kind, Kind::kDataLoss);
  EXPECT_EQ(ev[5].rate, 0.0);
  EXPECT_TRUE(ev[5].members.empty());

  EXPECT_EQ(ev[6].kind, Kind::kHeal);

  EXPECT_EQ(ev[7].kind, Kind::kRejoin);
  EXPECT_EQ(ev[7].at, TimePoint::zero() + Duration::seconds(1));

  EXPECT_EQ(ev[8].kind, Kind::kLeave);

  EXPECT_EQ(ev[9].kind, Kind::kLinkLoss);
  EXPECT_EQ(ev[9].rate, 1.0);
  EXPECT_EQ(ev[9].src, MemberId{0});
}

TEST(FaultScriptParseTest, EmptyAndCommentOnlySpecsParseToEmptyScript) {
  std::optional<FaultScript> script = FaultScript::parse("");
  ASSERT_TRUE(script.has_value());
  EXPECT_TRUE(script->empty());

  script = FaultScript::parse("# nothing here\n\n   \t\n# still nothing\n");
  ASSERT_TRUE(script.has_value());
  EXPECT_TRUE(script->empty());
}

TEST(FaultScriptParseTest, ParseEquivalentToBuilders) {
  const char* spec =
      "at=10ms event=crash members=3,4\n"
      "at=20ms event=partition groups=0-1|2-4\n"
      "at=30ms event=heal\n"
      "at=40ms event=rejoin members=3,4\n"
      "at=50ms event=link-loss members=2 rate=0.25 src=1\n"
      "at=60ms event=data-loss rate=0.1\n"
      "at=70ms event=control-loss rate=0.2\n";
  std::optional<FaultScript> parsed = FaultScript::parse(spec);
  ASSERT_TRUE(parsed.has_value());

  TimePoint t0 = TimePoint::zero();
  FaultScript built;
  built.crash(t0 + Duration::millis(10), {3, 4})
      .partition(t0 + Duration::millis(20), {{0, 1}, {2, 3, 4}})
      .heal(t0 + Duration::millis(30))
      .rejoin(t0 + Duration::millis(40), {3, 4})
      .link_loss(t0 + Duration::millis(50), {2}, 0.25, /*src=*/1)
      .data_loss(t0 + Duration::millis(60), 0.1)
      .control_loss(t0 + Duration::millis(70), 0.2);
  EXPECT_EQ(parsed->events(), built.events());
}

TEST(FaultScriptParseTest, MalformedSpecsFailWithLineNumbers) {
  struct Case {
    const char* spec;
    const char* error_substr;
  };
  const Case cases[] = {
      {"at=10ms\n", "line 1: missing event="},
      {"event=heal\n", "line 1: missing at="},
      {"at=10ms event=explode\n", "line 1: unknown event 'explode'"},
      {"at=10ms event=crash\n", "line 1: missing members="},
      {"# fine\nat=10ms event=crash members=\n", "line 2: empty member list"},
      {"at=10ms event=crash members=5-3\n", "line 1: descending range"},
      {"at=10ms event=crash members=1,,2\n", "line 1: empty member list item"},
      {"at=10ms event=crash members=x\n", "line 1: bad member id 'x'"},
      {"at= event=heal\n", "line 1: bad time (empty value)"},
      {"at=10q event=heal\n", "line 1: bad time"},
      {"at=10ms event=data-loss\n", "line 1: missing rate="},
      {"at=10ms event=data-loss rate=nope\n", "line 1: bad rate 'nope'"},
      {"at=10ms event=data-loss rate=1.5\n", "line 1: rate must be in [0, 1]"},
      {"at=10ms heal\n", "line 1: expected key=value, got 'heal'"},
      {"at=10ms event=link-loss members=1 rate=0.5 src=?\n",
       "line 1: bad src"},
  };
  for (const Case& c : cases) {
    std::string error;
    std::optional<FaultScript> script = FaultScript::parse(c.spec, &error);
    EXPECT_FALSE(script.has_value()) << c.spec;
    EXPECT_NE(error.find(c.error_substr), std::string::npos)
        << "spec: " << c.spec << "\nerror: " << error;
  }
  // The empty-member-list case above quietly checks that comment-only lines
  // still count toward line numbers (its error is on line 2, not line 1).
}

TEST(FaultScriptParseTest, ParseFileReportsUnreadablePath) {
  std::string error;
  std::optional<FaultScript> script =
      FaultScript::parse_file("/nonexistent/no.fault", &error);
  EXPECT_FALSE(script.has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

// ------------------------------------------------------------- scheduling ----

ClusterConfig small_cluster(std::uint64_t seed) {
  ClusterConfig cc;
  cc.region_sizes = {6};
  cc.seed = seed;
  return cc;
}

TEST(FaultScriptScheduleTest, OutOfRangeIdsThrowAtScheduleTime) {
  Cluster cluster(small_cluster(7));
  FaultScript bad_member;
  bad_member.crash(TimePoint::zero() + Duration::millis(1), {6});
  EXPECT_THROW(bad_member.schedule_on(cluster), std::invalid_argument);

  FaultScript bad_group;
  bad_group.partition(TimePoint::zero() + Duration::millis(1), {{0, 99}});
  EXPECT_THROW(bad_group.schedule_on(cluster), std::invalid_argument);

  FaultScript bad_src;
  bad_src.link_loss(TimePoint::zero() + Duration::millis(1), {2}, 0.5,
                    /*src=*/17);
  EXPECT_THROW(bad_src.schedule_on(cluster), std::invalid_argument);

  // Nothing was scheduled: the cluster still runs a clean timeline.
  cluster.run_for(Duration::millis(5));
  EXPECT_EQ(cluster.network().stats().severed, 0u);
}

// A scripted run must be event-for-event identical to the same faults
// applied through hand-written schedule_script callbacks — FaultScript is a
// data encoding of the timeline, not a second fault engine.
struct RunStats {
  std::uint64_t sends = 0;
  std::uint64_t severed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t recoveries = 0;

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

template <typename ScheduleFaults>
RunStats run_workload(ScheduleFaults&& schedule_faults) {
  ClusterConfig cc = small_cluster(1234);
  cc.data_loss = 0.05;
  Cluster cluster(cc);
  schedule_faults(cluster);
  for (int i = 0; i < 10; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(2 + 4 * i), [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(64, 0x5A));
        });
  }
  cluster.run_for(Duration::millis(400));
  RunStats s;
  s.sends = cluster.network().stats().sends;
  s.severed = cluster.network().stats().severed;
  s.delivered = cluster.metrics().counters().delivered;
  s.recoveries = cluster.metrics().counters().recoveries;
  return s;
}

TEST(FaultScriptScheduleTest, ScriptedRunMatchesProgrammaticRun) {
  TimePoint t0 = TimePoint::zero();
  RunStats scripted = run_workload([&](Cluster& cluster) {
    std::optional<FaultScript> script = FaultScript::parse(
        "at=5ms  event=link-loss members=5 rate=0.4\n"
        "at=10ms event=partition groups=4-5\n"
        "at=15ms event=crash members=3\n"
        "at=25ms event=heal\n"
        "at=30ms event=rejoin members=3\n");
    ASSERT_TRUE(script.has_value());
    script->schedule_on(cluster);
  });
  RunStats programmatic = run_workload([&](Cluster& cluster) {
    cluster.schedule_script(t0 + Duration::millis(5), [&cluster] {
      cluster.set_lossy_members({5}, 0.4);
    });
    cluster.schedule_script(t0 + Duration::millis(10),
                            [&cluster] { cluster.partition({{4, 5}}); });
    cluster.schedule_script(t0 + Duration::millis(15),
                            [&cluster] { cluster.crash(3); });
    cluster.schedule_script(t0 + Duration::millis(25),
                            [&cluster] { cluster.heal(); });
    cluster.schedule_script(t0 + Duration::millis(30),
                            [&cluster] { cluster.rejoin(3); });
  });
  EXPECT_EQ(scripted, programmatic);
  // The faults actually fired: the partition severed traffic.
  EXPECT_GT(scripted.severed, 0u);
  EXPECT_GT(scripted.delivered, 0u);
}

TEST(FaultScriptScheduleTest, DataLossAcrossRejoin) {
  // A rejoiner sends at the cluster-wide data loss in force when it
  // rejoins: a rate scoped to one sender dies with that member's crash, and
  // a cluster-wide rate set while a member is down reaches it on rejoin.
  // Each check counts holders 6 ms after the send: past the 5 ms one-way
  // latency, before any recovery can have run. The sender holds its own
  // message.
  Cluster cluster(small_cluster(42));
  const TimePoint t0 = TimePoint::zero();
  FaultScript script;
  script.data_loss(t0 + Duration::millis(1), 1.0, {2})
      .crash(t0 + Duration::millis(2), {2})
      .rejoin(t0 + Duration::millis(3), {2})
      .crash(t0 + Duration::millis(20), {4})
      .data_loss(t0 + Duration::millis(21), 1.0)
      .rejoin(t0 + Duration::millis(22), {4});
  script.schedule_on(cluster);
  const std::vector<std::uint8_t> payload(64, 0x5D);

  cluster.run_for(Duration::millis(10));
  MessageId from_2 = cluster.endpoint(2).multicast(payload);
  cluster.run_for(Duration::millis(6));
  EXPECT_EQ(cluster.count_received(from_2), cluster.size());

  cluster.run_for(Duration::millis(14));  // t = 30 ms
  MessageId from_4 = cluster.endpoint(4).multicast(payload);
  cluster.run_for(Duration::millis(6));
  EXPECT_EQ(cluster.count_received(from_4), 1u);
}

}  // namespace
}  // namespace rrmp::harness
