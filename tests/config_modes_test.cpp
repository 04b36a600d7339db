// Configuration-mode interaction tests: hash-direct fallbacks, logging
// levels, and mode combinations that cross subsystem boundaries.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "harness/cluster.h"

namespace rrmp::harness {
namespace {

TEST(HashDirectFallback, FallsBackToSearchWhenSelfIsTheOnlyHashTarget) {
  // k = 1 and the single hash-selected bufferer discarded its copy: the
  // deterministic lookup dead-ends and the random search must take over
  // for the remote requester.
  ClusterConfig cc;
  cc.region_sizes = {10, 1};
  cc.seed = 401;
  cc.policy = buffer::HashBasedParams{1};
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  // Find the single hash-selected member for this id.
  std::vector<MemberId> set = buffer::hash_bufferers(id, region0, 1);
  ASSERT_EQ(set.size(), 1u);
  MemberId hashed = set[0];
  // Keep a DIFFERENT member as the actual bufferer; the hashed one discards.
  MemberId actual = hashed == region0[0] ? region0[1] : region0[0];
  for (MemberId m : region0) {
    if (m == actual) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  MemberId requester = cluster.region_members(1)[0];
  // The remote request lands exactly at the hashed member (where the
  // deterministic scheme says the copy should be — but it is gone).
  cluster.inject_remote_request(hashed, id, requester);
  cluster.run_until_quiet(Duration::seconds(3));
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
}

TEST(Logging, LevelsFilterAndRestore) {
  log::Level before = log::level();
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
  // These must be cheap no-ops below the threshold (no observable crash).
  log::trace("invisible ", 1);
  log::debug("invisible ", 2);
  log::info("invisible ", 3);
  log::warn("invisible ", 4);
  log::set_level(log::Level::kOff);
  log::error("also invisible ", 5);
  log::set_level(before);
  SUCCEED();
}

TEST(ClusterConfigShapes, SingleMemberRegionsWork) {
  // Degenerate shapes must not wedge: a 1-member root with a 1-member
  // child; local recovery has no targets, remote recovery does everything.
  ClusterConfig cc;
  cc.region_sizes = {1, 1};
  cc.seed = 403;
  cc.protocol.lambda = 5.0;
  Cluster cluster(cc);
  MessageId id = cluster.inject_data_to(0, 1, std::vector<MemberId>{0});
  cluster.inject_session_to(0, 1, std::vector<MemberId>{1});
  cluster.run_until_quiet(Duration::seconds(3));
  EXPECT_TRUE(cluster.all_received(id));
}

TEST(ClusterConfigShapes, WideFanoutHierarchy) {
  // One root, five children, all parented on region 0.
  ClusterConfig cc;
  cc.region_sizes = {10, 6, 6, 6, 6, 6};
  cc.seed = 404;
  cc.protocol.lambda = 2.0;
  Cluster cluster(cc);
  std::vector<MemberId> root = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(root[0], 1, root);
  for (RegionId r = 1; r <= 5; ++r) {
    cluster.inject_session_to(root[0], 1, cluster.region_members(r));
  }
  cluster.run_until_quiet(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
  // Each child recovered independently through the shared root.
  EXPECT_GE(cluster.metrics().counters().regional_multicasts, 5u);
}

}  // namespace
}  // namespace rrmp::harness
