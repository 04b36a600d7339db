// Tier-2 scale smoke: the repair-tree makespan experiment at 10^5 members
// (and a 10^4 point), end to end through the real experiment
// driver — the same code path the bench scale points take, at a size ctest
// can afford. The 10^6 point lives in bench_ext_hierarchy_depth.
#include <gtest/gtest.h>

#include "harness/experiments.h"

namespace rrmp::harness {
namespace {

TEST(HierarchyScaleTest, HundredThousandMemberMakespan) {
  MakespanScenario sc;
  sc.fanout = 10;
  sc.depth = 2;
  sc.region_size = 900;  // 111 regions, 99,900 members
  sc.seed = 0x5CA1E;
  MakespanOutcome o = run_makespan_point(sc);
  EXPECT_EQ(o.members, 99900u);
  EXPECT_EQ(o.regions, 111u);
  EXPECT_TRUE(o.all_recovered);
  EXPECT_GT(o.makespan_ms, 0.0);
  EXPECT_GT(o.remote_requests, 0u);
}

TEST(HierarchyScaleTest, TenThousandMemberMakespan) {
  MakespanScenario sc;
  sc.fanout = 10;
  sc.depth = 2;
  sc.region_size = 90;  // 111 regions, 9,990 members
  sc.seed = 0x5CA1F;
  MakespanOutcome o = run_makespan_point(sc);
  EXPECT_EQ(o.members, 9990u);
  EXPECT_TRUE(o.all_recovered);
  EXPECT_GT(o.makespan_ms, 0.0);
}

}  // namespace
}  // namespace rrmp::harness
