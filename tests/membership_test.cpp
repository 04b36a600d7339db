// Unit tests: region views and the membership directory.
#include <gtest/gtest.h>

#include <map>

#include "membership/directory.h"
#include "membership/view.h"
#include "net/topology.h"

namespace rrmp::membership {
namespace {

TEST(RegionViewTest, ConstructionSortsAndDedupes) {
  RegionView v({5, 1, 3, 1, 5});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members(), (std::vector<MemberId>{1, 3, 5}));
}

TEST(RegionViewTest, ContainsAddRemove) {
  RegionView v({1, 2, 3});
  EXPECT_TRUE(v.contains(2));
  EXPECT_FALSE(v.contains(9));
  v.add(9);
  EXPECT_TRUE(v.contains(9));
  v.add(9);  // duplicate add: no-op
  EXPECT_EQ(v.size(), 4u);
  v.remove(2);
  EXPECT_FALSE(v.contains(2));
  v.remove(2);  // absent remove: no-op
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members(), (std::vector<MemberId>{1, 3, 9}));
}

TEST(RegionViewTest, PickRandomExcludesSelfAndCoversOthers) {
  RegionView v({0, 1, 2, 3, 4});
  RandomEngine rng(1);
  std::map<MemberId, int> counts;
  for (int i = 0; i < 5000; ++i) {
    MemberId m = v.pick_random(rng, 2);
    ASSERT_NE(m, 2u);
    ASSERT_TRUE(v.contains(m));
    ++counts[m];
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [m, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 5000.0, 0.25, 0.03);
  }
}

TEST(RegionViewTest, PickRandomEmptyAndSingleton) {
  RegionView empty;
  RandomEngine rng(2);
  EXPECT_EQ(empty.pick_random(rng), kInvalidMember);
  RegionView solo({7});
  EXPECT_EQ(solo.pick_random(rng, 7), kInvalidMember);  // only self
  EXPECT_EQ(solo.pick_random(rng), 7u);                 // no exclusion
}

TEST(RegionViewTest, PickRandomWithForeignExclude) {
  RegionView v({1, 2});
  RandomEngine rng(3);
  // Excluding a non-member must not shrink the candidate set.
  std::set<MemberId> seen;
  for (int i = 0; i < 100; ++i) seen.insert(v.pick_random(rng, 99));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RegionViewTest, PickRandomDistinct) {
  RegionView v({0, 1, 2, 3, 4, 5});
  RandomEngine rng(4);
  auto picks = v.pick_random_distinct(rng, 3, 0);
  EXPECT_EQ(picks.size(), 3u);
  std::set<MemberId> s(picks.begin(), picks.end());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.count(0));
  // Requesting more than available returns all non-excluded.
  auto all = v.pick_random_distinct(rng, 100, 0);
  EXPECT_EQ(all.size(), 5u);
}

// -------------------------------------------------------------- Directory ----

struct DirFixture {
  DirFixture() : topo(net::make_hierarchy({3, 2})), dir(topo) {}
  net::Topology topo;
  Directory dir;
};

TEST(DirectoryTest, AllAliveInitially) {
  DirFixture f;
  EXPECT_EQ(f.dir.alive_count(), 5u);
  for (MemberId m = 0; m < 5; ++m) EXPECT_TRUE(f.dir.alive(m));
  EXPECT_EQ(f.dir.region_view(0).size(), 3u);
  EXPECT_EQ(f.dir.region_view(1).size(), 2u);
}

TEST(DirectoryTest, ParentViewResolution) {
  DirFixture f;
  EXPECT_TRUE(f.dir.parent_view(0).empty());          // root has no parent
  EXPECT_EQ(f.dir.parent_view(1).size(), 3u);         // child sees region 0
  EXPECT_EQ(f.dir.parent_view(1).members(),
            f.dir.region_view(0).members());
}

TEST(DirectoryTest, LeaveAndRejoinUpdateViews) {
  DirFixture f;
  std::uint64_t v0 = f.dir.version();
  f.dir.mark_left(1);
  EXPECT_FALSE(f.dir.alive(1));
  EXPECT_EQ(f.dir.alive_count(), 4u);
  EXPECT_FALSE(f.dir.region_view(0).contains(1));
  EXPECT_GT(f.dir.version(), v0);
  f.dir.mark_joined(1);
  EXPECT_TRUE(f.dir.alive(1));
  EXPECT_TRUE(f.dir.region_view(0).contains(1));
}

TEST(DirectoryTest, RedundantTransitionsAreNoOps) {
  DirFixture f;
  f.dir.mark_left(0);
  std::uint64_t v = f.dir.version();
  f.dir.mark_left(0);  // already gone
  EXPECT_EQ(f.dir.version(), v);
  f.dir.mark_joined(0);
  v = f.dir.version();
  f.dir.mark_joined(0);
  EXPECT_EQ(f.dir.version(), v);
}

TEST(DirectoryTest, FailedParentMemberLeavesParentView) {
  DirFixture f;
  f.dir.mark_failed(0);
  EXPECT_EQ(f.dir.parent_view(1).size(), 2u);
  EXPECT_FALSE(f.dir.parent_view(1).contains(0));
}

}  // namespace
}  // namespace rrmp::membership
