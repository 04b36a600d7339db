// Extension E1 — recovery latency vs hierarchy depth, plus the repair-tree
// makespan sweep.
//
// Part 1 (flat recovery, unchanged since PR 1): the paper evaluates
// buffering inside one region; its §2 protocol, however, chains regions: a
// loss at depth d is repaired by depth d-1, whose member may itself still
// be recovering (waiter forwarding). This quantifies the chain: time until
// a whole bottom region has a message that only the root region received,
// for chains of 1..4 hops.
//
// Part 2 (hierarchical repair): the same question at tree scale. A complete
// fanout-ary region tree with only the root holding the message; every
// region's representative funnels its region's NAKs and escalates up the
// tree (src/repair). The grid sweeps depth x fanout x region size; the
// scale points grow the same shape to 10^4 / 10^5 / 10^6 members.
// RRMP_HIERARCHY_POINTS=N runs only the first N scale points (CI smoke
// sets 2; unset runs all three).
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "harness/cluster.h"
#include "harness/experiments.h"

using namespace rrmp;

int main(int argc, char** argv) {
  constexpr std::size_t kRegionSize = 12;
  constexpr std::size_t kTrials = 30;
  const std::size_t shards = bench::parse_shards(argc, argv);

  bench::banner(
      "Extension E1: regional-loss repair latency vs hierarchy depth",
      "Chain of regions (12 members each, 50 ms one-way between levels);\n"
      "only the root region receives the message; every level below must\n"
      "recover it through its parent. lambda = 1.");

  analysis::Table t({"depth (hops)", "repair ms (mean)", "repair ms (p90)",
                     "remote requests"});
  std::vector<double> means;
  for (std::size_t depth = 1; depth <= 4; ++depth) {
    std::vector<double> completion;
    double remote_requests = 0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      harness::ClusterConfig cc;
      cc.region_sizes.assign(depth + 1, kRegionSize);
      cc.parents.resize(depth + 1);
      for (std::size_t r = 0; r <= depth; ++r) {
        cc.parents[r] = r == 0 ? 0 : static_cast<RegionId>(r - 1);
      }
      cc.seed = 0xE1'0000 + depth * 1000 + trial;
      harness::Cluster cluster(cc);

      std::vector<MemberId> root = cluster.region_members(0);
      MessageId id = cluster.inject_data_to(root[0], 1, root);
      for (RegionId r = 1; r <= depth; ++r) {
        cluster.inject_session_to(root[0], 1, cluster.region_members(r));
      }
      cluster.run_until_quiet(Duration::seconds(10));
      if (!cluster.all_received(id)) continue;  // rare unlucky draw
      const RecordingSink& metrics = cluster.metrics();
      completion.push_back(metrics.last_delivery(id).ms());
      remote_requests +=
          static_cast<double>(metrics.counters().remote_requests_sent);
    }
    double mean = analysis::mean(completion);
    means.push_back(mean);
    t.add_row({analysis::Table::num(static_cast<std::uint64_t>(depth)),
               analysis::Table::num(mean, 1),
               analysis::Table::num(analysis::percentile(completion, 90), 1),
               analysis::Table::num(remote_requests / kTrials, 1)});
  }
  t.print(std::cout);
  bench::maybe_write_csv("ext_hierarchy_depth", t);

  bool monotone = bench::non_decreasing(means, /*slack=*/10.0);
  // Each extra hop costs at least most of one inter-region round trip.
  bool spaced = (means[3] - means[0]) > 150.0;

  bench::JsonReport report("ext_hierarchy_depth");
  report.add_table("repair latency vs hierarchy depth", t);
  report.add_scalar("mean_repair_ms_depth1", means.front());
  report.add_scalar("mean_repair_ms_depth4", means.back());
  report.verdict(monotone && spaced,
                 "repair latency grows ~linearly with hierarchy depth "
                 "(one remote RTT per hop)");

  // ---- Part 2: repair-tree makespan grid ----------------------------------

  bench::banner(
      "Extension E1b: repair-tree makespan (hierarchical repair on)",
      "Complete fanout-ary region tree; only the root region holds the\n"
      "message; representatives funnel NAKs and escalate level by level.\n"
      "Makespan = simulated time of the last delivery.");

  analysis::Table grid({"depth", "fanout", "region size", "members",
                        "makespan ms", "escalations", "recovered"});
  bool grid_recovered = true;
  bool grid_monotone = true;
  for (std::size_t fanout : {2, 3}) {
    for (std::size_t region_size : {12, 24}) {
      double prev = 0.0;
      for (std::size_t depth = 1; depth <= 3; ++depth) {
        harness::MakespanScenario sc;
        sc.fanout = fanout;
        sc.depth = depth;
        sc.region_size = region_size;
        sc.seed = 0xE1'B000 + fanout * 100 + region_size * 10 + depth;
        sc.shards = shards;
        harness::MakespanOutcome o = harness::run_makespan_point(sc);
        grid_recovered = grid_recovered && o.all_recovered;
        // Slack: one regional spread — deeper trees must cost more overall.
        if (o.makespan_ms + 20.0 < prev) grid_monotone = false;
        prev = o.makespan_ms;
        grid.add_row(
            {analysis::Table::num(static_cast<std::uint64_t>(depth)),
             analysis::Table::num(static_cast<std::uint64_t>(fanout)),
             analysis::Table::num(static_cast<std::uint64_t>(region_size)),
             analysis::Table::num(static_cast<std::uint64_t>(o.members)),
             analysis::Table::num(o.makespan_ms, 1),
             analysis::Table::num(o.remote_requests),
             o.all_recovered ? "yes" : "NO"});
        if (depth == 3 && region_size == 12) {
          report.add_scalar("makespan_ms_depth3_fanout" + std::to_string(fanout),
                            o.makespan_ms);
        }
      }
    }
  }
  grid.print(std::cout);
  bench::maybe_write_csv("ext_hierarchy_makespan", grid);
  report.add_table("repair-tree makespan grid", grid);
  report.verdict(grid_recovered, "every grid point fully recovered");
  report.verdict(grid_monotone,
                 "makespan grows with tree depth at every fanout/region size");

  // ---- Part 3: scale points ------------------------------------------------

  std::size_t max_points = 3;
  if (const char* env = std::getenv("RRMP_HIERARCHY_POINTS")) {
    max_points = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  struct ScalePoint {
    std::size_t fanout, depth, region_size;
    const char* label;
  };
  const ScalePoint points[] = {
      {10, 2, 90, "1e4"},   // 111 regions, 9,990 members
      {10, 2, 900, "1e5"},  // 111 regions, 99,900 members
      {10, 3, 900, "1e6"},  // 1,111 regions, 999,900 members
  };
  analysis::Table scale({"members", "regions", "makespan ms", "escalations",
                         "sim events", "wall s", "recovered"});
  bool scale_recovered = true;
  std::size_t ran = 0;
  for (const ScalePoint& p : points) {
    if (ran >= max_points) break;
    ++ran;
    harness::MakespanScenario sc;
    sc.fanout = p.fanout;
    sc.depth = p.depth;
    sc.region_size = p.region_size;
    sc.seed = 0xE1'5CA1;
    sc.shards = shards;
    auto wall0 = std::chrono::steady_clock::now();
    harness::MakespanOutcome o = harness::run_makespan_point(sc);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
    scale_recovered = scale_recovered && o.all_recovered;
    scale.add_row({analysis::Table::num(static_cast<std::uint64_t>(o.members)),
                   analysis::Table::num(static_cast<std::uint64_t>(o.regions)),
                   analysis::Table::num(o.makespan_ms, 1),
                   analysis::Table::num(o.remote_requests),
                   analysis::Table::num(o.events),
                   analysis::Table::num(wall_s, 1),
                   o.all_recovered ? "yes" : "NO"});
    // Wall time is machine-dependent: console/table only, never a scalar.
    report.add_scalar("makespan_ms_" + std::string(p.label), o.makespan_ms);
  }
  scale.print(std::cout);
  bench::maybe_write_csv("ext_hierarchy_scale", scale);
  report.add_table("repair-tree makespan at scale", scale);
  report.verdict(scale_recovered, "every scale point fully recovered");

  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
