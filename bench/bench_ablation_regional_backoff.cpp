// Ablation A6 — randomized back-off suppressing duplicate regional
// multicasts (§2.2, [14]).
//
// With lambda > 1, several members of a region receive remote repairs for
// the same message at nearly the same time; each would re-multicast it in
// the region. The randomized back-off lets the first relay suppress the
// rest, trading a little repair latency for far fewer duplicate multicasts.
#include <iostream>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "harness/cluster.h"

int main() {
  using namespace rrmp;
  constexpr std::size_t kChild = 40;
  constexpr std::size_t kParent = 20;
  constexpr std::size_t kTrials = 40;
  constexpr double kLambda = 4.0;

  bench::banner(
      "Ablation A6: duplicate-relay suppression via randomized back-off "
      "(Sec. 2.2)",
      "Whole 40-member child region misses a message; lambda = 4 so several\n"
      "members fetch remote repairs concurrently. Counting regional repair\n"
      "multicasts per loss (1 is ideal) and repair completion time.");

  analysis::Table t({"backoff", "regional multicasts", "suppressed",
                     "repair ms"});
  double dup_no_backoff = 0, dup_backoff = 0;
  // The window must exceed the intra-region one-way latency (5 ms), or the
  // first relay cannot reach the others before their own timers fire.
  for (Duration backoff : {Duration::zero(), Duration::millis(15)}) {
    std::vector<double> relays, repaired_ms;
    std::uint64_t suppressed = 0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      harness::ClusterConfig cc;
      cc.region_sizes = {kParent, kChild};
      // Keep the parent close enough that remote repairs return while the
      // parent still short-term-buffers (inside the 40 ms idle threshold);
      // the concurrent repairs then hit several child members at once.
      cc.inter_one_way = Duration::millis(15);
      cc.protocol.lambda = kLambda;
      cc.protocol.regional_backoff = backoff;
      cc.seed = 0xAB6'0000 + trial;
      harness::Cluster cluster(cc);
      std::vector<MemberId> parent = cluster.region_members(0);
      MessageId id = cluster.inject_data_to(parent[0], 1, parent);
      cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
      cluster.run_until_quiet(Duration::seconds(3));

      relays.push_back(static_cast<double>(
          cluster.metrics().counters().regional_multicasts));
      suppressed += cluster.metrics().counters().relays_suppressed;
      repaired_ms.push_back(cluster.metrics().last_delivery(id).ms());
    }
    double mean_relays = analysis::mean(relays);
    if (backoff == Duration::zero()) {
      dup_no_backoff = mean_relays;
    } else {
      dup_backoff = mean_relays;
    }
    t.add_row({backoff == Duration::zero() ? "none" : "U(0,15ms)",
               analysis::Table::num(mean_relays, 2),
               analysis::Table::num(
                   static_cast<double>(suppressed) / kTrials, 2),
               analysis::Table::num(analysis::mean(repaired_ms), 1)});
  }
  t.print(std::cout);

  bench::JsonReport report("ablation_regional_backoff");
  report.add_table("regional relay duplication vs back-off", t);
  report.add_scalar("mean_relays_no_backoff", dup_no_backoff);
  report.add_scalar("mean_relays_backoff", dup_backoff);

  bool ok = dup_backoff < dup_no_backoff && dup_backoff < 2.5;
  report.verdict(ok, "back-off cuts duplicate regional multicasts");
  report.write_if_requested();
  return ok ? 0 : 1;
}
