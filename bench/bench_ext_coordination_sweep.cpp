// Extension — cooperative region-wide budget coordination: does telling a
// region *where* its copies live beat members evicting blindly?
//
// PR 4's capacity sweep showed recovery success degrading once the
// per-member budget undercuts the ~6 KB working set: members under pressure
// evict copies that requests still need, including the region's *last* copy
// of a message while a neighbor holds a redundant one. This sweep runs the
// identical scenario at the same budget points twice per point —
// uncoordinated (the PR 4 protocol, bit for bit) and coordinated (periodic
// BufferDigest gossip, replica-aware eviction that protects sole copies,
// and shed handoffs pushing sole copies to the least-loaded neighbor) —
// and compares recovery success head to head.
//
// Expected shape: with an unlimited budget coordination is invisible (no
// pressure, nothing to coordinate). Below the working set the coordinated
// curve sits strictly above the uncoordinated one: redundant copies go
// first, sole copies move instead of dying, so more requests find a living
// copy. The price is the digest traffic, which the table reports.
//
// RRMP_COORDINATION_POINTS=N (env) truncates the sweep to the unlimited
// anchor plus the N-1 smallest budgets — the CI release leg smoke-runs 2
// points so the coordination machinery is exercised on every PR.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "harness/experiments.h"

int main() {
  using namespace rrmp;

  // Identical to bench_ext_capacity_sweep's scenario, so the uncoordinated
  // column of this sweep and the capacity sweep are the same experiment.
  harness::StreamScenario scenario;
  scenario.region_size = 40;
  scenario.messages = 60;
  scenario.send_interval = Duration::millis(5);
  scenario.data_loss = 0.10;
  scenario.payload_bytes = 256;
  scenario.drain = Duration::millis(800);
  scenario.seed = 0xCA9'0001;

  // Unlimited anchor, one at-capacity point (2048: evictions happen but
  // every loss still recovers), then the degraded regime the tentpole is
  // about.
  std::vector<std::size_t> budgets = {0, 2048, 1536, 1024, 768, 512};
  if (const char* env = std::getenv("RRMP_COORDINATION_POINTS")) {
    std::size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 2 && n < budgets.size()) {
      // Unlimited anchor + the n-1 smallest budgets: a smoke run must
      // exercise the digest/shed machinery, and only budgets below the
      // working set do.
      std::vector<std::size_t> pruned = {0};
      pruned.insert(pruned.end(),
                    budgets.end() - static_cast<std::ptrdiff_t>(n - 1),
                    budgets.end());
      budgets = std::move(pruned);
    }
  }

  bench::banner(
      "Extension: coordination sweep — cooperative vs isolated buffer budgets",
      "n = 40, 10% loss on the initial multicast, 60 msgs of 256 B, "
      "two-phase policy\n(T = 40 ms, C = 6). Same scenario and budget points "
      "as the capacity sweep;\neach point runs uncoordinated (isolated PR 4 "
      "budgets) and coordinated\n(digest gossip + replica-aware eviction + "
      "shed handoffs) back to back.");

  analysis::Table t({"budget B", "mode", "delivered", "recovery success",
                     "recovery ms", "evictions", "sheds", "unrecovered",
                     "digest msgs"});
  std::vector<double> uncoordinated_success;
  std::vector<double> coordinated_success;
  std::uint64_t total_sheds = 0, total_digests = 0;
  bool coordinated_never_worse = true;
  // The head-to-head claim: at every point where isolated budgets degrade
  // recovery, coordination recovers strictly more. (At saturated points
  // both sit at 1.0 — there is nothing left to win.)
  std::size_t degraded_points = 0, strictly_better = 0;
  for (std::size_t budget : budgets) {
    harness::StreamOutcome pair[2];
    for (bool coordinate : {false, true}) {
      scenario.budget.max_bytes = budget;
      scenario.coordination.enabled = coordinate;
      harness::StreamOutcome o = harness::run_stream_scenario(
          buffer::PolicyKind::kTwoPhase, scenario);
      pair[coordinate ? 1 : 0] = o;
      t.add_row({budget == 0 ? "unlimited"
                             : analysis::Table::num(
                                   static_cast<std::uint64_t>(budget)),
                 coordinate ? "coordinated" : "uncoordinated",
                 analysis::Table::num(o.goodput, 3),
                 analysis::Table::num(o.recovery_success, 3),
                 analysis::Table::num(o.mean_recovery_ms, 2),
                 analysis::Table::num(o.evictions),
                 analysis::Table::num(o.sheds),
                 analysis::Table::num(o.unrecovered),
                 analysis::Table::num(o.digest_msgs)});
      total_sheds += o.sheds;
      total_digests += o.digest_msgs;
    }
    uncoordinated_success.push_back(pair[0].recovery_success);
    coordinated_success.push_back(pair[1].recovery_success);
    if (pair[1].recovery_success < pair[0].recovery_success) {
      coordinated_never_worse = false;
    }
    if (pair[0].recovery_success < 0.999) {
      ++degraded_points;
      if (pair[1].recovery_success > pair[0].recovery_success) {
        ++strictly_better;
      }
    }
  }
  t.print(std::cout);
  bench::maybe_write_csv("ext_coordination_sweep", t);

  bench::JsonReport report("ext_coordination_sweep");
  report.add_table("coordinated vs uncoordinated recovery by budget", t);
  report.add_scalar("unlimited_recovery_success_uncoordinated",
                    uncoordinated_success.front());
  report.add_scalar("unlimited_recovery_success_coordinated",
                    coordinated_success.front());
  report.add_scalar("min_budget_recovery_success_uncoordinated",
                    uncoordinated_success.back());
  report.add_scalar("min_budget_recovery_success_coordinated",
                    coordinated_success.back());
  report.add_scalar("total_sheds", static_cast<double>(total_sheds));
  report.add_scalar("total_digest_msgs", static_cast<double>(total_digests));

  report.add_scalar("degraded_points", static_cast<double>(degraded_points));
  report.add_scalar("strictly_better_points",
                    static_cast<double>(strictly_better));

  report.verdict(uncoordinated_success.front() >= 0.999 &&
                     coordinated_success.front() >= 0.999,
                 "with an unlimited budget both modes recover every loss "
                 "(coordination is invisible without pressure)");
  report.verdict(degraded_points > 0 && strictly_better == degraded_points,
                 "at every budget point below the working set (uncoordinated "
                 "recovery degraded), coordination yields strictly higher "
                 "recovery success");
  report.verdict(coordinated_never_worse,
                 "coordination never reduces recovery success");
  report.verdict(total_sheds > 0,
                 "pressure actually exercised the shed path (sole copies "
                 "relocated instead of lost)");
  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
