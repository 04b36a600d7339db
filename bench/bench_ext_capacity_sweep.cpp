// Extension — capacity sweep (Buffer API v2): what happens when buffer
// memory actually runs out?
//
// The paper treats buffer memory as the scarce resource but never caps it;
// every scheme implicitly assumes the working set fits. With the budgeted
// BufferStore we can ask the question directly: a lossy stream through one
// region under the two-phase policy, with the per-member byte budget swept
// from unlimited down to a fraction of the expected working set
// (short-term copies in flight within the idle threshold T, plus the
// accumulating expected-C long-term copies per message).
//
// Expected shape: at or above the working set the budget is invisible —
// identical results to unlimited, zero evictions. Shrinking below it forces
// evictions of copies that requests still need, so recovery success
// degrades monotonically and unrecovered losses appear.
//
// RRMP_CAPACITY_POINTS=N (env) truncates the sweep to its first N points —
// the CI release leg smoke-runs 2 points so the sweep machinery is
// exercised on every PR without the full cost.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "harness/experiments.h"

int main() {
  using namespace rrmp;

  harness::StreamScenario scenario;
  scenario.region_size = 40;
  scenario.messages = 60;
  scenario.send_interval = Duration::millis(5);
  scenario.data_loss = 0.10;
  scenario.payload_bytes = 256;
  scenario.drain = Duration::millis(800);
  scenario.seed = 0xCA9'0001;

  // Budgets in wire-encoded Data-frame bytes (one 256 B payload frame is
  // ~271 B). 0 = unlimited; then roughly 48..2 frames per member.
  std::vector<std::size_t> budgets = {0,    16384, 8192, 4096,
                                      2048, 1024,  512};
  if (const char* env = std::getenv("RRMP_CAPACITY_POINTS")) {
    std::size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 2 && n < budgets.size()) {
      // Keep the unlimited anchor plus the n-1 *smallest* budgets: a smoke
      // run must exercise the eviction/rejection machinery, and only
      // budgets below the working set do.
      std::vector<std::size_t> pruned = {0};
      pruned.insert(pruned.end(), budgets.end() - static_cast<std::ptrdiff_t>(n - 1),
                    budgets.end());
      budgets = std::move(pruned);
    }
  }

  bench::banner(
      "Extension: capacity sweep — recovery vs per-member buffer budget",
      "n = 40, 10% loss on the initial multicast, 60 msgs of 256 B, "
      "two-phase policy\n(T = 40 ms, C = 6). budget = max wire-encoded bytes "
      "buffered per member;\n0 = unlimited. Shrinking the budget below the "
      "working set evicts copies\nthat requests still need.");

  analysis::Table t({"budget B", "delivered", "recovery success",
                     "recovery ms", "evictions", "rejected", "unrecovered",
                     "peak B/member"});
  std::vector<double> success;
  std::vector<double> delivered;
  harness::StreamOutcome unlimited{};
  std::uint64_t total_evictions = 0;
  for (std::size_t budget : budgets) {
    scenario.budget.max_bytes = budget;
    harness::StreamOutcome o =
        harness::run_stream_scenario(buffer::PolicyKind::kTwoPhase, scenario);
    if (budget == 0) unlimited = o;
    success.push_back(o.recovery_success);
    delivered.push_back(o.goodput);
    total_evictions += o.evictions;
    t.add_row({budget == 0 ? "unlimited" : analysis::Table::num(
                                               static_cast<std::uint64_t>(budget)),
               analysis::Table::num(o.goodput, 3),
               analysis::Table::num(o.recovery_success, 3),
               analysis::Table::num(o.mean_recovery_ms, 2),
               analysis::Table::num(o.evictions),
               analysis::Table::num(o.rejected),
               analysis::Table::num(o.unrecovered),
               analysis::Table::num(o.peak_bytes_per_member, 0)});
  }
  t.print(std::cout);
  bench::maybe_write_csv("ext_capacity_sweep", t);

  bench::JsonReport report("ext_capacity_sweep");
  report.add_table("recovery vs per-member buffer budget", t);
  report.add_scalar("unlimited_recovery_success", unlimited.recovery_success);
  report.add_scalar("unlimited_delivered_fraction",
                    unlimited.goodput);
  report.add_scalar("min_budget_recovery_success", success.back());
  report.add_scalar("min_budget_delivered_fraction", delivered.back());
  report.add_scalar("total_evictions", static_cast<double>(total_evictions));

  report.verdict(unlimited.recovery_success >= 0.999 &&
                     unlimited.goodput >= 0.999,
                 "with an unlimited budget every loss is recovered (the "
                 "paper's operating point)");
  // Sampling noise at adjacent generous budgets is real; the *shape* target
  // is monotone degradation as memory shrinks.
  report.verdict(bench::non_increasing(success, 0.02),
                 "recovery success degrades monotonically as the budget "
                 "shrinks");
  if (budgets.size() >= 4) {
    report.verdict(success.back() < unlimited.recovery_success - 0.05 &&
                       total_evictions > 0,
                   "budgets below the working set force evictions and "
                   "measurably unrecoverable losses");
  }
  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
