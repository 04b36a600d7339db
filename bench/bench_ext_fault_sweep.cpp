// Extension — graceful degradation under injected faults: the same
// flash-crowd workload (budget coordination + windowed flow control on)
// runs once per hostile-network cell, and the sweep asks two questions the
// robustness layer exists to answer: does goodput degrade *proportionally*
// to the injected hostility (no cliff), and does the protocol *always*
// finish recovering once the fault clears?
//
// Cells, in order:
//   clean        no faults — the control every other cell degrades from
//   partition    a minority of the receivers is severed from everyone else
//                a third into the burst; the wall comes down when the burst
//                ends, so the drain window measures post-heal backfill
//   lossy-edge   ~10% of receivers sit behind persistently lossy links
//                (LinkLossTable overrides on every link into them)
//   churn-storm  half the non-sender receivers crash a third into the burst
//                and rejoin two thirds through
//   digest-loss  a control-plane loss spike mid-burst (digests, credit
//                acks, requests and repairs all drop), restored later
//
// Every cell builds its timeline programmatically with FaultScript and
// schedules it through Cluster::schedule_script, so the sweep exercises the
// scripted-fault path end to end — the same path scenario_cli
// --fault-script drives from a spec file.
//
// Expected shape: the clean cell bounds every other cell's goodput from
// above. The faulted cells lose ground while their fault is active —
// severed packets, crashed receivers, dropped digests — but every one of
// them drains the open recoveries of every member that kept its state to
// zero, and every sender completes its schedule: degraded, never wedged.
// The churn cell is the one cell allowed a residual: a rejoiner starts
// empty and backfills its pre-crash history from whatever copies the region
// still holds, and under budget pressure some of that history is
// legitimately gone — those exhausted recoveries are reported apart
// (rej'd column) and its recovery-success ratio sits below 1 for the same
// reason. The liveness witnesses are the continuous members' drained
// recovery queues and the completed sender schedules, not that ratio.
//
// RRMP_FAULT_POINTS=N (env) truncates the sweep to the FIRST N cells for a
// quicker run; 2 keeps clean + partition, which covers the
// partition/heal/credit-release machinery.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "analysis/table.h"
#include "bench_util.h"
#include "harness/experiments.h"

int main() {
  using namespace rrmp;

  harness::StreamScenario scenario;
  scenario.region_size = 24;
  scenario.senders = 4;
  scenario.messages = 30;
  scenario.send_interval = Duration::millis(2);
  scenario.data_loss = 0.05;
  scenario.payload_bytes = 512;
  // Post-burst settle time. It must cover post-heal backfill: partitioned
  // and rejoined members recover their missed tail here.
  scenario.drain = Duration::millis(2500);
  scenario.seed = 0xFA'0001;
  scenario.budget.max_bytes = 8192;
  scenario.coordination.enabled = true;
  scenario.coordination.digest_interval = Duration::millis(10);
  scenario.flow.enabled = true;
  scenario.flow.window_size = 8;
  scenario.flow.ack_interval = Duration::millis(5);

  std::vector<harness::FaultCell> cells = {
      harness::FaultCell::kClean,      harness::FaultCell::kPartition,
      harness::FaultCell::kLossyEdge,  harness::FaultCell::kChurnStorm,
      harness::FaultCell::kDigestLoss,
  };
  if (const char* env = std::getenv("RRMP_FAULT_POINTS")) {
    std::size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 1 && n < cells.size()) {
      // The FIRST n cells: clean is the baseline every verdict compares
      // against, and partition right after it is the cell the credit/digest
      // hardening exists for.
      cells.resize(n);
    }
  }

  bench::banner(
      "Extension: fault sweep — goodput and recovery under injected faults",
      "n = 24, 4 senders, 5% loss on the initial multicast, 30 msgs of 512 B "
      "per\nsender at 2 ms, per-member budget 8 KB, coordination + windowed "
      "flow (W = 8)\non, two-phase policy (T = 40 ms, C = 6). One run per "
      "cell, same schedule and\nseed; faults are scripted FaultScript "
      "timelines (partition a third into the\nburst healed at its end, 10% "
      "lossy edges, 50% non-sender crash storm,\ncontrol-plane loss spike).");

  analysis::Table t({"cell", "goodput", "fairness", "recovery", "rec ms",
                     "unrecovered", "rej'd", "completed", "severed",
                     "deferred", "releases", "evictions", "sheds"});

  std::vector<harness::StreamOutcome> outcomes;
  for (harness::FaultCell cell : cells) {
    harness::StreamOutcome o = harness::run_stream_scenario(
        buffer::PolicyKind::kTwoPhase, scenario,
        harness::fault_cell_script(cell, scenario));
    outcomes.push_back(o);
    t.add_row({harness::fault_cell_name(cell),
               analysis::Table::num(o.goodput, 3),
               analysis::Table::num(o.fairness, 3),
               analysis::Table::num(o.recovery_success, 3),
               analysis::Table::num(o.mean_recovery_ms, 2),
               analysis::Table::num(o.unrecovered),
               analysis::Table::num(o.unrecovered_rejoined),
               analysis::Table::num(static_cast<std::uint64_t>(
                   o.senders_completed)),
               analysis::Table::num(o.severed),
               analysis::Table::num(o.deferred),
               analysis::Table::num(o.stall_releases),
               analysis::Table::num(o.evictions),
               analysis::Table::num(o.sheds)});
  }

  t.print(std::cout);
  bench::maybe_write_csv("ext_fault_sweep", t);

  const harness::StreamOutcome& clean = outcomes.front();
  bool clean_bounds = true;
  bool all_recovered = true;
  bool no_sender_wedged = true;
  std::uint64_t total_deferred = 0;
  for (const harness::StreamOutcome& o : outcomes) {
    if (o.goodput > clean.goodput + 1e-9) clean_bounds = false;
    if (o.unrecovered != 0) all_recovered = false;
    if (o.senders_completed != o.senders) no_sender_wedged = false;
    total_deferred += o.deferred;
  }

  bench::JsonReport report("ext_fault_sweep");
  report.add_table("degradation grid by fault cell", t);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const harness::StreamOutcome& o = outcomes[i];
    std::string cell = harness::fault_cell_name(cells[i]);
    report.add_scalar("goodput_" + cell, o.goodput);
    report.add_scalar("recovery_" + cell, o.recovery_success);
    report.add_scalar("unrecovered_" + cell,
                      static_cast<double>(o.unrecovered));
    report.add_scalar("unrecovered_rejoined_" + cell,
                      static_cast<double>(o.unrecovered_rejoined));
    report.add_scalar("senders_completed_" + cell,
                      static_cast<double>(o.senders_completed));
  }
  report.add_scalar("total_deferred", static_cast<double>(total_deferred));

  report.verdict(clean.goodput >= 0.999,
                 "the clean cell delivers everything (goodput 1 under plain "
                 "5% data loss)");
  report.verdict(clean_bounds,
                 "the clean cell bounds every faulted cell's goodput from "
                 "above (degradation, never a gain from faults)");
  report.verdict(all_recovered,
                 "every member that kept its state drains its open "
                 "recoveries to zero after the fault clears (post-heal "
                 "recovery always completes; only a rejoiner's pre-crash "
                 "history may stay unrecoverable)");
  report.verdict(no_sender_wedged,
                 "no cell wedges a sender (every sender completes its full "
                 "schedule in every cell)");
  report.verdict(total_deferred > 0,
                 "the flow-control machinery actually engaged across the "
                 "sweep (sends deferred)");
  if (outcomes.size() > 1) {
    const harness::StreamOutcome& part = outcomes[1];
    report.add_scalar("severed_partition", static_cast<double>(part.severed));
    report.verdict(part.severed > 0,
                   "the partition actually severed traffic (packets dropped "
                   "at the partition wall)");
    report.verdict(part.goodput >= 0.999,
                   "the partitioned minority backfills everything it missed "
                   "once the wall comes down (partition-cell goodput 1)");
  }
  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
