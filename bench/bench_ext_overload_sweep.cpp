// Extension — flow control under a flash crowd: does windowed send
// admission turn simultaneous overload into paced goodput?
//
// The paper's buffer optimizations assume senders are paced. This sweep
// breaks that assumption on purpose: `senders` members of one region all
// stream the same schedule into tight per-member budgets (coordination on),
// so every buffer overruns at the same instants. Each sender count runs
// three times — flow off (the unpaced PR 5 protocol, bit for bit), static
// windowed (per-sender windows, CreditAck credit feedback, digest-fed
// back-pressure) and adaptive (AIMD window sizing + cursor piggybacking) —
// and compares goodput (fraction of streamed messages every member got),
// Jain's fairness index over per-sender delivered counts, and the credit
// control overhead (CreditAck bytes per delivered payload byte) head to
// head.
//
// Expected shape: with few senders all modes deliver everything. Past
// saturation the unpaced runs shed and evict copies they then cannot
// recover, and which sender's stream survives is luck — goodput and
// fairness both fall. The windowed runs defer sends instead of losing them,
// so goodput stays strictly higher and fairness stays near 1. The adaptive
// runs match that goodput while the piggybacked cursors suppress most
// standalone CreditAcks, cutting the control overhead by well over 2x. A
// final churn pair at the largest crowd crashes and rejoins a
// receiver mid-burst, exercising the churn-safe credit state (seeded joiner
// cursors, view-change drops, stalled-cursor release) under both window
// modes: the liveness verdict is that every sender completes its schedule —
// the rejoined member's unrecoverable pre-crash history legitimately caps
// goodput below 1, but must never wedge the window.
//
// RRMP_OVERLOAD_POINTS=N (env) truncates the sweep to the N largest sender
// counts for a quicker run (only saturated points exercise the credit
// machinery).
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
  scenario.messages = 30;
  scenario.send_interval = Duration::millis(2);
  scenario.data_loss = 0.05;
  scenario.payload_bytes = 512;
  // Post-stream settle time. It must cover the credit-paced tail: a
  // windowed sender still holds queued frames when the unpaced schedule
  // ends.
  scenario.drain = Duration::millis(1500);
  scenario.seed = 0xF10'0001;
  scenario.budget.max_bytes = 4096;
  scenario.coordination.enabled = true;
  scenario.coordination.digest_interval = Duration::millis(10);
  scenario.flow.window_size = 8;
  scenario.flow.ack_interval = Duration::millis(5);

  // The adaptive variant: same schedule and seed, but the window is AIMD
  // (starts at 2 frames, grows one frame per clean credit round, halves
  // on stall, capped by the static window as ceiling) and receive cursors
  // ride on outgoing Data/Session frames instead of standalone CreditAcks.
  harness::StreamScenario adaptive = scenario;
  adaptive.flow.adaptive = true;
  adaptive.flow.piggyback = true;

  auto run = [](harness::StreamScenario sc, std::size_t senders, bool flow_on,
                const harness::FaultScript& faults = {}) {
    sc.senders = senders;
    sc.flow.enabled = flow_on;
    return harness::run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc,
                                        faults);
  };

  // One sender is the paced baseline; the crowd grows until the region's
  // aggregate stream rate dwarfs what the budgets can hold.
  std::vector<std::size_t> sender_counts = {1, 2, 4, 6, 8};
  if (const char* env = std::getenv("RRMP_OVERLOAD_POINTS")) {
    std::size_t n = std::strtoul(env, nullptr, 10);
    if (n >= 2 && n < sender_counts.size()) {
      // The N largest crowds: a smoke run must exercise the window/credit
      // machinery, and only saturated points do.
      sender_counts.assign(sender_counts.end() - static_cast<std::ptrdiff_t>(n),
                           sender_counts.end());
    }
  }

  bench::banner(
      "Extension: overload sweep — flash-crowd goodput with and without "
      "flow control",
      "n = 24, 5% loss on the initial multicast, 30 msgs of 512 B per "
      "sender at 2 ms,\nper-member budget 4 KB, coordination on, two-phase "
      "policy (T = 40 ms, C = 6).\nEach sender count runs unpaced, windowed "
      "(W = 8, CreditAcks to senders\nevery 5 ms) and adaptive (AIMD 2..8 + "
      "cursor piggybacking) back to back on\nthe same schedule and seed; a "
      "churn pair at the largest crowd crashes +\nrejoins a receiver "
      "mid-burst.");

  analysis::Table t({"senders", "mode", "goodput", "fairness", "deferred",
                     "credit msgs", "suppressed", "overhead", "evictions",
                     "sheds", "unrecovered"});
  auto add_row = [&t](std::size_t senders, const char* mode,
                      const harness::StreamOutcome& o) {
    t.add_row({analysis::Table::num(static_cast<std::uint64_t>(senders)),
               mode, analysis::Table::num(o.goodput, 3),
               analysis::Table::num(o.fairness, 3),
               analysis::Table::num(o.deferred),
               analysis::Table::num(o.credit_msgs),
               analysis::Table::num(o.acks_suppressed),
               analysis::Table::num(o.control_overhead, 4),
               analysis::Table::num(o.evictions),
               analysis::Table::num(o.sheds),
               analysis::Table::num(o.unrecovered + o.unrecovered_rejoined)});
  };

  std::vector<double> goodput_off, goodput_on, goodput_ad;
  std::vector<double> fairness_off, fairness_on, fairness_ad;
  std::uint64_t total_deferred = 0, total_credit_msgs = 0;
  std::uint64_t total_credit_msgs_ad = 0, total_suppressed_ad = 0;
  std::uint64_t credit_bytes_on = 0, credit_bytes_ad = 0;
  std::uint64_t delivered_on = 0, delivered_ad = 0;
  std::size_t saturated_points = 0, strictly_better = 0;
  bool flow_never_worse = true;
  bool adaptive_never_worse = true;
  double min_fairness_on = 1.0, min_fairness_ad = 1.0;
  for (std::size_t senders : sender_counts) {
    harness::StreamOutcome pair[2];
    for (bool flow_on : {false, true}) {
      harness::StreamOutcome o = run(scenario, senders, flow_on);
      pair[flow_on ? 1 : 0] = o;
      add_row(senders, flow_on ? "windowed" : "unpaced", o);
      if (flow_on) {
        total_deferred += o.deferred;
        total_credit_msgs += o.credit_msgs;
        credit_bytes_on += o.credit_bytes;
        delivered_on += o.delivered_payload_bytes;
      }
    }
    harness::StreamOutcome ad = run(adaptive, senders, true);
    add_row(senders, "adaptive", ad);
    total_credit_msgs_ad += ad.credit_msgs;
    total_suppressed_ad += ad.acks_suppressed;
    credit_bytes_ad += ad.credit_bytes;
    delivered_ad += ad.delivered_payload_bytes;
    goodput_off.push_back(pair[0].goodput);
    goodput_on.push_back(pair[1].goodput);
    goodput_ad.push_back(ad.goodput);
    fairness_off.push_back(pair[0].fairness);
    fairness_on.push_back(pair[1].fairness);
    fairness_ad.push_back(ad.fairness);
    if (pair[1].goodput < pair[0].goodput) flow_never_worse = false;
    if (ad.goodput < pair[1].goodput) adaptive_never_worse = false;
    if (pair[1].fairness < min_fairness_on) min_fairness_on = pair[1].fairness;
    if (ad.fairness < min_fairness_ad) min_fairness_ad = ad.fairness;
    // A saturation point: the unpaced crowd loses messages for good.
    if (pair[0].goodput < 0.999) {
      ++saturated_points;
      if (pair[1].goodput > pair[0].goodput) ++strictly_better;
    }
  }

  // Churn pair at the largest crowd: the last receiver crashes a third of
  // the way through the burst and rejoins two thirds through. The
  // churn-safe credit seeding (joiner cursors start at the sender's current
  // floor, departed cursors dropped at view-change time) must keep both
  // window modes from wedging on the joiner's empty receive state.
  const Duration burst =
      scenario.send_interval * static_cast<std::int64_t>(scenario.messages);
  const MemberId victim = static_cast<MemberId>(scenario.region_size - 1);
  harness::FaultScript churn;
  churn.crash(TimePoint::zero() + burst / 3, {victim});
  churn.rejoin(TimePoint::zero() + (burst * 2) / 3, {victim});
  std::size_t big = sender_counts.back();
  harness::StreamOutcome cw = run(scenario, big, true, churn);
  harness::StreamOutcome ca = run(adaptive, big, true, churn);
  add_row(big, "windowed+churn", cw);
  add_row(big, "adaptive+churn", ca);

  t.print(std::cout);
  bench::maybe_write_csv("ext_overload_sweep", t);

  double overhead_on = delivered_on == 0
                           ? 0.0
                           : static_cast<double>(credit_bytes_on) /
                                 static_cast<double>(delivered_on);
  double overhead_ad = delivered_ad == 0
                           ? 0.0
                           : static_cast<double>(credit_bytes_ad) /
                                 static_cast<double>(delivered_ad);
  double overhead_ratio = overhead_ad == 0.0 ? 0.0 : overhead_on / overhead_ad;

  bench::JsonReport report("ext_overload_sweep");
  report.add_table("flash-crowd goodput by sender count", t);
  report.add_scalar("min_goodput_unpaced", goodput_off.back());
  report.add_scalar("min_goodput_windowed", goodput_on.back());
  report.add_scalar("min_fairness_unpaced",
                    *std::min_element(fairness_off.begin(), fairness_off.end()));
  report.add_scalar("min_fairness_windowed", min_fairness_on);
  report.add_scalar("saturated_points", static_cast<double>(saturated_points));
  report.add_scalar("strictly_better_points",
                    static_cast<double>(strictly_better));
  report.add_scalar("total_deferred", static_cast<double>(total_deferred));
  report.add_scalar("total_credit_msgs",
                    static_cast<double>(total_credit_msgs));
  report.add_scalar("min_goodput_adaptive", goodput_ad.back());
  report.add_scalar("min_fairness_adaptive", min_fairness_ad);
  report.add_scalar("total_credit_msgs_adaptive",
                    static_cast<double>(total_credit_msgs_ad));
  report.add_scalar("total_acks_suppressed_adaptive",
                    static_cast<double>(total_suppressed_ad));
  report.add_scalar("control_overhead_windowed", overhead_on);
  report.add_scalar("control_overhead_adaptive", overhead_ad);
  report.add_scalar("control_overhead_ratio", overhead_ratio);
  report.add_scalar("goodput_windowed_churn", cw.goodput);
  report.add_scalar("goodput_adaptive_churn", ca.goodput);
  report.add_scalar("stall_releases_churn",
                    static_cast<double>(cw.stall_releases + ca.stall_releases));

  report.verdict(saturated_points > 0,
                 "the crowd actually saturates the unpaced protocol "
                 "(goodput below 1 at some sender count)");
  report.verdict(strictly_better == saturated_points,
                 "at every saturated point the windowed runs deliver "
                 "strictly higher goodput");
  report.verdict(flow_never_worse,
                 "flow control never reduces goodput");
  report.verdict(min_fairness_on >= 0.9,
                 "windowed per-sender fairness stays bounded (Jain index "
                 ">= 0.9 at every point)");
  report.verdict(total_deferred > 0 && total_credit_msgs > 0,
                 "the window/credit machinery actually engaged (sends "
                 "deferred, CreditAcks on the wire)");
  report.verdict(adaptive_never_worse,
                 "AIMD + piggybacking matches the static window's goodput "
                 "at every crowd size");
  report.verdict(total_suppressed_ad > 0,
                 "cursor piggybacking actually suppressed standalone "
                 "CreditAcks");
  report.verdict(overhead_ratio >= 2.0,
                 "piggybacking cuts CreditAck bytes per delivered payload "
                 "byte by at least 2x");
  // Liveness, not delivery: the rejoined member's pre-crash history may be
  // legitimately unrecoverable under the 4 KB budgets (all_received then
  // caps goodput below 1), but a wedged window would leave senders stuck
  // mid-schedule forever. Every sender finishing its schedule is the
  // witness that the churn-safe credit state (seeded joiner cursors,
  // view-change cursor drops, stalled-cursor release) kept the window live.
  report.verdict(cw.senders_completed == big && ca.senders_completed == big,
                 "mid-burst crash + rejoin does not wedge either window "
                 "mode (every sender completes its schedule)");
  report.verdict(ca.goodput + 0.05 >= cw.goodput,
                 "adaptive churn goodput stays within 5% of the static "
                 "window's");
  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
