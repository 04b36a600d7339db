// Ablation A4 — the paper's positioning (§1, §3.4): two-phase buffering vs
// every scheme it is compared against.
//
//   buffer-everything : RMTP-style repair server; storage grows unbounded.
//   fixed-time        : Bimodal Multicast; a fixed TTL either wastes memory
//                       or (too short) risks unrecoverable losses.
//   stability         : discard only when the whole region acked — safe but
//                       pays continuous history-exchange traffic.
//   hash-based        : the authors' earlier deterministic scheme [11] —
//                       similar storage to two-phase, no search traffic,
//                       but O(region) hashing per message and no graceful
//                       handoff story.
//   two-phase         : this paper.
//
// One lossy 80-message stream through a 60-member region under every
// policy, identical seeds.
#include <iostream>

#include "analysis/table.h"
#include "bench_util.h"
#include "harness/experiments.h"

int main() {
  using namespace rrmp;
  harness::StreamScenario scenario;
  scenario.region_size = 60;
  scenario.messages = 80;
  scenario.data_loss = 0.05;
  scenario.seed = 0xAB4'0001;

  bench::banner(
      "Ablation A4: buffer policies on a lossy 80-message stream",
      "n = 60, 5% per-receiver loss on the initial multicast, payload 256 B.\n"
      "occupancy = time-averaged buffered messages per member;\n"
      "control = session+request+search+history+handoff+digest+shed messages.");

  analysis::Table t({"policy", "delivered", "unrecovered", "peak/member",
                     "occupancy/member", "final total", "recovery ms",
                     "control msgs", "control KB"});
  double everything_final = 0, two_phase_final = 0, two_phase_occ = 0;
  std::uint64_t stability_ctrl = 0, two_phase_ctrl = 0;
  bool all_ok = true;
  for (auto kind :
       {buffer::PolicyKind::kTwoPhase, buffer::PolicyKind::kFixedTime,
        buffer::PolicyKind::kBufferEverything, buffer::PolicyKind::kHashBased,
        buffer::PolicyKind::kStability}) {
    harness::StreamOutcome o = harness::run_stream_scenario(kind, scenario);
    if (kind == buffer::PolicyKind::kBufferEverything) {
      everything_final = o.final_buffered_total;
    }
    if (kind == buffer::PolicyKind::kTwoPhase) {
      two_phase_final = o.final_buffered_total;
      two_phase_occ = o.mean_occupancy_per_member;
      two_phase_ctrl = o.control_msgs;
      all_ok = all_ok && o.goodput == 1.0;
    }
    if (kind == buffer::PolicyKind::kStability) {
      stability_ctrl = o.control_msgs;
    }
    t.add_row({o.policy, o.goodput == 1.0 ? "all" : "INCOMPLETE",
               analysis::Table::num(o.unrecovered),
               analysis::Table::num(o.peak_buffer_per_member, 0),
               analysis::Table::num(o.mean_occupancy_per_member, 1),
               analysis::Table::num(o.final_buffered_total, 0),
               analysis::Table::num(o.mean_recovery_ms, 1),
               analysis::Table::num(o.control_msgs),
               analysis::Table::num(
                   static_cast<double>(o.control_bytes) / 1024.0, 0)});
  }
  t.print(std::cout);
  bench::maybe_write_csv("baseline_policies", t);

  bool storage_win = two_phase_final < 0.25 * everything_final;
  bool traffic_win = two_phase_ctrl < stability_ctrl / 2;
  std::cout << "two-phase residual buffer: " << two_phase_final << " msgs vs "
            << everything_final << " for buffer-everything; occupancy/member "
            << two_phase_occ << "\n";

  bench::JsonReport report("baseline_policies");
  report.add_table("buffering policy comparison", t);
  report.add_scalar("two_phase_final_buffered", two_phase_final);
  report.add_scalar("everything_final_buffered", everything_final);
  report.add_scalar("two_phase_occupancy_per_member", two_phase_occ);
  report.verdict(all_ok && storage_win && traffic_win,
                 "two-phase delivers everything with a fraction of the "
                 "storage of repair-server buffering and a fraction of the "
                 "control traffic of stability detection");
  report.write_if_requested();
  return (all_ok && storage_win && traffic_win) ? 0 : 1;
}
