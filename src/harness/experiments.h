// Experiment drivers: one function per figure/ablation of the paper,
// shared by the bench binaries and the property tests. The lossy-stream
// experiments (the A4 policy comparison and the capacity, coordination,
// overload and fault sweeps) share one driver, run_stream_scenario, which
// takes any FaultScript.
//
// Every driver is deterministic in its seed. Times are reported in
// milliseconds, matching the paper's axes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/factory.h"
#include "harness/fault_script.h"
#include "rrmp/config.h"

namespace rrmp::harness {

// Paper defaults used throughout §4: region RTT 10 ms, T = 40 ms, C = 6.
struct ExperimentDefaults {
  Duration intra_rtt = Duration::millis(10);
  Duration idle_threshold = Duration::millis(40);
  double C = 6.0;
  /// Worker threads for trial-level fan-out in the sweep drivers
  /// (mean_search_ms): trials are independent clusters, so results are
  /// byte-identical for every value. 1 = sequential, 0 = hardware
  /// concurrency. Single-cluster drivers ignore this (pass
  /// ClusterConfig::shards for region-level sharding instead).
  std::size_t shards = 1;
};

// ---- Figure 6: feedback-based short-term buffering ----------------------

struct Fig6Result {
  std::size_t initial_holders = 0;
  /// Mean time the *initial* holders kept the message buffered before the
  /// idle decision (discard or long-term promotion), ms.
  double mean_buffer_ms = 0.0;
  std::size_t samples = 0;
};

Fig6Result run_fig6_point(std::size_t initial_holders, std::size_t region_size,
                          std::size_t trials, std::uint64_t seed,
                          const ExperimentDefaults& defaults = {});

// ---- Figure 7: #received vs #buffered over time --------------------------

struct Fig7Series {
  std::vector<double> t_ms;
  std::vector<std::size_t> received;
  std::vector<std::size_t> buffered;
};

Fig7Series run_fig7(std::size_t region_size, std::uint64_t seed,
                    Duration horizon, Duration sample_every,
                    const ExperimentDefaults& defaults = {});

// ---- Figures 8/9: search for bufferers -----------------------------------

struct SearchResult {
  double search_ms = 0.0;  // 0 when the request lands on a bufferer
  bool found = false;
};

/// One search trial: a region of `region_size` members where everyone
/// received and discarded the message except `bufferers` randomly chosen
/// long-term holders; a remote request from a downstream member arrives at
/// a random region member; returns the time until a bufferer repairs the
/// requester (§3.3, Figures 8/9).
SearchResult run_search_once(std::size_t region_size, std::size_t bufferers,
                             std::uint64_t seed,
                             const ExperimentDefaults& defaults = {});

/// Mean over `trials` independent seeds. Trials fan out across
/// `defaults.shards` worker threads; the sample order (and therefore the
/// mean) is identical for any shard count.
double mean_search_ms(std::size_t region_size, std::size_t bufferers,
                      std::size_t trials, std::uint64_t seed,
                      const ExperimentDefaults& defaults = {});

// ---- Figures 3/4: long-term bufferer distribution -------------------------

struct LongTermDistribution {
  std::vector<double> pmf;  // pmf[k] = P(k long-term bufferers), k <= max_k
  double p_none = 0.0;      // probability of zero bufferers
  double mean = 0.0;
};

/// Monte Carlo of the §3.2 randomized long-term decision across a region
/// (each member keeps an idle message with probability C/n). The policy-level
/// equivalent is validated in the integration tests; this samples the same
/// rule directly so the benches can afford millions of trials.
LongTermDistribution simulate_longterm_distribution(std::size_t region_size,
                                                    double C,
                                                    std::size_t trials,
                                                    std::uint64_t seed,
                                                    std::size_t max_k);

// ---- Ablation A3: expected remote requests == lambda ----------------------

struct LambdaResult {
  double mean_first_round = 0.0;  // remote requests in the first round
  double mean_recovery_ms = 0.0;  // until the region is fully repaired
};

LambdaResult run_lambda_experiment(double lambda, std::size_t region_size,
                                   std::size_t parent_size, std::size_t trials,
                                   std::uint64_t seed,
                                   const ExperimentDefaults& defaults = {});

// ---- Ablation A2: random search vs multicast query ------------------------

struct SearchStrategyOutcome {
  std::string strategy;
  double mean_replies = 0.0;    // repairs sent to the requester per search
  double mean_search_ms = 0.0;  // time to the first repair
};

/// `holders` of `region_size` members still buffer the message when the
/// query arrives at a member that discarded it prematurely. With many
/// holders the back-off window (proportional to C) is far too short and the
/// multicast query implodes (§3.3).
SearchStrategyOutcome run_search_strategy(Config::SearchStrategy strategy,
                                          std::size_t region_size,
                                          std::size_t holders,
                                          std::size_t trials,
                                          std::uint64_t seed,
                                          const ExperimentDefaults& defaults = {});

// ---- The lossy stream: A4, capacity, coordination, overload, faults -------

/// One region streams multicasts into its buffers, optionally under a fault
/// timeline. Members 0..senders-1 each multicast `messages` frames of
/// `payload_bytes`, all at the same instants `send_interval` apart, then the
/// region drains. One sender is the A4 policy comparison and the capacity and
/// coordination sweeps; several senders into tight budgets are the flash crowd
/// of the overload and fault sweeps.
struct StreamScenario {
  std::size_t region_size = 60;
  std::size_t senders = 1;
  std::size_t messages = 80;  ///< per sender
  Duration send_interval = Duration::millis(5);
  double data_loss = 0.05;
  std::size_t payload_bytes = 256;
  /// Settle time after the last send instant. It must cover a windowed
  /// sender's credit-paced tail and any post-fault backfill.
  Duration drain = Duration::millis(600);
  std::uint64_t seed = 1;
  /// Per-member buffer budget (zero fields = unlimited, the paper's runs).
  buffer::BufferBudget budget;
  /// Cooperative region-wide budget coordination.
  buffer::CoordinationParams coordination;
  /// Windowed send admission with credit feedback.
  FlowControlParams flow;
};

struct StreamOutcome {
  std::string policy;
  std::size_t senders = 0;
  /// Fraction of streamed messages every alive member received.
  double goodput = 0.0;
  /// Jain's fairness index over per-sender fully-delivered counts (1 =
  /// perfectly even, 1/senders = one sender got everything through).
  double fairness = 1.0;
  /// Senders whose full schedule went out (a wedged flow window leaves
  /// frames queued forever).
  std::size_t senders_completed = 0;
  /// Open recoveries at the end on alive members that no crash event named.
  /// A partition severs links, not state, so partitioned members count here.
  std::uint64_t unrecovered = 0;
  /// Open recoveries at the end on crashed-and-rejoined members. A rejoiner
  /// starts empty, and under budget pressure some of its pre-crash history is
  /// legitimately gone.
  std::uint64_t unrecovered_rejoined = 0;
  /// Detected losses eventually repaired, as a fraction (1.0 when nothing
  /// was lost).
  double recovery_success = 1.0;
  double mean_recovery_ms = 0.0;
  double peak_buffer_per_member = 0.0;  // max_m peak buffered msg count
  double peak_bytes_per_member = 0.0;   // max_m peak buffered bytes
  double mean_occupancy_per_member = 0.0;  // time-avg buffered msgs/member
  double final_buffered_total = 0.0;    // msgs still buffered at the end
  std::uint64_t evictions = 0;  // budget-forced departures across members
  std::uint64_t sheds = 0;      // budget-forced departures relocated to a
                                // neighbor (coordination only) — counted
                                // apart from evictions: these copies survive
  std::uint64_t rejected = 0;   // admissions refused (msg > whole budget)
  std::uint64_t control_msgs = 0;   // session/request/search/history/
                                    // handoff/digest/shed frames
  std::uint64_t control_bytes = 0;
  std::uint64_t repair_msgs = 0;
  std::uint64_t digest_msgs = 0;    // BufferDigest multicasts (coordination)
  std::uint64_t deferred = 0;       // multicasts queued awaiting credit
  std::uint64_t credit_msgs = 0;    // CreditAck frames on the wire
  std::uint64_t credit_bytes = 0;   // CreditAck wire bytes
  std::uint64_t acks_suppressed = 0;  // piggyback-suppressed CreditAcks
  std::uint64_t stall_releases = 0;   // stalled-cursor credit releases
  std::uint64_t severed = 0;  // packets dropped at a partition wall
  /// Payload bytes of fully-delivered streams (the goodput numerator in
  /// bytes).
  std::uint64_t delivered_payload_bytes = 0;
  /// CreditAck bytes per delivered payload byte: what the credit channel
  /// costs per byte of useful stream. 0 when nothing was delivered.
  double control_overhead = 0.0;
};

/// Runs the stream under `kind`'s paper-default policy
/// (buffer::default_spec) with `faults` scheduled after the sends, so a fault
/// due at a send instant fires after that instant's multicasts.
StreamOutcome run_stream_scenario(buffer::PolicyKind kind,
                                  const StreamScenario& scenario,
                                  const FaultScript& faults = {});

/// The fault sweep's hostile-network cells, each a FaultScript timeline over
/// a flash-crowd stream. Victims come from the tail of the member range, so
/// they never overlap the senders at the front; "the burst" is the stream's
/// messages × send_interval.
enum class FaultCell {
  kClean,       ///< no faults: the control every other cell degrades from
  kPartition,   ///< a third of the non-senders severed a third into the
                ///< burst, healed when the burst ends — recovery must
                ///< complete during drain
  kLossyEdge,   ///< 10% of the members behind links that drop 10%
  kChurnStorm,  ///< half the non-senders crash a third into the burst and
                ///< rejoin two thirds through
  kDigestLoss,  ///< 60% control-plane loss a third into the burst (digests,
                ///< credit acks, requests and repairs all drop), restored
                ///< two thirds through
};

const char* fault_cell_name(FaultCell cell);

FaultScript fault_cell_script(FaultCell cell, const StreamScenario& scenario);

// ---- Extension: hierarchical repair makespan --------------------------------

/// One point of the repair-tree makespan sweep: a complete `fanout`-ary
/// region tree `depth` levels deep below the root, `region_size` members
/// per region, hierarchical repair on. Only the root region holds the
/// message at t=0; every other member learns of it via Session and must
/// recover it through the repair tree (region representative -> parent
/// representative -> ... -> root). Makespan = time of the last delivery.
struct MakespanScenario {
  std::size_t fanout = 2;
  std::size_t depth = 2;  ///< region-tree levels below the root region
  std::size_t region_size = 12;
  std::uint64_t seed = 1;
  Duration quiet_cap = Duration::seconds(120);
  /// Worker threads for the per-epoch lane loop (ClusterConfig::shards).
  std::size_t shards = 1;
  std::size_t payload_bytes = 64;
};

struct MakespanOutcome {
  std::size_t members = 0;
  std::size_t regions = 0;
  bool all_recovered = false;
  double makespan_ms = 0.0;  ///< simulated time of the last delivery
  std::uint64_t local_requests = 0;
  std::uint64_t remote_requests = 0;  ///< Escalates + root-fallback requests
  std::uint64_t events = 0;           ///< simulator events fired (witness)
};

MakespanOutcome run_makespan_point(const MakespanScenario& scenario,
                                   const ExperimentDefaults& defaults = {});

// ---- Ablation A5: handoff under churn --------------------------------------

struct ChurnOutcome {
  std::size_t trials = 0;
  std::size_t recovered = 0;  // late request answered despite bufferer churn
  double mean_recovery_ms = 0.0;
};

/// All long-term bufferers of a message depart; `with_handoff` uses graceful
/// leaves (buffers transfer, §3.2), otherwise crashes. A downstream request
/// then probes whether the message survived.
ChurnOutcome run_churn_handoff(bool with_handoff, std::size_t region_size,
                               std::size_t trials, std::uint64_t seed,
                               const ExperimentDefaults& defaults = {});

// ---- Ablation A1: feedback formula -----------------------------------------

/// Monte Carlo of §3.1: fraction of members receiving zero requests when
/// n*p members each send one request to a uniformly random other member.
double simulate_no_request_probability(std::size_t region_size, double p,
                                       std::size_t trials, std::uint64_t seed);

}  // namespace rrmp::harness
