// Experiment drivers: one function per figure/ablation of the paper,
// shared by the bench binaries and the property tests.
//
// Every driver is deterministic in its seed. Times are reported in
// milliseconds, matching the paper's axes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/factory.h"
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

// ---- Ablation A4: buffer policy comparison on a lossy stream --------------

struct StreamScenario {
  std::size_t region_size = 60;
  std::size_t messages = 80;
  Duration send_interval = Duration::millis(5);
  double data_loss = 0.05;
  std::size_t payload_bytes = 256;
  Duration drain = Duration::millis(600);
  std::uint64_t seed = 1;
  /// Per-member buffer budget (zero fields = unlimited, the paper's runs;
  /// the capacity and coordination sweeps vary max_bytes).
  buffer::BufferBudget budget;
  /// Cooperative region-wide budget coordination (disabled = PR 4
  /// uncoordinated behaviour, bit for bit).
  buffer::CoordinationParams coordination;
};

struct PolicyOutcome {
  std::string policy;
  bool all_delivered = false;
  /// Fraction of streamed messages every alive member received.
  double delivered_fraction = 0.0;
  std::uint64_t unrecovered = 0;        // open recoveries at the end
  double peak_buffer_per_member = 0.0;  // max_m peak buffered msg count
  double peak_bytes_per_member = 0.0;   // max_m peak buffered bytes
  double mean_occupancy_per_member = 0.0;  // time-avg buffered msgs/member
  double final_buffered_total = 0.0;    // msgs still buffered at the end
  double mean_recovery_ms = 0.0;
  /// Detected losses that were eventually repaired, as a fraction (1.0 when
  /// nothing was lost).
  double recovery_success = 1.0;
  std::uint64_t evictions = 0;  // budget-forced departures across members
  std::uint64_t sheds = 0;      // budget-forced departures relocated to a
                                // neighbor (coordination only) — counted
                                // apart from evictions: these copies survive
  std::uint64_t rejected = 0;   // admissions refused (msg > whole budget)
  std::uint64_t control_msgs = 0;   // requests/search/session/history/gossip
  std::uint64_t control_bytes = 0;
  std::uint64_t repair_msgs = 0;
  std::uint64_t digest_msgs = 0;    // BufferDigest multicasts (coordination)
};

PolicyOutcome run_stream_scenario(buffer::PolicyKind kind,
                                  const StreamScenario& scenario,
                                  const ExperimentDefaults& defaults = {});

// ---- Extension: flash-crowd overload (flow control) -------------------------

/// A flash crowd: `senders` members of one region all stream
/// `messages_per_sender` multicasts at the same instants into tight
/// per-member buffer budgets (coordination on). Without flow control every
/// budget overruns simultaneously and the region sheds copies it then cannot
/// recover; with it, windows pace the senders to what receivers absorb.
struct OverloadScenario {
  std::size_t region_size = 24;
  std::size_t messages_per_sender = 30;
  Duration send_interval = Duration::millis(2);
  double data_loss = 0.05;
  std::size_t payload_bytes = 512;
  /// Post-stream settle time. Must cover the credit-paced tail: a windowed
  /// sender still holds queued frames when the unpaced schedule ends.
  Duration drain = Duration::millis(1500);
  std::uint64_t seed = 1;
  std::size_t budget_bytes = 4096;  // per-member buffer budget
  std::uint32_t window_size = 8;
  Duration ack_interval = Duration::millis(5);

  /// AIMD window sizing + cursor piggybacking (the adaptive flow mode).
  /// All off by default: the static-window run is bit-identical to the
  /// pre-adaptive harness.
  bool adaptive = false;
  bool piggyback = false;

  /// Churn axis: crash one non-sender receiver a third of the way through
  /// the burst and rejoin it two thirds through — the joiner-mid-flash-crowd
  /// case the churn-safe credit state exists for.
  bool churn = false;
};

struct OverloadOutcome {
  std::size_t senders = 0;
  bool flow_on = false;
  /// Fraction of all streamed messages every region member received.
  double goodput = 0.0;
  /// Jain's fairness index over per-sender fully-delivered counts (1 =
  /// perfectly even, 1/senders = one sender got everything through).
  double fairness = 1.0;
  std::uint64_t deferred = 0;     // multicasts queued awaiting credit
  std::uint64_t credit_msgs = 0;  // CreditAck frames on the wire
  std::uint64_t evictions = 0;
  std::uint64_t sheds = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t credit_bytes = 0;       // CreditAck wire bytes
  std::uint64_t acks_suppressed = 0;    // piggyback-suppressed CreditAcks
  std::uint64_t stall_remcasts = 0;     // sender stall re-multicasts
  std::uint64_t stall_releases = 0;     // stalled-cursor releases (churn)
  /// Senders that completed their full schedule (send_seq reached the
  /// scenario's messages_per_sender) — the churn liveness witness: a
  /// wedged window leaves frames queued forever.
  std::size_t senders_completed = 0;
  /// Payload bytes of fully-delivered streams (the goodput numerator in
  /// bytes) — the control-overhead denominator.
  std::uint64_t delivered_payload_bytes = 0;
  /// CreditAck bytes per delivered payload byte: what the credit channel
  /// costs per byte of useful, fully-delivered stream. 0 when nothing was
  /// delivered.
  double control_overhead = 0.0;
};

OverloadOutcome run_overload_point(std::size_t senders, bool flow_on,
                                   const OverloadScenario& scenario,
                                   const ExperimentDefaults& defaults = {});

// ---- Extension: fault-injection degradation sweep ---------------------------

/// The degradation grid: one flash-crowd workload (budget coordination +
/// windowed flow control on) per hostile-network cell. Each cell builds its
/// fault timeline programmatically with FaultScript, so the sweep exercises
/// the scripted-fault path end to end, not just the primitives.
enum class FaultCell {
  kClean,       ///< no faults: the control every other cell degrades from
  kPartition,   ///< minority receiver group severed a third into the burst,
                ///< healed when the burst ends — recovery must complete
                ///< during drain
  kLossyEdge,   ///< ~10% of receivers behind persistently lossy links
  kChurnStorm,  ///< half the non-sender receivers crash a third into the
                ///< burst and rejoin two thirds through
  kDigestLoss,  ///< control-plane loss spike mid-burst (digests, credit
                ///< acks, requests and repairs all drop), restored two
                ///< thirds through
};

const char* fault_cell_name(FaultCell cell);

struct FaultScenario {
  std::size_t region_size = 24;
  std::size_t senders = 4;
  std::size_t messages_per_sender = 30;
  Duration send_interval = Duration::millis(2);
  double data_loss = 0.05;
  std::size_t payload_bytes = 512;
  /// Post-burst settle time. Must cover post-heal backfill — partitioned and
  /// rejoined members recover their missed tail here — not just the
  /// credit-paced send tail.
  Duration drain = Duration::millis(2500);
  std::uint64_t seed = 1;
  std::size_t budget_bytes = 4096;  // per-member buffer budget
  std::uint32_t window_size = 8;
  Duration ack_interval = Duration::millis(5);

  // Cell knobs.
  double edge_loss = 0.10;       ///< kLossyEdge per-link drop rate
  double lossy_fraction = 0.10;  ///< fraction of members behind lossy edges
  double churn_fraction = 0.50;  ///< fraction of non-senders crashed
  double spike_loss = 0.60;      ///< kDigestLoss control-plane loss rate
};

struct FaultOutcome {
  FaultCell cell = FaultCell::kClean;
  std::size_t senders = 0;
  /// Fraction of all streamed messages every *alive* region member received.
  double goodput = 0.0;
  /// Jain's fairness index over per-sender fully-delivered counts.
  double fairness = 1.0;
  /// Detected losses eventually repaired, as a fraction (1.0 when nothing
  /// was lost). Members that crash with open recoveries leave them
  /// unrepaired by construction, so the churn cell sits below 1.0.
  double recovery_success = 1.0;
  double mean_recovery_ms = 0.0;
  /// Open recoveries at the end on members that kept their state (never
  /// crashed): the post-heal liveness witness — every cell must drain this
  /// to zero. Partitioned members count here: a partition severs links, not
  /// state, so their backfill must always complete.
  std::uint64_t unrecovered = 0;
  /// Open recoveries at the end on crash-and-rejoined members. A rejoiner
  /// starts empty and backfills its pre-crash history from whatever copies
  /// the region still holds; under budget pressure some of that history is
  /// legitimately gone, and the exhausted recovery tasks stay counted here.
  std::uint64_t unrecovered_rejoined = 0;
  /// Senders whose full schedule went out (a wedged flow window leaves
  /// frames queued forever).
  std::size_t senders_completed = 0;
  std::uint64_t severed = 0;    // packets dropped at the partition wall
  std::uint64_t deferred = 0;   // multicasts queued awaiting credit
  std::uint64_t stall_releases = 0;  // stalled-cursor credit releases
  std::uint64_t evictions = 0;
  std::uint64_t sheds = 0;
};

FaultOutcome run_fault_cell(FaultCell cell, const FaultScenario& scenario,
                            const ExperimentDefaults& defaults = {});

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
  /// Sub-shard regions larger than this many members into chunk lanes
  /// (ClusterConfig::sub_shard_members); 0 = one lane per region.
  std::size_t sub_shard_members = 0;
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
