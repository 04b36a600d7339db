#include "harness/experiments.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "analysis/stats.h"
#include "harness/cluster.h"
#include "harness/fault_script.h"
#include "harness/shard_pool.h"

namespace rrmp::harness {
namespace {

ClusterConfig base_config(const ExperimentDefaults& d) {
  ClusterConfig cc;
  cc.intra_rtt = d.intra_rtt;
  cc.policy = buffer::TwoPhaseParams{d.idle_threshold, d.C};
  return cc;
}

/// Per-policy spec for the comparison sweeps, derived from the paper
/// defaults the same way the old PolicyParams union was.
buffer::PolicySpec spec_for(buffer::PolicyKind kind,
                            const ExperimentDefaults& d) {
  switch (kind) {
    case buffer::PolicyKind::kTwoPhase:
      return buffer::TwoPhaseParams{d.idle_threshold, d.C};
    case buffer::PolicyKind::kFixedTime:
      return buffer::FixedTimeParams{Duration::millis(100)};
    case buffer::PolicyKind::kBufferEverything:
      return buffer::BufferEverythingParams{};
    case buffer::PolicyKind::kHashBased:
      return buffer::HashBasedParams{static_cast<std::size_t>(d.C),
                                     d.idle_threshold};
    case buffer::PolicyKind::kStability: return buffer::StabilityParams{};
  }
  return buffer::TwoPhaseParams{d.idle_threshold, d.C};
}

std::vector<MemberId> pick_members(const std::vector<MemberId>& pool,
                                   std::size_t k, RandomEngine& rng) {
  std::vector<std::size_t> idx = rng.sample_indices(pool.size(), k);
  std::vector<MemberId> out;
  out.reserve(k);
  for (std::size_t i : idx) out.push_back(pool[i]);
  return out;
}

/// Flash crowd: members 0..senders-1 each multicast `messages` frames of
/// `bytes` bytes, all at the *same* instants, `interval` apart.
void schedule_flash_crowd(Cluster& cluster, std::size_t senders,
                          std::size_t messages, Duration interval,
                          std::size_t bytes) {
  for (std::size_t i = 0; i < messages; ++i) {
    TimePoint at = TimePoint::zero() + interval * static_cast<std::int64_t>(i);
    for (MemberId s = 0; s < static_cast<MemberId>(senders); ++s) {
      cluster.schedule_script(at, [&cluster, s, bytes] {
        cluster.endpoint(s).multicast(std::vector<std::uint8_t>(bytes, 0x5A));
      });
    }
  }
}

struct FlashCrowdTally {
  std::size_t fully_delivered = 0;  // streamed messages every member got
  double goodput = 1.0;
  double fairness = 1.0;
  std::size_t senders_completed = 0;
};

FlashCrowdTally tally_flash_crowd(const Cluster& cluster, std::size_t senders,
                                  std::size_t messages) {
  FlashCrowdTally out;
  double sum = 0.0, sumsq = 0.0;  // of per-sender fully-delivered counts
  for (MemberId s = 0; s < static_cast<MemberId>(senders); ++s) {
    std::size_t got = 0;
    for (std::uint64_t seq = 1; seq <= messages; ++seq) {
      if (cluster.all_received(MessageId{s, seq})) ++got;
    }
    out.fully_delivered += got;
    const double x = static_cast<double>(got);
    sum += x;
    sumsq += x * x;
    if (cluster.endpoint(s).highest_sent() >= messages) {
      ++out.senders_completed;
    }
  }
  std::size_t streamed = senders * messages;
  out.goodput = streamed == 0 ? 1.0
                              : static_cast<double>(out.fully_delivered) /
                                    static_cast<double>(streamed);
  // Jain's index: (sum x)^2 / (n * sum x^2); 1.0 for the degenerate
  // nothing-delivered case (no sender was favoured over another).
  out.fairness = sumsq == 0.0 ? 1.0
                              : (sum * sum) /
                                    (static_cast<double>(senders) * sumsq);
  return out;
}

}  // namespace

// ------------------------------------------------------------- Figure 6 ----

Fig6Result run_fig6_point(std::size_t initial_holders, std::size_t region_size,
                          std::size_t trials, std::uint64_t seed,
                          const ExperimentDefaults& defaults) {
  std::vector<double> samples;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    ClusterConfig cc = base_config(defaults);
    cc.region_sizes = {region_size};
    cc.seed = seed + trial * 7919;
    Cluster cluster(cc);

    RandomEngine pick_rng(seed ^ (trial * 0x9E3779B97F4A7C15ULL));
    std::vector<MemberId> holders =
        pick_members(cluster.region_members(0), initial_holders, pick_rng);
    // A holder's buffering time ends at its idle decision: either the
    // discard or the promotion to long-term (both happen at
    // last_activity + T), whichever buffer event first follows its store.
    const MessageId id{holders[0], 1};
    std::map<MemberId, TimePoint> closed;
    for (MemberId h : holders) {
      cluster.endpoint(h).buffer().set_observer(
          [&cluster, &closed, h, id](const MessageId& ev_id,
                                     buffer::BufferEvent ev, bool) {
            if (ev_id == id && ev != buffer::BufferEvent::kStored) {
              closed.try_emplace(h, cluster.host(h).now());
            }
          });
    }
    cluster.inject(holders[0], 1, holders);
    cluster.run_until_quiet(Duration::seconds(2));

    for (MemberId h : holders) {
      auto it = closed.find(h);
      if (it != closed.end()) samples.push_back(it->second.ms());
    }
  }
  Fig6Result r;
  r.initial_holders = initial_holders;
  r.mean_buffer_ms = analysis::mean(samples);
  r.samples = samples.size();
  return r;
}

// ------------------------------------------------------------- Figure 7 ----

Fig7Series run_fig7(std::size_t region_size, std::uint64_t seed,
                    Duration horizon, Duration sample_every,
                    const ExperimentDefaults& defaults) {
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes = {region_size};
  cc.seed = seed;
  Cluster cluster(cc);

  std::vector<MemberId> holders = {cluster.region_members(0)[0]};
  MessageId id = cluster.inject(holders[0], 1, holders);

  Fig7Series s;
  for (TimePoint t = TimePoint::zero(); t <= TimePoint::zero() + horizon;
       t = t + sample_every) {
    cluster.run_for(t - cluster.now());
    s.t_ms.push_back(t.ms());
    s.received.push_back(cluster.count_received(id));
    s.buffered.push_back(cluster.count_buffered(id));
  }
  return s;
}

// ---------------------------------------------------------- Figures 8/9 ----

SearchResult run_search_once(std::size_t region_size, std::size_t bufferers,
                             std::uint64_t seed,
                             const ExperimentDefaults& defaults) {
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes = {region_size, 1};  // region 1: the downstream requester
  cc.seed = seed;
  Cluster cluster(cc);

  std::vector<MemberId> region0 = cluster.region_members(0);
  MemberId requester = cluster.region_members(1)[0];
  MessageId id =
      cluster.inject_data_to(region0[0], 1, region0);  // everyone received it

  RandomEngine rng(seed ^ 0xFEEDFACEULL);
  std::unordered_set<MemberId> keep;
  for (MemberId b : pick_members(region0, bufferers, rng)) keep.insert(b);
  for (MemberId m : region0) {
    if (keep.count(m)) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }

  MemberId target = region0[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(region0.size()) - 1))];
  TimePoint t0 = cluster.now();
  cluster.inject_remote_request(target, id, requester);
  cluster.run_until_quiet(Duration::seconds(2));

  SearchResult r;
  TimePoint repaired = cluster.metrics().first_remote_repair(id);
  r.found = repaired != TimePoint::max();
  r.search_ms = r.found ? (repaired - t0).ms() : -1.0;
  return r;
}

double mean_search_ms(std::size_t region_size, std::size_t bufferers,
                      std::size_t trials, std::uint64_t seed,
                      const ExperimentDefaults& defaults) {
  // Trials are fully independent clusters, so they fan out across the shard
  // pool; collecting by trial index keeps the sample order — and the mean —
  // byte-identical for any shard count.
  std::vector<SearchResult> results(trials);
  ShardPool pool(ShardPool::resolve(defaults.shards, trials));
  pool.run(trials, [&](std::size_t t) {
    results[t] =
        run_search_once(region_size, bufferers, seed + t * 104729, defaults);
  });
  std::vector<double> xs;
  for (const SearchResult& r : results) {
    if (r.found) xs.push_back(r.search_ms);
  }
  return analysis::mean(xs);
}

// --------------------------------------------------------- Figures 3/4 ----

LongTermDistribution simulate_longterm_distribution(std::size_t region_size,
                                                    double C,
                                                    std::size_t trials,
                                                    std::uint64_t seed,
                                                    std::size_t max_k) {
  LongTermDistribution out;
  out.pmf.assign(max_k + 1, 0.0);
  RandomEngine rng(seed);
  double p = C / static_cast<double>(region_size);
  std::uint64_t none = 0;
  double total = 0.0;
  // Each member independently keeps the message with probability C/n, so the
  // bufferer count is Binomial(n, C/n): one O(1) draw per trial instead of n
  // Bernoullis (the 2M-trial Figure 4 sweep was O(trials·n)).
  for (std::size_t t = 0; t < trials; ++t) {
    std::uint64_t k = rng.binomial(region_size, p);
    if (k == 0) ++none;
    if (k <= max_k) out.pmf[k] += 1.0;
    total += static_cast<double>(k);
  }
  for (double& v : out.pmf) v /= static_cast<double>(trials);
  out.p_none = static_cast<double>(none) / static_cast<double>(trials);
  out.mean = total / static_cast<double>(trials);
  return out;
}

// ----------------------------------------------------------- Ablation A3 ----

LambdaResult run_lambda_experiment(double lambda, std::size_t region_size,
                                   std::size_t parent_size, std::size_t trials,
                                   std::uint64_t seed,
                                   const ExperimentDefaults& defaults) {
  std::vector<double> first_round;
  std::vector<double> completion_ms;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    ClusterConfig cc = base_config(defaults);
    cc.region_sizes = {parent_size, region_size};
    cc.protocol.lambda = lambda;
    cc.seed = seed + trial * 6151;
    Cluster cluster(cc);

    std::vector<MemberId> parent = cluster.region_members(0);
    std::vector<MemberId> child = cluster.region_members(1);
    MessageId id = cluster.inject_data_to(parent[0], 1, parent);
    cluster.inject_session_to(parent[0], 1, child);
    // Loss detection and first-round requests are synchronous at t=0.
    first_round.push_back(
        static_cast<double>(cluster.metrics().remote_requests_for(id)));

    cluster.run_until_quiet(Duration::seconds(3));
    if (cluster.all_received(id)) {
      completion_ms.push_back(cluster.metrics().last_delivery(id).ms());
    }
  }
  LambdaResult r;
  r.mean_first_round = analysis::mean(first_round);
  r.mean_recovery_ms = analysis::mean(completion_ms);
  return r;
}

// ----------------------------------------------------------- Ablation A2 ----

SearchStrategyOutcome run_search_strategy(Config::SearchStrategy strategy,
                                          std::size_t region_size,
                                          std::size_t holders,
                                          std::size_t trials,
                                          std::uint64_t seed,
                                          const ExperimentDefaults& defaults) {
  std::vector<double> replies;
  std::vector<double> times;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    ClusterConfig cc = base_config(defaults);
    cc.region_sizes = {region_size, 1};
    cc.protocol.search_strategy = strategy;
    cc.protocol.query_backoff_c = defaults.C;
    cc.seed = seed + trial * 3571;
    Cluster cluster(cc);

    std::vector<MemberId> region0 = cluster.region_members(0);
    MemberId requester = cluster.region_members(1)[0];
    MessageId id = cluster.inject_data_to(region0[0], 1, region0);

    RandomEngine rng(seed ^ (trial * 0xABCDEFULL) ^ 0x5555);
    std::unordered_set<MemberId> keep;
    for (MemberId b : pick_members(region0, holders, rng)) keep.insert(b);
    std::vector<MemberId> discarded;
    for (MemberId m : region0) {
      if (!keep.count(m)) {
        cluster.force_discard(m, id);
        discarded.push_back(m);
      }
    }
    if (discarded.empty()) continue;  // need a premature-idle entry point
    MemberId entry = discarded[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(discarded.size()) - 1))];
    cluster.inject_remote_request(entry, id, requester);
    cluster.run_until_quiet(Duration::seconds(1));

    // "Replies" = SearchFound announce multicasts: the paper's implosion
    // unit (one per member that answered the query before suppression).
    replies.push_back(
        static_cast<double>(cluster.metrics().counters().searches_completed));
    TimePoint t = cluster.metrics().first_remote_repair(id);
    if (t != TimePoint::max()) times.push_back(t.ms());
  }
  SearchStrategyOutcome out;
  out.strategy = strategy == Config::SearchStrategy::kRandomSearch
                     ? "random-search"
                     : "multicast-query";
  out.mean_replies = analysis::mean(replies);
  out.mean_search_ms = analysis::mean(times);
  return out;
}

// ----------------------------------------------------------- Ablation A4 ----

PolicyOutcome run_stream_scenario(buffer::PolicyKind kind,
                                  const StreamScenario& scenario,
                                  const ExperimentDefaults& defaults) {
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes = {scenario.region_size};
  cc.policy = spec_for(kind, defaults);
  cc.protocol.buffer_budget = scenario.budget;
  cc.protocol.buffer_coordination = scenario.coordination;
  cc.data_loss = scenario.data_loss;
  cc.seed = scenario.seed;
  Cluster cluster(cc);

  MemberId sender = 0;
  for (std::size_t i = 0; i < scenario.messages; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + scenario.send_interval * static_cast<std::int64_t>(i),
        [&cluster, sender, bytes = scenario.payload_bytes] {
          cluster.endpoint(sender).multicast(
              std::vector<std::uint8_t>(bytes, 0x5A));
        });
  }

  TimePoint end = TimePoint::zero() +
                  scenario.send_interval *
                      static_cast<std::int64_t>(scenario.messages) +
                  scenario.drain;
  std::vector<double> occupancy;
  std::function<void()> sampler = [&] {
    occupancy.push_back(static_cast<double>(cluster.total_buffered()));
    if (cluster.now() + Duration::millis(5) <= end) {
      cluster.schedule_script_after(Duration::millis(5), sampler);
    }
  };
  cluster.schedule_script_after(Duration::millis(5), sampler);
  cluster.run_for(end - TimePoint::zero());

  PolicyOutcome out;
  out.policy = buffer::to_string(kind);
  out.all_delivered = true;
  std::size_t fully_delivered = 0;
  for (std::uint64_t seq = 1; seq <= scenario.messages; ++seq) {
    if (cluster.all_received(MessageId{sender, seq})) {
      ++fully_delivered;
    } else {
      out.all_delivered = false;
    }
  }
  out.delivered_fraction =
      scenario.messages == 0
          ? 1.0
          : static_cast<double>(fully_delivered) /
                static_cast<double>(scenario.messages);
  std::size_t peak = 0, peak_bytes = 0;
  std::uint64_t open = 0;
  for (MemberId m = 0; m < cluster.size(); ++m) {
    const buffer::BufferStats& bs = cluster.endpoint(m).buffer().stats();
    peak = std::max(peak, bs.peak_count);
    peak_bytes = std::max(peak_bytes, bs.peak_bytes);
    out.evictions += bs.evicted;
    out.sheds += bs.shed;
    out.rejected += bs.rejected;
    open += cluster.endpoint(m).active_recoveries();
  }
  out.unrecovered = open;
  out.peak_buffer_per_member = static_cast<double>(peak);
  out.peak_bytes_per_member = static_cast<double>(peak_bytes);
  out.mean_occupancy_per_member =
      analysis::mean(occupancy) / static_cast<double>(scenario.region_size);
  out.final_buffered_total = static_cast<double>(cluster.total_buffered());
  std::vector<double> rec_ms;
  for (Duration d : cluster.metrics().recovery_latencies()) {
    rec_ms.push_back(d.ms());
  }
  out.mean_recovery_ms = analysis::mean(rec_ms);
  const auto& counters = cluster.metrics().counters();
  out.recovery_success =
      counters.losses_detected == 0
          ? 1.0
          : static_cast<double>(counters.recoveries) /
                static_cast<double>(counters.losses_detected);

  const net::TrafficStats& ts = cluster.network().stats();
  auto by_type = [&ts](proto::MessageType t) {
    return ts.sends_by_type[static_cast<std::size_t>(t)];
  };
  auto bytes_by_type = [&ts](proto::MessageType t) {
    return ts.bytes_by_type[static_cast<std::size_t>(t)];
  };
  using MT = proto::MessageType;
  for (MT t : {MT::kSession, MT::kLocalRequest, MT::kRemoteRequest,
               MT::kSearchRequest, MT::kSearchFound, MT::kHistory,
               MT::kHandoff, MT::kBufferDigest, MT::kShed}) {
    out.control_msgs += by_type(t);
    out.control_bytes += bytes_by_type(t);
  }
  out.repair_msgs = by_type(MT::kRepair) + by_type(MT::kRegionalRepair);
  out.digest_msgs = by_type(MT::kBufferDigest);
  return out;
}

// --------------------------------- Extension: flash-crowd overload ----

OverloadOutcome run_overload_point(std::size_t senders, bool flow_on,
                                   const OverloadScenario& scenario,
                                   const ExperimentDefaults& defaults) {
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes = {scenario.region_size};
  cc.protocol.buffer_budget.max_bytes = scenario.budget_bytes;
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(10);
  cc.protocol.flow.enabled = flow_on;
  cc.protocol.flow.window_size = scenario.window_size;
  cc.protocol.flow.ack_interval = scenario.ack_interval;
  cc.protocol.flow.adaptive = scenario.adaptive;
  cc.protocol.flow.piggyback = scenario.piggyback;
  cc.data_loss = scenario.data_loss;
  cc.seed = scenario.seed;
  Cluster cluster(cc);

  std::size_t n = std::min(senders, scenario.region_size);
  schedule_flash_crowd(cluster, n, scenario.messages_per_sender,
                       scenario.send_interval, scenario.payload_bytes);
  Duration burst = scenario.send_interval *
                   static_cast<std::int64_t>(scenario.messages_per_sender);
  if (scenario.churn && n < scenario.region_size) {
    // Churn axis: a non-sender receiver crashes a third of the way through
    // the burst and rejoins two thirds through — a joiner with no receive
    // state arriving mid-flash-crowd. Its seeded cursor must keep the
    // crowd's window floors from collapsing to 0 while it backfills.
    MemberId victim = static_cast<MemberId>(scenario.region_size - 1);
    cluster.schedule_script(TimePoint::zero() + burst / 3,
                            [&cluster, victim] { cluster.crash(victim); });
    cluster.schedule_script(TimePoint::zero() + (burst * 2) / 3,
                            [&cluster, victim] { cluster.rejoin(victim); });
  }
  Duration total = burst + scenario.drain;
  cluster.run_for(total);

  OverloadOutcome out;
  out.senders = n;
  out.flow_on = flow_on;
  const FlashCrowdTally tally =
      tally_flash_crowd(cluster, n, scenario.messages_per_sender);
  out.goodput = tally.goodput;
  out.fairness = tally.fairness;
  out.senders_completed = tally.senders_completed;
  for (MemberId m = 0; m < cluster.size(); ++m) {
    const buffer::BufferStats& bs = cluster.endpoint(m).buffer().stats();
    out.evictions += bs.evicted;
    out.sheds += bs.shed;
    out.rejected += bs.rejected;
    out.unrecovered += cluster.endpoint(m).active_recoveries();
  }
  out.deferred = cluster.metrics().counters().sends_deferred;
  out.credit_msgs = cluster.network().stats().sends_by_type[static_cast<
      std::size_t>(proto::MessageType::kCreditAck)];
  out.credit_bytes = cluster.network().stats().bytes_by_type[static_cast<
      std::size_t>(proto::MessageType::kCreditAck)];
  out.acks_suppressed = cluster.metrics().counters().credit_acks_suppressed;
  out.stall_remcasts = cluster.metrics().counters().flow_stall_remcasts;
  out.stall_releases = cluster.metrics().counters().flow_stall_releases;
  out.delivered_payload_bytes =
      static_cast<std::uint64_t>(tally.fully_delivered) *
      scenario.payload_bytes;
  out.control_overhead =
      out.delivered_payload_bytes == 0
          ? 0.0
          : static_cast<double>(out.credit_bytes) /
                static_cast<double>(out.delivered_payload_bytes);
  return out;
}

// --------------------------------- Extension: degradation sweep ----

const char* fault_cell_name(FaultCell cell) {
  switch (cell) {
    case FaultCell::kClean: return "clean";
    case FaultCell::kPartition: return "partition";
    case FaultCell::kLossyEdge: return "lossy-edge";
    case FaultCell::kChurnStorm: return "churn-storm";
    case FaultCell::kDigestLoss: return "digest-loss";
  }
  return "?";
}

FaultOutcome run_fault_cell(FaultCell cell, const FaultScenario& scenario,
                            const ExperimentDefaults& defaults) {
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes = {scenario.region_size};
  cc.protocol.buffer_budget.max_bytes = scenario.budget_bytes;
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(10);
  cc.protocol.flow.enabled = true;
  cc.protocol.flow.window_size = scenario.window_size;
  cc.protocol.flow.ack_interval = scenario.ack_interval;
  cc.data_loss = scenario.data_loss;
  cc.seed = scenario.seed;
  Cluster cluster(cc);

  // The flash-crowd workload every cell shares: `senders` members stream at
  // the same instants into tight budgets.
  std::size_t n = std::min(scenario.senders, scenario.region_size);
  schedule_flash_crowd(cluster, n, scenario.messages_per_sender,
                       scenario.send_interval, scenario.payload_bytes);
  Duration burst = scenario.send_interval *
                   static_cast<std::int64_t>(scenario.messages_per_sender);

  // Cell-specific hostility, built as a FaultScript timeline. Victims are
  // always drawn from the tail of the member range so they never overlap
  // the senders at the front.
  auto tail_members = [&](std::size_t k) {
    k = std::min(k, scenario.region_size - n);
    std::vector<MemberId> out;
    for (std::size_t i = scenario.region_size - k; i < scenario.region_size;
         ++i) {
      out.push_back(static_cast<MemberId>(i));
    }
    return out;
  };
  TimePoint t0 = TimePoint::zero();
  std::vector<bool> was_crashed(scenario.region_size, false);
  FaultScript faults;
  switch (cell) {
    case FaultCell::kClean: break;
    case FaultCell::kPartition: {
      // A minority of the receivers loses contact with everyone else a third
      // into the burst; the wall comes down when the burst ends, so the
      // drain window measures whether they backfill what they missed.
      std::size_t k = std::max<std::size_t>(1, (scenario.region_size - n) / 3);
      faults.partition(t0 + burst / 3, {tail_members(k)});
      faults.heal(t0 + burst);
      break;
    }
    case FaultCell::kLossyEdge: {
      std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(scenario.region_size) *
                 scenario.lossy_fraction));
      faults.link_loss(t0, tail_members(k), scenario.edge_loss);
      break;
    }
    case FaultCell::kChurnStorm: {
      std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(scenario.region_size - n) *
                 scenario.churn_fraction));
      std::vector<MemberId> victims = tail_members(k);
      for (MemberId v : victims) was_crashed[v] = true;
      faults.crash(t0 + burst / 3, victims);
      faults.rejoin(t0 + (burst * 2) / 3, victims);
      break;
    }
    case FaultCell::kDigestLoss: {
      faults.control_loss(t0 + burst / 3, scenario.spike_loss);
      faults.control_loss(t0 + (burst * 2) / 3, 0.0);
      break;
    }
  }
  if (!faults.empty()) faults.schedule_on(cluster);

  cluster.run_for(burst + scenario.drain);

  FaultOutcome out;
  out.cell = cell;
  out.senders = n;
  const FlashCrowdTally tally =
      tally_flash_crowd(cluster, n, scenario.messages_per_sender);
  out.goodput = tally.goodput;
  out.fairness = tally.fairness;
  out.senders_completed = tally.senders_completed;
  for (MemberId m = 0; m < cluster.size(); ++m) {
    if (!cluster.directory().alive(m)) continue;
    const buffer::BufferStats& bs = cluster.endpoint(m).buffer().stats();
    out.evictions += bs.evicted;
    out.sheds += bs.shed;
    // A rejoiner's exhausted pre-crash backfills are a deficit, not a
    // liveness failure; members that kept their state get no such excuse.
    if (was_crashed[m]) {
      out.unrecovered_rejoined += cluster.endpoint(m).active_recoveries();
    } else {
      out.unrecovered += cluster.endpoint(m).active_recoveries();
    }
  }
  const auto& counters = cluster.metrics().counters();
  out.recovery_success =
      counters.losses_detected == 0
          ? 1.0
          : static_cast<double>(counters.recoveries) /
                static_cast<double>(counters.losses_detected);
  std::vector<double> rec_ms;
  for (Duration d : cluster.metrics().recovery_latencies()) {
    rec_ms.push_back(d.ms());
  }
  out.mean_recovery_ms = analysis::mean(rec_ms);
  out.deferred = counters.sends_deferred;
  out.stall_releases = counters.flow_stall_releases;
  out.severed = cluster.network().stats().severed;
  return out;
}

// ----------------------------------------------------------- Ablation A5 ----

ChurnOutcome run_churn_handoff(bool with_handoff, std::size_t region_size,
                               std::size_t trials, std::uint64_t seed,
                               const ExperimentDefaults& defaults) {
  ChurnOutcome out;
  out.trials = trials;
  std::vector<double> latencies;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    ClusterConfig cc = base_config(defaults);
    cc.region_sizes = {region_size, 1};
    cc.seed = seed + trial * 2477;
    Cluster cluster(cc);

    std::vector<MemberId> region0 = cluster.region_members(0);
    MemberId requester = cluster.region_members(1)[0];
    MessageId id = cluster.inject_data_to(region0[0], 1, region0);
    // Let the idle threshold pass: only the random long-term set remains.
    cluster.run_for(Duration::millis(100));

    std::vector<MemberId> bufferers;
    for (MemberId m : region0) {
      if (cluster.endpoint(m).buffer().is_long_term(id)) bufferers.push_back(m);
    }
    if (bufferers.empty()) continue;  // P = e^-C; counts as not recovered

    // Every long-term bufferer departs.
    for (MemberId b : bufferers) {
      if (with_handoff) {
        cluster.leave(b);
      } else {
        cluster.crash(b);
      }
    }
    cluster.run_for(Duration::millis(50));  // handoffs propagate

    // A downstream member now asks for the message.
    RandomEngine rng(seed ^ (trial * 0x1234567ULL));
    std::vector<MemberId> survivors;
    for (MemberId m : region0) {
      if (cluster.directory().alive(m)) survivors.push_back(m);
    }
    MemberId target = survivors[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(survivors.size()) - 1))];
    TimePoint t0 = cluster.now();
    cluster.inject_remote_request(target, id, requester);
    cluster.run_for(Duration::millis(500));

    if (cluster.endpoint(requester).has_received(id)) {
      ++out.recovered;
      TimePoint t = cluster.metrics().first_remote_repair(id);
      if (t != TimePoint::max() && t >= t0) latencies.push_back((t - t0).ms());
    }
  }
  out.mean_recovery_ms = analysis::mean(latencies);
  return out;
}

// ------------------------------------- hierarchical repair makespan ----------

MakespanOutcome run_makespan_point(const MakespanScenario& scenario,
                                   const ExperimentDefaults& defaults) {
  // Complete fanout-ary region tree, BFS-numbered: region 0 is the root,
  // children of region k are k*fanout+1 .. k*fanout+fanout.
  std::size_t regions = 0;
  {
    std::size_t level = 1;
    for (std::size_t d = 0; d <= scenario.depth; ++d) {
      regions += level;
      level *= scenario.fanout;
    }
  }
  ClusterConfig cc = base_config(defaults);
  cc.region_sizes.assign(regions, scenario.region_size);
  cc.parents.resize(regions);
  cc.parents[0] = 0;
  for (std::size_t r = 1; r < regions; ++r) {
    cc.parents[r] = static_cast<RegionId>((r - 1) / scenario.fanout);
  }
  cc.seed = scenario.seed;
  cc.shards = scenario.shards;
  cc.sub_shard_members = scenario.sub_shard_members;
  cc.protocol.hierarchy.enabled = true;
  Cluster cluster(cc);

  std::vector<MemberId> root = cluster.region_members(0);
  MessageId id =
      cluster.inject_data_to(root[0], 1, root, scenario.payload_bytes);
  std::vector<MemberId> rest;
  rest.reserve(cluster.size() - root.size());
  for (std::size_t r = 1; r < regions; ++r) {
    std::vector<MemberId> members =
        cluster.region_members(static_cast<RegionId>(r));
    rest.insert(rest.end(), members.begin(), members.end());
  }
  cluster.inject_session_to(root[0], 1, rest);
  cluster.run_until_quiet(scenario.quiet_cap);

  MakespanOutcome out;
  out.members = cluster.size();
  out.regions = regions;
  out.all_recovered = cluster.all_received(id);
  const RecordingSink& metrics = cluster.metrics();
  out.makespan_ms = metrics.last_delivery(id).ms();
  out.local_requests = metrics.counters().local_requests_sent;
  out.remote_requests = metrics.counters().remote_requests_sent;
  out.events = cluster.events_fired();
  return out;
}

// ----------------------------------------------------------- Ablation A1 ----

double simulate_no_request_probability(std::size_t region_size, double p,
                                       std::size_t trials,
                                       std::uint64_t seed) {
  RandomEngine rng(seed);
  auto missing = static_cast<std::size_t>(
      static_cast<double>(region_size) * p + 0.5);
  std::uint64_t quiet = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    // Member 0 holds the message; `missing` other members each send one
    // request to a uniformly random member other than themselves.
    bool hit = false;
    for (std::size_t m = 1; m <= missing && m < region_size; ++m) {
      auto target = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(region_size) - 2));
      if (target >= m) ++target;  // skip self
      if (target == 0) {
        hit = true;
        break;
      }
    }
    if (!hit) ++quiet;
  }
  return static_cast<double>(quiet) / static_cast<double>(trials);
}

}  // namespace rrmp::harness
