// scenario_cli — run a configurable RRMP scenario from the command line.
//
//   $ ./scenario_cli --regions=30,20 --messages=50 --loss=0.2
//                    --policy=two-phase --C=6 --T=40 --lambda=1 --seed=7
//   $ ./scenario_cli --policy=fixed-time --ttl=120 --buffer-bytes=16384
//   $ ./scenario_cli --policy=stability --csv
//
// Streams `--messages` multicasts from member 0 through the simulated
// cluster and reports delivery, buffer and traffic statistics — the knobs a
// downstream user would want to sweep without writing code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "harness/cluster.h"
#include "harness/fault_script.h"

using namespace rrmp;

namespace {

struct Options {
  std::vector<std::size_t> regions = {30, 20};
  std::size_t messages = 50;
  double loss = 0.1;
  double control_loss = 0.0;
  std::string policy = "two-phase";
  double c = 6.0;
  std::int64_t t_ms = 40;
  std::int64_t ttl_ms = 100;       // fixed-time TTL
  std::size_t hash_k = 6;          // hash-based bufferers per message
  std::int64_t grace_ms = 40;      // hash-based non-bufferer grace
  std::size_t buffer_bytes = 0;    // per-member byte budget, 0 = unlimited
  std::size_t buffer_count = 0;    // per-member entry budget, 0 = unlimited
  bool coordinate = false;         // cooperative region-wide budgets
  std::int64_t digest_ms = 20;     // BufferDigest gossip period
  std::size_t redundancy = 2;      // replicas before an entry is expendable
  bool no_shed = false;            // disable sole-copy shed handoffs
  bool flow = false;               // windowed send admission (flow control)
  std::size_t window = 32;         // outstanding-frame window per sender
  std::int64_t ack_ms = 10;        // CreditAck feedback period
  bool no_backpressure = false;    // disable occupancy-driven window halving
  bool adaptive = false;           // AIMD window sizing (--window = ceiling)
  bool piggyback = false;          // cursors ride on Data/Session frames
  bool hierarchy = false;          // multi-level repair over the region tree
  std::size_t fanout = 2;          // children per region when --depth > 0
  std::size_t depth = 0;           // region-tree depth, 0 = flat --regions
  std::size_t sub_shard = 0;       // split regions larger than N across lanes
  std::string fault_script;   // timeline spec file (see harness/fault_script.h)
  std::string partition;      // partition groups applied at t=0: 0-5|6-11
  std::string lossy_members;  // lossy-edge receivers from t=0: 3,5,7-9
  double lossy_rate = 0.1;    // per-link drop rate for --lossy-members
  double lambda = 1.0;
  std::uint64_t seed = 1;
  std::size_t payload = 256;
  std::int64_t interval_ms = 5;
  std::int64_t drain_ms = 800;
  bool csv = false;
  bool help = false;
};

void print_usage() {
  std::printf(
      "usage: scenario_cli [options]\n"
      "  --regions=N1,N2,...   region sizes, region 0 is the root (30,20)\n"
      "  --messages=N          messages streamed from member 0 (50)\n"
      "  --loss=P              per-receiver loss of initial multicast (0.1)\n"
      "  --control-loss=P      loss on requests/repairs (0)\n"
      "  --policy=NAME         two-phase|fixed-time|buffer-everything|\n"
      "                        hash-based|stability (two-phase)\n"
      "  --C=X                 expected long-term bufferers per region (6)\n"
      "  --T=MS                idle threshold in ms (40)\n"
      "  --ttl=MS              fixed-time policy TTL in ms (100)\n"
      "  --k=N                 hash-based bufferers per message (6)\n"
      "  --grace=MS            hash-based non-bufferer grace in ms (40)\n"
      "  --buffer-bytes=N      per-member buffer budget in wire bytes\n"
      "                        (0 = unlimited)\n"
      "  --buffer-count=N      per-member buffer budget in messages\n"
      "                        (0 = unlimited)\n"
      "  --coordinate          cooperative region-wide budgets: digest\n"
      "                        gossip, replica-aware eviction, shed handoffs\n"
      "  --digest-interval=MS  BufferDigest gossip period (20)\n"
      "  --redundancy=N        known replicas before an entry is an\n"
      "                        eviction-preferred victim (2)\n"
      "  --no-shed             keep coordination but disable sole-copy\n"
      "                        shed handoffs\n"
      "  --flow                windowed send admission with credit-based\n"
      "                        feedback (CreditAck gossip)\n"
      "  --window=N            outstanding-frame window per sender (32)\n"
      "  --ack-interval=MS     CreditAck feedback period (10)\n"
      "  --no-backpressure     keep flow control but disable the\n"
      "                        occupancy-driven window halving\n"
      "  --adaptive-window     AIMD window sizing: start at 2 frames, grow\n"
      "                        one per clean credit round, halve on stall;\n"
      "                        --window becomes the ceiling (without it the\n"
      "                        window is fixed at --window)\n"
      "  --piggyback           ride receive cursors on outgoing Data/Session\n"
      "                        frames; CreditAck becomes a quiet-receiver\n"
      "                        fallback\n"
      "  --hierarchy           multi-level repair: per-region representatives\n"
      "                        answer local NAKs and escalate misses up the\n"
      "                        region tree instead of going to the sender\n"
      "  --depth=N             build a complete region tree of depth N (every\n"
      "                        region sized like the first --regions entry);\n"
      "                        0 = use --regions as flat regions (0)\n"
      "  --fanout=N            children per region when --depth > 0 (2)\n"
      "  --sub-shard=N         split regions larger than N members across\n"
      "                        simulation lanes (0 = one lane per region)\n"
      "  --fault-script=FILE   scripted fault timeline: crash/rejoin storms,\n"
      "                        partitions, heals, loss changes at absolute\n"
      "                        sim times (grammar in harness/fault_script.h)\n"
      "  --partition=GROUPS    sever traffic between member groups from t=0,\n"
      "                        e.g. 0-5|6-11 (unlisted members form one\n"
      "                        implicit extra group); heal via --fault-script\n"
      "  --lossy-members=LIST  every link into each listed member drops with\n"
      "                        --lossy-rate from t=0, e.g. 3,5,7-9\n"
      "  --lossy-rate=P        drop rate for --lossy-members links (0.1)\n"
      "  --lambda=X            expected remote requests per regional loss (1)\n"
      "  --payload=BYTES       message payload size (256)\n"
      "  --interval=MS         send interval (5)\n"
      "  --drain=MS            post-stream settle time (800)\n"
      "  --seed=N              master seed (1)\n"
      "  --csv                 emit CSV instead of an aligned table\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&](const char* prefix, std::string& out) {
      std::size_t n = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(n);
        return true;
      }
      return false;
    };
    std::string v;
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (eat("--regions=", v)) {
      opt.regions.clear();
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        opt.regions.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
      if (opt.regions.empty() || opt.regions[0] == 0) {
        std::fprintf(stderr, "bad --regions\n");
        return false;
      }
    } else if (eat("--messages=", v)) {
      opt.messages = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--loss=", v)) {
      opt.loss = std::strtod(v.c_str(), nullptr);
    } else if (eat("--control-loss=", v)) {
      opt.control_loss = std::strtod(v.c_str(), nullptr);
    } else if (eat("--policy=", v)) {
      opt.policy = v;
    } else if (eat("--C=", v)) {
      opt.c = std::strtod(v.c_str(), nullptr);
    } else if (eat("--T=", v)) {
      opt.t_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (eat("--ttl=", v)) {
      opt.ttl_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (eat("--k=", v)) {
      opt.hash_k = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--grace=", v)) {
      opt.grace_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (eat("--buffer-bytes=", v)) {
      opt.buffer_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--buffer-count=", v)) {
      opt.buffer_count = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--coordinate") {
      opt.coordinate = true;
    } else if (eat("--digest-interval=", v)) {
      opt.digest_ms = std::strtoll(v.c_str(), nullptr, 10);
      if (opt.digest_ms <= 0) {
        // A non-positive period would reschedule digest_tick at the same
        // virtual instant forever and the simulation would never advance.
        std::fprintf(stderr, "--digest-interval must be positive\n");
        return false;
      }
    } else if (eat("--redundancy=", v)) {
      opt.redundancy = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--no-shed") {
      opt.no_shed = true;
    } else if (arg == "--flow") {
      opt.flow = true;
    } else if (eat("--window=", v)) {
      opt.window = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--ack-interval=", v)) {
      opt.ack_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (arg == "--no-backpressure") {
      opt.no_backpressure = true;
    } else if (arg == "--adaptive-window") {
      opt.adaptive = true;
    } else if (arg == "--piggyback") {
      opt.piggyback = true;
    } else if (arg == "--hierarchy") {
      opt.hierarchy = true;
    } else if (eat("--fanout=", v)) {
      opt.fanout = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--depth=", v)) {
      opt.depth = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--sub-shard=", v)) {
      opt.sub_shard = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--fault-script=", v)) {
      opt.fault_script = v;
    } else if (eat("--partition=", v)) {
      opt.partition = v;
    } else if (eat("--lossy-members=", v)) {
      opt.lossy_members = v;
    } else if (eat("--lossy-rate=", v)) {
      opt.lossy_rate = std::strtod(v.c_str(), nullptr);
    } else if (eat("--lambda=", v)) {
      opt.lambda = std::strtod(v.c_str(), nullptr);
    } else if (eat("--payload=", v)) {
      opt.payload = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--interval=", v)) {
      opt.interval_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (eat("--drain=", v)) {
      opt.drain_ms = std::strtoll(v.c_str(), nullptr, 10);
    } else if (eat("--seed=", v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Cross-knob sanity checks. parse_args catches per-flag syntax; this
/// rejects combinations that would silently produce a meaningless run.
bool validate(const Options& opt) {
  auto fail = [](const char* msg) {
    std::fprintf(stderr, "%s\n", msg);
    return false;
  };
  if (opt.messages == 0) return fail("--messages must be positive");
  if (opt.payload == 0) return fail("--payload must be positive");
  if (opt.interval_ms <= 0) return fail("--interval must be positive");
  if (opt.drain_ms < 0) return fail("--drain must be non-negative");
  if (opt.loss < 0.0 || opt.loss > 1.0) {
    return fail("--loss must be a probability in [0, 1]");
  }
  if (opt.control_loss < 0.0 || opt.control_loss > 1.0) {
    return fail("--control-loss must be a probability in [0, 1]");
  }
  if (opt.lambda < 0.0) return fail("--lambda must be non-negative");
  if (opt.lossy_rate < 0.0 || opt.lossy_rate > 1.0) {
    return fail("--lossy-rate must be a probability in [0, 1]");
  }
  if (opt.coordinate && opt.buffer_bytes == 0 && opt.buffer_count == 0) {
    // Digest gossip, replica-aware eviction and shed handoffs all act on
    // budget *pressure*; with unlimited buffers nothing ever evicts, so the
    // run silently measures the uncoordinated protocol plus gossip traffic.
    return fail(
        "--coordinate requires a buffer budget (--buffer-bytes and/or "
        "--buffer-count): with unlimited buffers there is no pressure to "
        "coordinate");
  }
  if (opt.depth > 0 && opt.fanout == 0) {
    return fail("--fanout must be positive when --depth > 0");
  }
  if (opt.depth > 8) {
    // fanout^8 regions is already past anything the CLI can simulate; a
    // typo like --depth=100 would overflow the region count silently.
    return fail("--depth must be at most 8");
  }
  if (opt.flow && opt.window == 0) {
    return fail("--window must be positive: a zero window can never send");
  }
  if (opt.ack_ms <= 0) return fail("--ack-interval must be positive");
  return true;
}

/// Build the self-describing PolicySpec from the per-policy knobs.
buffer::PolicySpec spec_from_options(buffer::PolicyKind kind,
                                     const Options& opt) {
  switch (kind) {
    case buffer::PolicyKind::kTwoPhase:
      return buffer::TwoPhaseParams{Duration::millis(opt.t_ms), opt.c};
    case buffer::PolicyKind::kFixedTime:
      return buffer::FixedTimeParams{Duration::millis(opt.ttl_ms)};
    case buffer::PolicyKind::kBufferEverything:
      return buffer::BufferEverythingParams{};
    case buffer::PolicyKind::kHashBased:
      return buffer::HashBasedParams{opt.hash_k,
                                     Duration::millis(opt.grace_ms)};
    case buffer::PolicyKind::kStability: return buffer::StabilityParams{};
  }
  return buffer::TwoPhaseParams{};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    print_usage();
    return 2;
  }
  if (opt.help) {
    print_usage();
    return 0;
  }
  if (!validate(opt)) return 2;
  buffer::PolicyKind kind;
  if (!buffer::kind_from_name(opt.policy, kind)) {
    std::fprintf(stderr, "unknown policy '%s'\n", opt.policy.c_str());
    print_usage();
    return 2;
  }

  harness::ClusterConfig cc;
  cc.region_sizes = opt.regions;
  if (opt.depth > 0) {
    // Complete fanout-ary region tree, BFS-numbered like run_makespan_point:
    // region 0 is the root, children of k are k*fanout+1 .. k*fanout+fanout.
    // Every region takes the size of the first --regions entry.
    std::size_t regions = 0, level = 1;
    for (std::size_t d = 0; d <= opt.depth; ++d) {
      regions += level;
      level *= opt.fanout;
    }
    cc.region_sizes.assign(regions, opt.regions[0]);
    cc.parents.resize(regions);
    cc.parents[0] = 0;
    for (std::size_t r = 1; r < regions; ++r) {
      cc.parents[r] = static_cast<RegionId>((r - 1) / opt.fanout);
    }
  }
  cc.protocol.hierarchy.enabled = opt.hierarchy;
  cc.sub_shard_members = opt.sub_shard;
  cc.data_loss = opt.loss;
  cc.control_loss = opt.control_loss;
  cc.seed = opt.seed;
  cc.policy = spec_from_options(kind, opt);
  cc.protocol.buffer_budget =
      buffer::BufferBudget{opt.buffer_bytes, opt.buffer_count};
  cc.protocol.buffer_coordination.enabled = opt.coordinate;
  cc.protocol.buffer_coordination.digest_interval =
      Duration::millis(opt.digest_ms);
  cc.protocol.buffer_coordination.redundancy_threshold = opt.redundancy;
  cc.protocol.buffer_coordination.shed_sole_copies = !opt.no_shed;
  cc.protocol.flow.enabled = opt.flow;
  cc.protocol.flow.window_size = static_cast<std::uint32_t>(opt.window);
  cc.protocol.flow.ack_interval = Duration::millis(opt.ack_ms);
  cc.protocol.flow.backpressure = !opt.no_backpressure;
  cc.protocol.flow.adaptive = opt.adaptive;
  cc.protocol.flow.piggyback = opt.piggyback;
  cc.protocol.lambda = opt.lambda;
  cc.protocol.lookup = kind == buffer::PolicyKind::kHashBased
                           ? BuffererLookup::kHashDirect
                           : BuffererLookup::kRandomized;
  if (kind == buffer::PolicyKind::kHashBased) {
    cc.protocol.hash_k =
        static_cast<std::uint32_t>(std::get<buffer::HashBasedParams>(cc.policy).k);
  }

  // Run header: the chosen spec and budget, so every run is self-describing.
  std::printf("policy: %s\n", buffer::describe(cc.policy).c_str());
  if (cc.protocol.buffer_budget.unlimited()) {
    std::printf("budget: unlimited\n");
  } else {
    std::printf("budget: %zu bytes, %zu msgs per member (0 = unlimited)\n",
                cc.protocol.buffer_budget.max_bytes,
                cc.protocol.buffer_budget.max_count);
  }
  std::printf("coordination: %s\n",
              buffer::describe(cc.protocol.buffer_coordination).c_str());
  if (opt.flow) {
    std::printf("flow: window %zu frames, ack every %lld ms, "
                "backpressure %s\n",
                opt.window, static_cast<long long>(opt.ack_ms),
                opt.no_backpressure ? "off" : "on");
    if (opt.adaptive) {
      std::printf("flow: AIMD window [%zu, %zu], cursor piggyback %s\n",
                  std::min<std::size_t>(kMinAdaptiveWindow, opt.window),
                  opt.window, opt.piggyback ? "on" : "off");
    } else if (opt.piggyback) {
      std::printf("flow: cursor piggyback on\n");
    }
  } else {
    std::printf("flow: off\n");
  }
  if (opt.hierarchy || opt.depth > 0) {
    std::printf("hierarchy: repair %s, %zu regions x %zu members%s\n",
                opt.hierarchy ? "on" : "off", cc.region_sizes.size(),
                cc.region_sizes[0],
                opt.depth > 0 ? " (complete tree)" : "");
  }

  // Assemble the fault timeline: an optional spec file plus the t=0
  // shorthands. --partition / --lossy-members are synthesized as one-line
  // specs so they share the script grammar (and its member-range parser).
  std::vector<harness::FaultScript> faults;
  {
    std::string err;
    if (!opt.fault_script.empty()) {
      auto parsed = harness::FaultScript::parse_file(opt.fault_script, &err);
      if (!parsed) {
        std::fprintf(stderr, "--fault-script: %s\n", err.c_str());
        return 2;
      }
      faults.push_back(std::move(*parsed));
    }
    if (!opt.partition.empty()) {
      auto parsed = harness::FaultScript::parse(
          "at=0 event=partition groups=" + opt.partition, &err);
      if (!parsed) {
        std::fprintf(stderr, "--partition: %s\n", err.c_str());
        return 2;
      }
      faults.push_back(std::move(*parsed));
    }
    if (!opt.lossy_members.empty()) {
      auto parsed = harness::FaultScript::parse(
          "at=0 event=link-loss members=" + opt.lossy_members +
              " rate=" + std::to_string(opt.lossy_rate),
          &err);
      if (!parsed) {
        std::fprintf(stderr, "--lossy-members: %s\n", err.c_str());
        return 2;
      }
      faults.push_back(std::move(*parsed));
    }
  }

  harness::Cluster cluster(cc);

  std::size_t fault_events = 0;
  for (const harness::FaultScript& script : faults) {
    try {
      script.schedule_on(cluster);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "fault script: %s\n", e.what());
      return 2;
    }
    fault_events += script.size();
  }
  if (fault_events != 0) {
    std::printf("faults: %zu scripted event%s\n", fault_events,
                fault_events == 1 ? "" : "s");
  }

  for (std::size_t i = 0; i < opt.messages; ++i) {
    cluster.schedule_script(
        TimePoint::zero() +
            Duration::millis(opt.interval_ms) * static_cast<std::int64_t>(i),
        [&cluster, &opt] {
          cluster.endpoint(0).multicast(
              std::vector<std::uint8_t>(opt.payload, 0x42));
        });
  }
  Duration total = Duration::millis(opt.interval_ms) *
                       static_cast<std::int64_t>(opt.messages) +
                   Duration::millis(opt.drain_ms);
  cluster.run_for(total);

  std::size_t undelivered = 0;
  for (std::uint64_t s = 1; s <= opt.messages; ++s) {
    if (!cluster.all_received(MessageId{0, s})) ++undelivered;
  }
  std::size_t peak = 0, peak_bytes = 0;
  std::uint64_t evictions = 0, sheds = 0, rejected = 0;
  for (MemberId m = 0; m < cluster.size(); ++m) {
    const buffer::BufferStats& bs = cluster.endpoint(m).buffer().stats();
    peak = std::max(peak, bs.peak_count);
    peak_bytes = std::max(peak_bytes, bs.peak_bytes);
    evictions += bs.evicted;
    sheds += bs.shed;
    rejected += bs.rejected;
  }
  std::vector<double> rec_ms;
  for (Duration d : cluster.metrics().recovery_latencies()) {
    rec_ms.push_back(d.ms());
  }
  analysis::Summary rec = analysis::summarize(rec_ms);
  const auto& c = cluster.metrics().counters();
  const auto& ts = cluster.network().stats();

  analysis::Table table({"metric", "value"});
  table.add_row({"members", analysis::Table::num(
                                static_cast<std::uint64_t>(cluster.size()))});
  table.add_row({"messages", analysis::Table::num(
                                 static_cast<std::uint64_t>(opt.messages))});
  table.add_row({"policy", opt.policy});
  table.add_row({"fully delivered",
                 analysis::Table::num(
                     static_cast<std::uint64_t>(opt.messages - undelivered))});
  table.add_row({"losses detected", analysis::Table::num(c.losses_detected)});
  table.add_row({"recoveries", analysis::Table::num(c.recoveries)});
  table.add_row({"mean recovery ms", analysis::Table::num(rec.mean, 2)});
  table.add_row({"p99 recovery ms", analysis::Table::num(rec.p99, 2)});
  table.add_row({"local requests", analysis::Table::num(c.local_requests_sent)});
  table.add_row({"remote requests",
                 analysis::Table::num(c.remote_requests_sent)});
  table.add_row({"repairs", analysis::Table::num(c.repairs_sent)});
  table.add_row({"regional multicasts",
                 analysis::Table::num(c.regional_multicasts)});
  table.add_row({"searches", analysis::Table::num(c.searches_started)});
  table.add_row({"peak buffer/member",
                 analysis::Table::num(static_cast<std::uint64_t>(peak))});
  table.add_row({"peak buffer B/member",
                 analysis::Table::num(static_cast<std::uint64_t>(peak_bytes))});
  table.add_row({"evictions", analysis::Table::num(evictions)});
  table.add_row({"shed handoffs", analysis::Table::num(sheds)});
  table.add_row({"rejected stores", analysis::Table::num(rejected)});
  if (opt.flow) {
    table.add_row({"deferred sends", analysis::Table::num(c.sends_deferred)});
    table.add_row({"credit acks", analysis::Table::num(c.credit_acks_sent)});
    table.add_row({"suppressed acks",
                   analysis::Table::num(c.credit_acks_suppressed)});
    table.add_row({"stall remulticasts",
                   analysis::Table::num(c.flow_stall_remcasts)});
    table.add_row({"stall releases",
                   analysis::Table::num(c.flow_stall_releases)});
  }
  table.add_row({"residual buffered msgs",
                 analysis::Table::num(
                     static_cast<std::uint64_t>(cluster.total_buffered()))});
  if (ts.severed != 0) {
    table.add_row({"severed packets", analysis::Table::num(ts.severed)});
  }
  table.add_row({"wire bytes", analysis::Table::num(ts.bytes_sent)});

  if (opt.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return undelivered == 0 ? 0 : 1;
}
