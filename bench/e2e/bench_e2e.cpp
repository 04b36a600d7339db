// End-to-end RRMP benchmark: runs one named workload per process and prints
// one JSON object (a single line) with its metrics, its correctness verdict
// and how many (member, message) deliveries were attempted and missed.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<f>] [--scale=<f>]
//             [--trace] [--out=<dir>] [--setup-only]
//
// --setup-only times the workload's set-up batches and nothing else, and
// reports setup_s alone; run.py pools such processes with the measured one
// (see kSetupBatches).
//
// Workloads (bench/e2e/README.md gives the reason for each):
//   udp_small_open     16 members on loopback UDP, one open-loop sender at
//                      1000 msgs/s, 64 B payloads, flow control with a
//                      window that never binds, no loss
//   udp_lossy_open     16 members on UDP with emulated WAN latency, four
//                      open-loop senders at 1000 msgs/s in total, 1 KiB
//                      payloads, 5% of initial deliveries dropped
//   sim_region_stream  simulator, 4 regions x 100 members, one sender every
//                      4 ms, 6 KiB budgets with coordination, adaptive flow
//                      control without back-pressure, 5% loss
//   sim_tree_1e4       simulator, 9,990 members in a fanout-10 depth-2
//                      repair tree, 10 messages per iteration, 5% loss
//                      (--scale 10 gives the 99,900-member point)
//
// The benchmark drives the library only through its public API, so it
// measures every layer from outside. With --trace it replaces the
// transport's receive glue (UdpBus receive callback, SimHost receivers) with
// a timed copy, wraps multicast() and metrics() in spans, and writes
// trace_<workload>.json (Chrome trace events) and layers_<workload>.json to
// --out. Without --trace none of these wrappers is installed.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON still prints, with "correct": false), 2 on a usage or set-up
// error such as a UDP bind failure (no JSON).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "harness/cluster.h"
#include "harness/udp_runtime.h"
#include "proto/codec.h"

namespace rrmp::e2e {
namespace {

// Set-up is repeated and its median reported, so that work moved into set-up
// shows. Shared hosts run slower for stretches of 0.1-1 s, so the builds are
// spread over time, the same number at each point: kSetupBatches batches of
// throwaway builds kSetupBatchGap apart, half before the measured phase and
// half after it (builds during it run next to a live cluster and are
// slower). A batch builds kSetupBatchReps times, or once if that would take
// longer than kSetupBatchS. A build's speed also differs from process to
// process, by up to 1.6x for the 400-member cluster, so run.py takes the
// median over this process and several --setup-only ones.
constexpr int kSetupBatches = 10;
constexpr int kSetupBatchReps = 5;
constexpr double kSetupBatchS = 0.05;
constexpr std::chrono::milliseconds kSetupBatchGap{200};
// Latency percentiles are taken per sub-window of the messages' reference
// times (wall time over UDP, simulated time in the simulator) and the median
// over sub-windows is reported, so one stall of the host or one unlucky
// burst does not move a whole run's tail.
constexpr Duration kLatencyWindow = Duration::millis(250);
// Spans kept for the Chrome trace; aggregates keep counting past it.
constexpr std::size_t kTraceCapacity = 1 << 18;
// Buffer occupancy and sender flow state are sampled at this period (wall
// time over UDP, simulated time in the simulator).
constexpr Duration kSamplePeriod = Duration::millis(10);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile in milliseconds of microsecond samples.
double percentile_ms(std::vector<std::uint32_t>& us, double q) {
  if (us.empty()) return 0.0;
  auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(us.size())));
  k = std::clamp<std::size_t>(k, 1, us.size()) - 1;
  std::nth_element(us.begin(), us.begin() + static_cast<std::ptrdiff_t>(k),
                   us.end());
  return static_cast<double>(us[k]) / 1000.0;
}

// ---- options -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".";
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value_of = [&a](const char* key) -> std::optional<std::string> {
      std::string prefix = std::string(key) + "=";
      if (a.rfind(prefix, 0) != 0) return std::nullopt;
      return a.substr(prefix.size());
    };
    try {
      if (a == "--trace") {
        o.trace = true;
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else if (auto v = value_of("--workload")) {
        o.workload = *v;
      } else if (auto v = value_of("--seed")) {
        o.seed = std::stoull(*v);
      } else if (auto v = value_of("--seconds")) {
        o.seconds = std::stod(*v);
      } else if (auto v = value_of("--scale")) {
        o.scale = std::stod(*v);
      } else if (auto v = value_of("--out")) {
        o.out_dir = *v;
      } else {
        std::fprintf(stderr, "bench_e2e: unknown argument %s\n", a.c_str());
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bench_e2e: bad value in %s\n", a.c_str());
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds > 0 && o.seconds <= 3600) ||
      !(o.scale > 0 && o.scale <= 10)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<name> --seed=<n> "
                 "[--seconds=<0..3600>] [--scale=<0..10>] [--trace] "
                 "[--out=<dir>] [--setup-only]\n");
    return std::nullopt;
  }
  return o;
}

// ---- report --------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Everything one run prints: contract metrics (named in BENCHMARK.json),
/// informational values that do not apply to every workload, and the
/// correctness checks.
class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    info_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool correct() const { return failures_.empty(); }
  void set_counts(std::uint64_t attempted, std::uint64_t missed) {
    attempted_ = attempted;
    failed_ = missed;
  }

  std::string to_json(const Options& o) const {
    std::string s = "{\"workload\":\"" + o.workload + "\"";
    s += ",\"seed\":" + std::to_string(o.seed);
    s += ",\"traced\":";
    s += o.trace ? "true" : "false";
    s += ",\"correct\":";
    s += correct() ? "true" : "false";
    s += ",\"attempted\":" + std::to_string(attempted_);
    s += ",\"failed\":" + std::to_string(failed_);
    s += ",\"checks_failed\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i) s += ",";
      s += "\"" + failures_[i] + "\"";
    }
    s += "],\"metrics\":" + section(metrics_);
    s += ",\"info\":" + section(info_) + "}";
    return s;
  }

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string section(const std::vector<Value>& values) {
    std::string s = "{";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) s += ",";
      s += "\"" + values[i].name + "\":{\"value\":" +
           json_number(values[i].value) + ",\"unit\":\"" + values[i].unit +
           "\"}";
    }
    return s + "}";
  }

  std::vector<Value> metrics_;
  std::vector<Value> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- tracing -------------------------------------------------------------

// Frame types by wire tag (proto::MessageType), snake_case for metric names.
constexpr const char* kFrameNames[16] = {
    "unknown",        "data",          "session",        "local_request",
    "remote_request", "repair",        "regional_repair", "search_request",
    "search_found",   "handoff",       "gossip",         "history",
    "buffer_digest",  "shed",          "credit_ack",     "escalate"};

// The frame types whose handling cost and counts are reported one by one;
// the rest are folded into "other".
constexpr proto::MessageType kReportedFrames[] = {
    proto::MessageType::kData,           proto::MessageType::kSession,
    proto::MessageType::kLocalRequest,   proto::MessageType::kRemoteRequest,
    proto::MessageType::kRepair,         proto::MessageType::kRegionalRepair,
    proto::MessageType::kCreditAck,      proto::MessageType::kBufferDigest,
    proto::MessageType::kSearchRequest,  proto::MessageType::kEscalate};

enum SpanName : int {
  kDecode,
  kEncode,
  kDeliver,
  kMulticast,
  kGenerator,
  kSample,
  kMetrics,
  kHandle0,  // + wire tag
  kSpanNames = kHandle0 + 16,
};

std::string span_name(int n) {
  switch (n) {
    case kDecode: return "proto.decode";
    case kEncode: return "proto.encode";
    case kDeliver: return "bench.deliver";
    case kMulticast: return "rrmp.multicast";
    case kGenerator: return "bench.generator";
    case kSample: return "bench.sample";
    case kMetrics: return "harness.metrics";
    default: return std::string("rrmp.handle.") + kFrameNames[n - kHandle0];
  }
}

std::optional<MessageId> id_of(const proto::Message& msg) {
  return std::visit(
      [](const auto& m) -> std::optional<MessageId> {
        if constexpr (requires { m.id; }) {
          return m.id;
        } else {
          return std::nullopt;
        }
      },
      msg);
}

/// Bench-side span recorder: spans nest on one thread (every workload is
/// single-threaded), so a stack gives each span its self time — duration
/// minus the part its child spans cover.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Tracer() : epoch_ns_(now_ns()), stats_(kSpanNames) {}

  void begin(int name, std::optional<MessageId> id) {
    stack_.push_back(Open{name, now_ns(), 0, id});
  }
  void end() {
    Open o = stack_.back();
    stack_.pop_back();
    std::int64_t dur = now_ns() - o.start;
    Stat& st = stats_[static_cast<std::size_t>(o.name)];
    ++st.count;
    st.total_ns += dur;
    st.self_ns += dur - o.child_ns;
    if (stack_.empty()) {
      top_level_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    if (records_.size() < kTraceCapacity) {
      records_.push_back(Record{o.name, o.start, dur, o.id});
    } else {
      ++dropped_;
    }
  }

  const Stat& stat(int name) const {
    return stats_[static_cast<std::size_t>(name)];
  }
  /// Total duration of spans that had no parent: bench and receive-glue
  /// work, which the transport loop's own time excludes.
  std::int64_t top_level_ns() const { return top_level_ns_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  void write_chrome(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    out << "{\"otherData\":{\"workload\":\"" << workload
        << "\",\"dropped_spans\":" << dropped_ << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::string name = span_name(r.name);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << name << "\",\"cat\":\""
          << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":"
          << json_number(static_cast<double>(r.start - epoch_ns_) / 1e3)
          << ",\"dur\":" << json_number(static_cast<double>(r.dur) / 1e3);
      if (r.id) {
        out << ",\"args\":{\"id\":\"" << r.id->source << ":" << r.id->seq
            << "\"}";
      }
      out << "}";
    }
    out << "\n]}\n";
  }

  /// Self time of every span name and of every layer (the name's prefix).
  /// The transport loop's own time — run time not covered by any top-level
  /// span, endpoint timer callbacks included — is reported as layer "net".
  void write_layers(const std::string& path, const std::string& workload,
                    std::int64_t run_ns, std::int64_t top_level_ns) const {
    std::vector<std::pair<std::string, std::int64_t>> layers = {
        {"net", run_ns - top_level_ns}};
    std::ofstream out(path);
    out << "{\"workload\":\"" << workload << "\",\"run_s\":"
        << json_number(ns_to_s(run_ns)) << ",\"spans\":{";
    bool first = true;
    for (int n = 0; n < kSpanNames; ++n) {
      const Stat& st = stat(n);
      if (st.count == 0) continue;
      std::string name = span_name(n);
      std::string layer = name.substr(0, name.find('.'));
      auto it = std::find_if(layers.begin(), layers.end(),
                             [&](const auto& l) { return l.first == layer; });
      if (it == layers.end()) {
        layers.push_back({layer, st.self_ns});
      } else {
        it->second += st.self_ns;
      }
      out << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":"
          << st.count << ",\"total_ns\":" << st.total_ns
          << ",\"self_ns\":" << st.self_ns << ",\"self_ns_per_call\":"
          << json_number(static_cast<double>(st.self_ns) /
                         static_cast<double>(st.count))
          << "}";
      first = false;
    }
    out << "\n},\"layers\":{";
    for (std::size_t i = 0; i < layers.size(); ++i) {
      out << (i ? ",\n" : "\n") << "\"" << layers[i].first
          << "\":{\"self_ns\":" << layers[i].second << ",\"share\":"
          << json_number(ratio(static_cast<double>(layers[i].second),
                               static_cast<double>(run_ns)))
          << "}";
    }
    out << "\n}}\n";
  }

 private:
  struct Open {
    int name;
    std::int64_t start;
    std::int64_t child_ns;
    std::optional<MessageId> id;
  };
  struct Record {
    int name;
    std::int64_t start;
    std::int64_t dur;
    std::optional<MessageId> id;
  };

  std::int64_t epoch_ns_;
  std::vector<Stat> stats_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::int64_t top_level_ns_ = 0;
};

/// RAII span; a null tracer (untraced run) makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, int name, std::optional<MessageId> id = std::nullopt)
      : t_(t) {
    if (t_) t_->begin(name, id);
  }
  ~Scope() {
    if (t_) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Per-type counts and encoded bytes of every frame the traced receive glue
/// saw, plus frames it could not decode.
struct FrameStats {
  std::uint64_t frames[16] = {};
  std::uint64_t bytes = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t f : frames) n += f;
    return n;
  }
};

/// Count a received frame of `wire_bytes` and hand it to the endpoint in a
/// span named after its type.
void handle_traced(Tracer& tr, FrameStats& fs, Endpoint& ep,
                   const proto::Message& msg, MemberId from,
                   std::size_t wire_bytes) {
  auto tag = static_cast<std::size_t>(proto::type_of(msg));
  ++fs.frames[tag];
  fs.bytes += wire_bytes;
  Scope s(&tr, kHandle0 + static_cast<int>(tag), id_of(msg));
  ep.handle_message(msg, from);
}

/// The traced copy of the UDP receive glue: decode (timed), a re-encode
/// that times proto::encode over the real frame mix (its own span, so it
/// stays out of every other span), then the handler timed per frame type.
void traced_receive(Tracer& tr, FrameStats& fs, Endpoint& ep,
                    const SharedBytes& wire, MemberId from) {
  std::optional<proto::Message> msg;
  {
    Scope s(&tr, kDecode);
    msg = proto::decode_shared(wire);
  }
  if (!msg) {
    ++fs.undecodable;
    return;
  }
  {
    Scope s(&tr, kEncode);
    proto::encode(*msg);
  }
  handle_traced(tr, fs, ep, *msg, from, wire.size());
}

// ---- inputs and the delivery ledger --------------------------------------

/// Byte `k` of the payload of message (source, seq): a pattern derived from
/// the run's seed, so every delivery can be checked against what was sent.
std::uint8_t payload_byte(std::uint64_t seed, MemberId source,
                          std::uint64_t seq, std::size_t k) {
  std::uint64_t x = mix64(seed ^ (static_cast<std::uint64_t>(source) << 40) ^ seq);
  return static_cast<std::uint8_t>((x >> (8 * (k % 8))) ^ k);
}

std::vector<std::uint8_t> make_payload(std::uint64_t seed, MemberId source,
                                       std::uint64_t seq, std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t k = 0; k < n; ++k) p[k] = payload_byte(seed, source, seq, k);
  return p;
}

/// Checks the size and the first, middle and last bytes.
bool payload_matches(const SharedBytes& got, std::uint64_t seed,
                     MemberId source, std::uint64_t seq, std::size_t n) {
  if (got.size() != n) return false;
  for (std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
    if (got.data()[k] != payload_byte(seed, source, seq, k)) return false;
  }
  return true;
}

/// Delivery counts of a run, pooled over its iterations.
struct Tally {
  std::uint64_t messages = 0;
  std::uint64_t expected = 0;  // messages x members
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bad_payload = 0;
  std::uint64_t unknown = 0;
  std::uint64_t sequence_errors = 0;  // multicast() returned an unexpected id
  std::vector<std::vector<std::uint32_t>> latency_us;   // per sub-window
  std::vector<std::vector<std::uint32_t>> makespan_us;  // per sub-window
};

/// Records every message a sender multicasts and every delivery at every
/// member: exactly-once per (member, MessageId) with a bitset per message,
/// payload integrity, and latency from the message's reference time (the
/// time it was due to be sent) to each delivery and to the last one (the
/// message's makespan), grouped into kLatencyWindow sub-windows by
/// reference time.
class Ledger {
 public:
  Ledger(std::size_t members, const std::vector<MemberId>& senders,
         std::uint64_t seed, std::size_t payload_bytes)
      : members_(members),
        words_((members + 63) / 64),
        seed_(seed),
        payload_bytes_(payload_bytes),
        slot_of_(members, -1),
        ordinals_(senders.size()) {
    for (std::size_t i = 0; i < senders.size(); ++i) {
      slot_of_.at(senders[i]) = static_cast<int>(i);
    }
  }

  /// Next sequence `source` will be assigned by multicast().
  std::uint64_t next_seq(MemberId source) const {
    return ordinals_[static_cast<std::size_t>(slot_of_[source])].size() + 1;
  }

  /// Register the next message of `source` before calling multicast(): the
  /// sender delivers to itself inside that call.
  void add_message(MemberId source, std::int64_t ref_us) {
    auto& ords = ordinals_[static_cast<std::size_t>(slot_of_[source])];
    ords.push_back(static_cast<std::uint32_t>(ref_us_.size()));
    if (ref_us_.empty()) origin_us_ = ref_us;
    ref_us_.push_back(ref_us);
    const auto w =
        static_cast<std::size_t>((ref_us - origin_us_) / kLatencyWindow.us());
    window_of_.push_back(static_cast<std::uint32_t>(w));
    if (w >= latency_us_.size()) latency_us_.resize(w + 1);
    bits_.resize(bits_.size() + words_, 0);
    receivers_.push_back(0);
    last_us_.push_back(0);
  }

  void on_delivery(MemberId m, const proto::Data& d, std::int64_t now_us) {
    int slot = d.id.source < members_ ? slot_of_[d.id.source] : -1;
    if (slot < 0 || d.id.seq == 0 ||
        d.id.seq > ordinals_[static_cast<std::size_t>(slot)].size()) {
      ++unknown_;
      return;
    }
    std::size_t idx = ordinals_[static_cast<std::size_t>(slot)][d.id.seq - 1];
    std::uint64_t& word = bits_[idx * words_ + m / 64];
    std::uint64_t bit = std::uint64_t{1} << (m % 64);
    if (word & bit) {
      ++duplicates_;
      return;
    }
    word |= bit;
    ++delivered_;
    if (!payload_matches(d.payload, seed_, d.id.source, d.id.seq,
                         payload_bytes_)) {
      ++bad_payload_;
    }
    const auto lat = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        now_us - ref_us_[idx], 0, UINT32_MAX));
    latency_us_[window_of_[idx]].push_back(lat);
    ++receivers_[idx];
    last_us_[idx] = std::max(last_us_[idx], lat);
  }

  bool complete() const { return delivered_ == ref_us_.size() * members_; }
  std::uint64_t delivered() const { return delivered_; }

  /// Fold this ledger's counts and latency samples into `t`.
  void add_to(Tally& t) {
    t.messages += ref_us_.size();
    t.expected += ref_us_.size() * members_;
    t.delivered += delivered_;
    t.duplicates += duplicates_;
    t.bad_payload += bad_payload_;
    t.unknown += unknown_;
    // A message some member never received has no makespan; it counts as
    // missing every latency limit.
    std::vector<std::vector<std::uint32_t>> makespan(latency_us_.size());
    for (std::size_t i = 0; i < ref_us_.size(); ++i) {
      makespan[window_of_[i]].push_back(receivers_[i] == members_ ? last_us_[i]
                                                                   : UINT32_MAX);
    }
    for (std::size_t w = 0; w < makespan.size(); ++w) {
      if (!latency_us_[w].empty()) t.latency_us.push_back(std::move(latency_us_[w]));
      if (!makespan[w].empty()) t.makespan_us.push_back(std::move(makespan[w]));
    }
    latency_us_.clear();
  }

 private:
  std::size_t members_;
  std::size_t words_;
  std::uint64_t seed_;
  std::size_t payload_bytes_;
  std::vector<int> slot_of_;
  std::vector<std::vector<std::uint32_t>> ordinals_;  // per sender: seq-1 -> idx
  std::int64_t origin_us_ = 0;                        // first reference time
  std::vector<std::int64_t> ref_us_;                  // per message
  std::vector<std::uint32_t> window_of_;              // per message
  std::vector<std::uint64_t> bits_;                   // per message x member
  std::vector<std::uint32_t> receivers_;              // per message: delivered to
  std::vector<std::uint32_t> last_us_;                // per message: latest latency
  std::vector<std::vector<std::uint32_t>> latency_us_;  // per sub-window
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t bad_payload_ = 0;
  std::uint64_t unknown_ = 0;
};

// ---- shared measurement state ----------------------------------------------

/// Everything a run accumulates besides the ledger, shared by both
/// transports so the metrics are computed one way.
struct RunStats {
  std::vector<double> setup_s;
  std::vector<double> teardown_s;
  std::vector<double> metrics_call_s;
  std::int64_t run_ns = 0;          // stream + drain phases, wall
  std::vector<double> deliveries_per_s;  // one per iteration
  std::int64_t top_level_ns = 0;    // traced spans without a parent, in runs
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
  double buffer_mean_sum = 0;       // sum over samples of mean bytes/member
  std::uint64_t buffer_samples = 0;
  double window_sum = 0;            // sender flow window, summed over samples
  double queue_sum = 0;             // sender send queue, summed over samples
  std::uint64_t flow_samples = 0;
  std::vector<double> generator_late_ms;
  RecordingSink::Counters counters;
  std::vector<std::uint32_t> recovery_us;
  buffer::BufferStats buffer;       // summed over members
  std::size_t buffer_peak_bytes = 0;  // max over members
  std::uint64_t open_recoveries = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t iterations = 0;
  double drain_ms = 0;              // generation end to completion, summed
  // UDP transport counters.
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t poll_syscalls = 0;
  std::uint64_t ring_replacements = 0;
};

struct CpuTimes {
  double user = 0;
  double sys = 0;
};

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_sink(RunStats& rs, const RecordingSink& sink) {
  rs.counters += sink.counters();
  for (Duration d : sink.recovery_latencies()) {
    rs.recovery_us.push_back(static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(d.us(), 0, UINT32_MAX)));
  }
}

void add_buffer_stats(RunStats& rs, const buffer::BufferStats& b) {
  rs.buffer.stored += b.stored;
  rs.buffer.discarded += b.discarded;
  rs.buffer.promoted_long_term += b.promoted_long_term;
  rs.buffer.handed_off += b.handed_off;
  rs.buffer.evicted += b.evicted;
  rs.buffer.shed += b.shed;
  rs.buffer.rejected += b.rejected;
  rs.buffer.total_buffer_time += b.total_buffer_time;
  rs.buffer_peak_bytes = std::max(rs.buffer_peak_bytes, b.peak_bytes);
}

/// Sample buffer occupancy over `members` endpoints and the senders' flow
/// state (flow-enabled workloads only).
template <typename EndpointAt>
void sample_state(RunStats& rs, std::size_t members, EndpointAt&& endpoint_at,
                  const std::vector<MemberId>& senders, bool flow) {
  std::uint64_t bytes = 0;
  for (std::size_t m = 0; m < members; ++m) {
    bytes += endpoint_at(static_cast<MemberId>(m)).buffer().bytes();
  }
  rs.buffer_mean_sum += static_cast<double>(bytes) / static_cast<double>(members);
  ++rs.buffer_samples;
  if (!flow) return;
  for (MemberId s : senders) {
    const Endpoint& ep = endpoint_at(s);
    rs.window_sum += ep.flow().current_window();
    rs.queue_sum += static_cast<double>(ep.queued_sends());
    ++rs.flow_samples;
  }
}

/// One throwaway build: `build()` returns an owning pointer; its
/// construction is set-up, its destruction teardown.
template <typename Build>
void time_build(RunStats& rs, Build&& build) {
  const std::int64_t t0 = now_ns();
  auto built = build();
  const std::int64_t t1 = now_ns();
  built.reset();
  rs.setup_s.push_back(ns_to_s(t1 - t0));
  rs.teardown_s.push_back(ns_to_s(now_ns() - t1));
}

/// Half of the set-up batches (see kSetupBatches); called before and after
/// the measured phase, or once with --setup-only.
template <typename Build>
void setup_batches(RunStats& rs, Build&& build) {
  for (int b = 0; b < kSetupBatches / 2; ++b) {
    if (b > 0) std::this_thread::sleep_for(kSetupBatchGap);
    const std::int64_t start = now_ns();
    time_build(rs, build);
    const int reps = ns_to_s(now_ns() - start) * kSetupBatchReps > kSetupBatchS
                         ? 1 : kSetupBatchReps;
    for (int r = 1; r < reps; ++r) time_build(rs, build);
  }
}

/// --setup-only: one round of set-up batches, reported as setup_s alone.
template <typename Build>
Report setup_only(Build&& build) {
  RunStats rs;
  setup_batches(rs, build);
  Report rep;
  rep.metric("setup_s", median(rs.setup_s), "s");
  return rep;
}

struct Limits {
  double undelivered_ceiling = 0.0;
  std::size_t budget_bytes = 0;       // 0 = unlimited
  bool expect_no_open_recoveries = false;
};

/// Turn a finished run into the report: end-to-end metrics, per-layer
/// metrics, informational values and the correctness checks.
void report_run(Report& rep, RunStats& rs, Tally& t, const Limits& lim,
                const Tracer* tr, const FrameStats& fs) {
  const double run_s = ns_to_s(rs.run_ns);
  const double deliveries = static_cast<double>(t.delivered);
  const std::uint64_t messages = t.messages;
  // Median over sub-windows of each sub-window's percentile.
  auto windowed_ms = [](std::vector<std::vector<std::uint32_t>>& windows,
                        double q) {
    std::vector<double> per_window;
    for (auto& w : windows) per_window.push_back(percentile_ms(w, q));
    return median(per_window);
  };
  std::size_t samples = 0;
  for (const auto& w : t.latency_us) samples += w.size();

  // End to end.
  rep.metric("setup_s", median(rs.setup_s), "s");
  // Median over iterations (UDP runs have one): the simulator's cost per
  // event varies by about ±20% from one iteration to the next.
  rep.metric("deliveries_per_s", median(rs.deliveries_per_s), "1/s");
  rep.metric("delivery_latency_p50_ms", windowed_ms(t.latency_us, 0.50), "ms");
  // A message's makespan waits for its last receiver, so where nearly every
  // message is lost somewhere (400 or 9,990 simulated members at 5% loss)
  // its median includes a recovery.
  rep.metric("makespan_p50_ms", windowed_ms(t.makespan_us, 0.50), "ms");
  rep.metric("buffer_bytes_mean",
             ratio(rs.buffer_mean_sum, static_cast<double>(rs.buffer_samples)),
             "B");
  rep.metric("buffer_bytes_peak", static_cast<double>(rs.buffer_peak_bytes), "B");
  rep.metric("wire_msgs_per_delivery",
             ratio(static_cast<double>(rs.wire_msgs), deliveries), "ratio");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");

  // Values that apply only to some workloads, or repeat too loosely to
  // bound. CPU time per delivery is the cost the UDP workloads' fixed rates
  // keep out of deliveries_per_s. Without loss the latency's 1% tail is
  // the host's scheduling delays, which come and go for minutes at a time.
  rep.info("delivery_latency_p99_ms", windowed_ms(t.latency_us, 0.99), "ms");
  rep.info("cpu_us_per_delivery",
           ratio((rs.cpu_user_s + rs.cpu_sys_s) * 1e6, deliveries), "us");
  const double undelivered =
      ratio(static_cast<double>(t.expected - t.delivered),
            static_cast<double>(t.expected));
  rep.info("undelivered_ratio", undelivered, "ratio");
  rep.info("messages", static_cast<double>(messages), "count");
  rep.info("deliveries", deliveries, "count");
  rep.info("delivery_latency_samples", static_cast<double>(samples), "count");
  rep.info("delivery_latency_windows", static_cast<double>(t.latency_us.size()),
           "count");
  rep.info("recovery_latency_p50_ms", percentile_ms(rs.recovery_us, 0.50), "ms");
  rep.info("recovery_latency_p99_ms", percentile_ms(rs.recovery_us, 0.99), "ms");
  rep.info("recovery_latency_samples", static_cast<double>(rs.recovery_us.size()),
           "count");
  rep.info("iterations", static_cast<double>(rs.iterations), "count");
  rep.info("drain_ms", ratio(rs.drain_ms, static_cast<double>(rs.iterations)),
           "ms");
  if (!rs.generator_late_ms.empty()) {
    std::vector<double>& late = rs.generator_late_ms;
    std::sort(late.begin(), late.end());
    auto k = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(late.size())));
    rep.info("bench.generator_late_p99_ms", late[std::max<std::size_t>(k, 1) - 1],
             "ms");
    rep.info("bench.generator_late_max_ms", late.back(), "ms");
  }
  if (rs.sim_events > 0) {
    rep.info("sim.ns_per_event",
             ratio(static_cast<double>(rs.run_ns), static_cast<double>(rs.sim_events)),
             "ns");
  }

  // Per layer, from counters the library exposes.
  const RecordingSink::Counters& c = rs.counters;
  rep.metric("net.send_syscalls_per_delivery",
             ratio(static_cast<double>(rs.send_syscalls), deliveries), "ratio");
  rep.metric("net.recv_syscalls_per_delivery",
             ratio(static_cast<double>(rs.recv_syscalls), deliveries), "ratio");
  rep.metric("net.poll_syscalls_per_delivery",
             ratio(static_cast<double>(rs.poll_syscalls), deliveries), "ratio");
  rep.metric("net.ring_replacements", static_cast<double>(rs.ring_replacements),
             "count");
  rep.metric("rrmp.credit_acks_per_delivery",
             ratio(static_cast<double>(c.credit_acks_sent), deliveries), "ratio");
  rep.metric("rrmp.credit_ack_suppressed_ratio",
             ratio(static_cast<double>(c.credit_acks_suppressed),
                   static_cast<double>(c.credit_acks_sent + c.credit_acks_suppressed)),
             "ratio");
  rep.metric("rrmp.flow_window_mean",
             ratio(rs.window_sum, static_cast<double>(rs.flow_samples)), "count");
  rep.metric("rrmp.send_queue_mean",
             ratio(rs.queue_sum, static_cast<double>(rs.flow_samples)), "count");
  rep.metric("rrmp.stall_remcasts", static_cast<double>(c.flow_stall_remcasts),
             "count");
  rep.metric("rrmp.requests_per_loss",
             ratio(static_cast<double>(c.local_requests_sent + c.remote_requests_sent),
                   static_cast<double>(c.losses_detected)),
             "ratio");
  rep.metric("rrmp.repairs_per_recovery",
             ratio(static_cast<double>(c.repairs_sent),
                   static_cast<double>(c.recoveries)),
             "ratio");
  rep.metric("rrmp.open_recoveries_end", static_cast<double>(rs.open_recoveries),
             "count");
  const buffer::BufferStats& b = rs.buffer;
  const std::uint64_t departed = b.discarded + b.evicted + b.shed + b.handed_off;
  rep.metric("buffer.stored_per_delivery",
             ratio(static_cast<double>(b.stored), deliveries), "ratio");
  rep.metric("buffer.evicted", static_cast<double>(b.evicted), "count");
  rep.metric("buffer.shed", static_cast<double>(b.shed), "count");
  rep.metric("buffer.rejected", static_cast<double>(b.rejected), "count");
  rep.metric("buffer.promoted_long_term",
             static_cast<double>(b.promoted_long_term), "count");
  rep.metric("buffer.mean_residency_ms",
             ratio(b.total_buffer_time.ms(), static_cast<double>(departed)), "ms");
  rep.metric("buffer.searches_started", static_cast<double>(c.searches_started),
             "count");
  rep.metric("buffer.search_hops_per_search",
             ratio(static_cast<double>(c.search_hops),
                   static_cast<double>(c.searches_started)),
             "ratio");
  rep.metric("sim.events", static_cast<double>(rs.sim_events), "count");
  rep.metric("sim.events_per_delivery",
             ratio(static_cast<double>(rs.sim_events), deliveries), "ratio");
  rep.metric("harness.metrics_merge_s", median(rs.metrics_call_s), "s");
  rep.metric("harness.teardown_s", median(rs.teardown_s), "s");
  const double cpu_s = rs.cpu_user_s + rs.cpu_sys_s;
  rep.metric("harness.cpu_busy_fraction", ratio(cpu_s, run_s), "ratio");
  rep.metric("harness.sys_fraction", ratio(rs.cpu_sys_s, cpu_s), "ratio");

  // Per layer, from the traced wrappers.
  if (tr) {
    const double frames = static_cast<double>(fs.total());
    std::int64_t handle_self = 0;
    for (int tag = 0; tag < 16; ++tag) {
      handle_self += tr->stat(kHandle0 + tag).self_ns;
    }
    auto per_call = [&](int name) {
      const Tracer::Stat& st = tr->stat(name);
      return ratio(static_cast<double>(st.self_ns), static_cast<double>(st.count));
    };
    rep.metric("net.loop_other_ns_per_delivery",
               ratio(static_cast<double>(rs.run_ns - rs.top_level_ns), deliveries),
               "ns");
    rep.metric("proto.decode_ns_per_frame", per_call(kDecode), "ns");
    rep.metric("proto.encode_ns_per_frame", per_call(kEncode), "ns");
    rep.metric("proto.bytes_per_frame", ratio(static_cast<double>(fs.bytes), frames),
               "B");
    std::uint64_t other = fs.total();
    for (proto::MessageType type : kReportedFrames) {
      auto tag = static_cast<std::size_t>(type);
      other -= fs.frames[tag];
      rep.metric(std::string("proto.frames.") + kFrameNames[tag],
                 static_cast<double>(fs.frames[tag]), "count");
      const Tracer::Stat& st = tr->stat(kHandle0 + static_cast<int>(tag));
      // Data and session frames occur in every workload and are per-layer
      // metrics below; the other types only where their layer is active.
      if (st.count > 0 && type != proto::MessageType::kData &&
          type != proto::MessageType::kSession) {
        rep.info(std::string("rrmp.handle_ns.") + kFrameNames[tag],
                 ratio(static_cast<double>(st.self_ns), static_cast<double>(st.count)),
                 "ns");
      }
    }
    rep.metric("proto.frames.other", static_cast<double>(other), "count");
    rep.metric("rrmp.handle_ns.data",
               per_call(kHandle0 + static_cast<int>(proto::MessageType::kData)), "ns");
    rep.metric("rrmp.handle_ns.session",
               per_call(kHandle0 + static_cast<int>(proto::MessageType::kSession)),
               "ns");
    rep.metric("rrmp.handle_ns_per_frame",
               ratio(static_cast<double>(handle_self), frames), "ns");
    rep.metric("rrmp.handle_share",
               ratio(static_cast<double>(handle_self), static_cast<double>(rs.run_ns)),
               "ratio");
    rep.metric("rrmp.multicast_ns_per_call", per_call(kMulticast), "ns");
    rep.metric("repair.escalates_per_message",
               ratio(static_cast<double>(
                         fs.frames[static_cast<std::size_t>(proto::MessageType::kEscalate)]),
                     static_cast<double>(messages)),
               "ratio");
    rep.info("proto.undecodable_frames", static_cast<double>(fs.undecodable), "count");
  }

  // Correctness.
  rep.set_counts(t.expected, t.expected - t.delivered);
  rep.check(t.duplicates == 0, "exactly-once delivery per (member, MessageId)");
  rep.check(t.bad_payload == 0, "delivered payloads match what was sent");
  rep.check(t.unknown == 0, "no delivery of a message that was never sent");
  rep.check(t.sequence_errors == 0, "multicast assigns consecutive sequences");
  rep.check(messages > 0, "at least one message multicast");
  rep.check(undelivered <= lim.undelivered_ceiling,
            "undelivered_ratio within the workload's ceiling");
  rep.check(lim.budget_bytes == 0 || rs.buffer_peak_bytes <= lim.budget_bytes,
            "buffer_bytes_peak within the configured budget");
  rep.check(!lim.expect_no_open_recoveries || rs.open_recoveries == 0,
            "no open recoveries at the end");
  rep.check(fs.undecodable == 0, "every received frame decodes");
}

void write_trace_files(const Tracer& tr, const Options& opt, const RunStats& rs) {
  const std::string stem = opt.out_dir + "/";
  tr.write_chrome(stem + "trace_" + opt.workload + ".json", opt.workload);
  tr.write_layers(stem + "layers_" + opt.workload + ".json", opt.workload,
                  rs.run_ns, rs.top_level_ns);
}

// ---- UDP workloads ------------------------------------------------------------

struct UdpWorkload {
  std::vector<std::size_t> regions;
  Duration intra_rtt;
  Duration inter_one_way;
  bool emulate_latency = false;
  std::vector<MemberId> senders;
  std::size_t payload_bytes = 64;
  double loss = 0.0;             // share of initial deliveries dropped
  double rate_per_s = 0.0;       // multicasts per second, over all senders
  FlowControlParams flow;
  std::uint16_t base_port = 46000;
  Duration drain_cap = Duration::seconds(1);
  Limits limits;
};

/// Topology plus runtime; the runtime keeps a reference to the topology,
/// which is therefore declared (and destroyed) first.
struct UdpWorld {
  net::Topology topology;
  std::unique_ptr<harness::UdpRuntime> rt;
};

std::unique_ptr<UdpWorld> make_udp_world(const UdpWorkload& w,
                                         std::uint64_t seed) {
  auto world = std::make_unique<UdpWorld>(UdpWorld{
      net::make_hierarchy(w.regions, w.intra_rtt, w.inter_one_way), nullptr});
  harness::UdpRuntimeConfig cfg;
  cfg.seed = seed;
  cfg.workers = 1;
  cfg.emulate_latency = w.emulate_latency;
  // Four members per region puts the paper's C = 6 above the region size,
  // so every member promotes every message to the long-term phase; without
  // a TTL buffers (and the receive-ring slots their payloads alias) grow for
  // the whole run.
  cfg.policy = buffer::TwoPhaseParams{Duration::millis(40), 6.0,
                                      Duration::millis(100)};
  cfg.protocol.flow = w.flow;
  if (w.loss > 0) {
    const auto threshold = static_cast<std::uint64_t>(
        w.loss * static_cast<double>(UINT64_MAX));
    cfg.drop_fn = [seed, threshold](std::uint64_t seq, MemberId to) {
      return mix64(seed ^ mix64((seq << 20) ^ to)) < threshold;
    };
  }
  // Another process may hold the ports: try a few disjoint ranges before
  // treating the bind failure as an error.
  constexpr int kPortAttempts = 8;
  for (int attempt = 0;; ++attempt) {
    cfg.base_port = static_cast<std::uint16_t>(w.base_port + 64 * attempt);
    try {
      world->rt = std::make_unique<harness::UdpRuntime>(world->topology, cfg);
      return world;
    } catch (const std::runtime_error& e) {
      if (attempt + 1 == kPortAttempts) {
        throw std::runtime_error(std::string("UDP bind failed: ") + e.what());
      }
    }
  }
}

void install_udp(UdpWorld& world, Ledger& ledger, Tracer* tr, FrameStats& fs) {
  harness::UdpRuntime& rt = *world.rt;
  net::UdpBus& bus = rt.bus();
  for (MemberId m = 0; m < rt.size(); ++m) {
    rt.endpoint(m).set_delivery_handler(
        [&ledger, &bus, tr, m](const proto::Data& d) {
          Scope s(tr, kDeliver);
          ledger.on_delivery(m, d, bus.now().us());
        });
  }
  if (tr) {
    bus.set_receive_callback(
        [&rt, tr, &fs](MemberId to, MemberId from, SharedBytes bytes) {
          traced_receive(*tr, fs, rt.endpoint(to), bytes, from);
        });
  }
}

Report run_udp(const UdpWorkload& w, const Options& opt) {
  Report rep;
  RunStats rs;
  FrameStats fs;
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* tr = tracer ? &*tracer : nullptr;

  const std::size_t members = [&] {
    std::size_t n = 0;
    for (std::size_t r : w.regions) n += r;
    return n;
  }();
  Ledger ledger(members, w.senders, opt.seed, w.payload_bytes);
  Tally tally;

  auto build = [&] {
    auto world = make_udp_world(w, opt.seed);
    install_udp(*world, ledger, tr, fs);
    return world;
  };
  if (opt.setup_only) return setup_only(build);
  setup_batches(rs, build);
  const std::int64_t setup0 = now_ns();
  std::unique_ptr<UdpWorld> world = build();
  rs.setup_s.push_back(ns_to_s(now_ns() - setup0));
  harness::UdpRuntime& rt = *world->rt;
  net::UdpBus& bus = rt.bus();

  const Duration window = Duration::micros(
      static_cast<std::int64_t>(opt.seconds * opt.scale * 1e6));
  const TimePoint t0 = bus.now();
  const TimePoint window_end = t0 + window;
  const std::uint64_t planned =
      static_cast<std::uint64_t>(w.rate_per_s * window.sec());
  const double interval_us = 1e6 / w.rate_per_s;
  auto due_us = [&](std::uint64_t k) {
    return t0.us() + static_cast<std::int64_t>(static_cast<double>(k) * interval_us);
  };

  auto send = [&](MemberId s, std::int64_t ref_us) {
    std::uint64_t seq = ledger.next_seq(s);
    auto payload = make_payload(opt.seed, s, seq, w.payload_bytes);
    ledger.add_message(s, ref_us);
    MessageId id;
    {
      Scope sc(tr, kMulticast);
      id = rt.endpoint(s).multicast(std::move(payload));
    }
    if (id.seq != seq) ++tally.sequence_errors;
  };

  // Generator, open loop: a bus timer that sends every message whose due
  // time has passed, round robin over the senders, and re-arms itself for
  // the next due time. A closed loop that saturates this runtime oscillates
  // (README.md, "Where the workloads differ from their first sizing").
  std::uint64_t next_k = 0;
  std::function<void()> tick = [&] {
    Scope sc(tr, kGenerator);
    const TimePoint now = bus.now();
    if (now >= window_end) return;
    for (; next_k < planned && due_us(next_k) <= now.us(); ++next_k) {
      rs.generator_late_ms.push_back(
          static_cast<double>(now.us() - due_us(next_k)) / 1e3);
      send(w.senders[next_k % w.senders.size()], due_us(next_k));
    }
    bus.schedule_after(
        Duration::micros(std::max<std::int64_t>(0, due_us(next_k) - bus.now().us())),
        tick);
  };
  bus.schedule_after(Duration::zero(), tick);

  auto harvest = [&] {
    std::int64_t t = now_ns();
    RecordingSink* sink = nullptr;
    {
      Scope sc(tr, kMetrics);
      sink = &rt.metrics();
    }
    rs.metrics_call_s.push_back(ns_to_s(now_ns() - t));
    // Folding the sink into the run totals and clearing it keeps the
    // library's per-event vectors from growing with throughput.
    add_sink(rs, *sink);
    sink->clear();
  };
  auto sample = [&] {
    Scope sc(tr, kSample);
    sample_state(rs, members, [&rt](MemberId m) -> Endpoint& { return rt.endpoint(m); },
                 w.senders, w.flow.enabled);
  };

  const CpuTimes cpu0 = cpu_now();
  const std::int64_t wall0 = now_ns();
  const std::int64_t top0 = tr ? tr->top_level_ns() : 0;
  std::uint64_t steps = 0;
  while (bus.now() < window_end) {
    rt.run_for(std::min(kSamplePeriod, window_end - bus.now()));
    sample();
    if (++steps % 10 == 0) harvest();
  }
  const TimePoint drain_start = bus.now();
  while (!ledger.complete() && bus.now() - drain_start < w.drain_cap) {
    rt.run_for(kSamplePeriod);
    sample();
  }
  rs.drain_ms = (bus.now() - drain_start).ms();
  rs.run_ns = now_ns() - wall0;
  rs.deliveries_per_s.push_back(
      static_cast<double>(ledger.delivered()) / ns_to_s(rs.run_ns));
  rs.top_level_ns = tr ? tr->top_level_ns() - top0 : 0;
  const CpuTimes cpu1 = cpu_now();
  rs.cpu_user_s = cpu1.user - cpu0.user;
  rs.cpu_sys_s = cpu1.sys - cpu0.sys;
  harvest();
  rs.iterations = 1;

  for (MemberId m = 0; m < rt.size(); ++m) {
    add_buffer_stats(rs, rt.endpoint(m).buffer().stats());
    rs.open_recoveries += rt.endpoint(m).active_recoveries();
  }
  rs.wire_msgs = rt.datagrams_sent();
  rs.send_syscalls = bus.send_syscalls();
  rs.recv_syscalls = bus.recv_syscalls();
  rs.poll_syscalls = bus.poll_syscalls();
  rs.ring_replacements = bus.ring_replacements();

  const std::int64_t td0 = now_ns();
  world.reset();
  rs.teardown_s.push_back(ns_to_s(now_ns() - td0));
  setup_batches(rs, build);

  ledger.add_to(tally);
  report_run(rep, rs, tally, w.limits, tr, fs);
  if (tr) write_trace_files(*tr, opt, rs);
  return rep;
}

// ---- simulator workloads ---------------------------------------------------

struct SimWorkload {
  harness::ClusterConfig cluster;
  std::vector<MemberId> senders;
  std::size_t payload_bytes = 0;
  Duration interval;
  /// Messages per sender per iteration. Each iteration runs on a fresh
  /// cluster with its own seed and a fixed amount of simulated work, so
  /// every simulated-time metric is independent of how fast the simulator
  /// runs (see iteration_s for how many iterations a run does).
  std::size_t messages = 0;
  /// Simulated time run after the last message, always in full: a drain
  /// that ended on completion would make the work per run seed-dependent.
  Duration drain;
  /// Wall time one iteration takes on the host the workloads were sized on
  /// (see README.md); a run does max(1, round(seconds / iteration_s)) of them.
  /// The count must not depend on measured speed: an extra iteration runs
  /// on warm memory and would make throughput and RSS bimodal.
  double iteration_s = 0;
  Limits limits;
};

std::size_t cluster_size(const harness::ClusterConfig& cc) {
  std::size_t n = 0;
  for (std::size_t r : cc.region_sizes) n += r;
  return n;
}

/// Build a cluster and install the bench's handlers: the delivery ledger
/// always, the traced receive glue with --trace.
std::unique_ptr<harness::Cluster> build_sim(const harness::ClusterConfig& cc,
                                            Ledger& ledger, Tracer* tr,
                                            FrameStats& fs) {
  auto cluster = std::make_unique<harness::Cluster>(cc);
  for (MemberId m = 0; m < cluster->size(); ++m) {
    harness::SimHost* host = &cluster->host(m);
    cluster->endpoint(m).set_delivery_handler(
        [&ledger, host, tr, m](const proto::Data& d) {
          Scope s(tr, kDeliver);
          ledger.on_delivery(m, d, host->now().us());
        });
    if (tr) {
      // The simulator hands over decoded messages; the traced glue still
      // encodes and decodes each one so the codec is timed over the same
      // frame mix a socket transport would carry.
      Endpoint* ep = &cluster->endpoint(m);
      host->set_receiver([tr, &fs, ep](const proto::Message& msg, MemberId from) {
        SharedBytes wire;
        {
          Scope s(tr, kEncode);
          wire = SharedBytes(proto::encode(msg));
        }
        {
          Scope s(tr, kDecode);
          if (!proto::decode_shared(wire)) ++fs.undecodable;
        }
        handle_traced(*tr, fs, *ep, msg, from, wire.size());
      });
    }
  }
  return cluster;
}

Report run_sim(const SimWorkload& w, const Options& opt) {
  Report rep;
  RunStats rs;
  FrameStats fs;
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* tr = tracer ? &*tracer : nullptr;

  const auto iterations = static_cast<std::uint64_t>(
      std::max(1L, std::lround(opt.seconds / w.iteration_s)));
  const bool flow = w.cluster.protocol.flow.enabled;

  // Throwaway builds record into a ledger of their own.
  Ledger scratch(cluster_size(w.cluster), w.senders, opt.seed,
                 w.payload_bytes);
  auto build = [&] { return build_sim(w.cluster, scratch, tr, fs); };
  if (opt.setup_only) return setup_only(build);
  setup_batches(rs, build);

  Tally tally;  // pooled over iterations; each has its own ledger
  do {
    harness::ClusterConfig cc = w.cluster;
    cc.seed = rs.iterations == 0 ? opt.seed : mix64(opt.seed ^ rs.iterations);
    Ledger ledger(cluster_size(cc), w.senders, cc.seed, w.payload_bytes);

    const std::int64_t setup0 = now_ns();
    std::unique_ptr<harness::Cluster> cluster = build_sim(cc, ledger, tr, fs);
    rs.setup_s.push_back(ns_to_s(now_ns() - setup0));
    harness::Cluster& c = *cluster;

    auto send = [&](MemberId s, TimePoint due) {
      Scope sc(tr, kGenerator);
      std::uint64_t seq = ledger.next_seq(s);
      auto payload = make_payload(cc.seed, s, seq, w.payload_bytes);
      ledger.add_message(s, due.us());
      MessageId id;
      {
        Scope m(tr, kMulticast);
        id = c.endpoint(s).multicast(std::move(payload));
      }
      if (id.seq != seq) ++tally.sequence_errors;
    };

    const CpuTimes cpu0 = cpu_now();
    const std::int64_t wall0 = now_ns();
    const std::int64_t top0 = tr ? tr->top_level_ns() : 0;
    const TimePoint start = c.now();
    std::uint64_t next_k = 0;  // per-sender message index
    bool generating = true;
    TimePoint drain_start = start;
    std::optional<TimePoint> completed;
    for (;;) {
      if (!generating && !completed && ledger.complete()) completed = c.now();
      const TimePoint step_end = c.now() + kSamplePeriod;
      if (generating && next_k >= w.messages) {
        generating = false;
        drain_start = c.now();
      }
      if (generating) {
        for (; next_k < w.messages; ++next_k) {
          const TimePoint due = start + w.interval * static_cast<std::int64_t>(next_k);
          if (due >= step_end) break;
          for (MemberId s : w.senders) {
            c.schedule_script(due, [&send, s, due] { send(s, due); });
          }
        }
      } else if (c.now() - drain_start >= w.drain) {
        break;
      }
      c.run_for(kSamplePeriod);
      Scope sc(tr, kSample);
      sample_state(rs, c.size(),
                   [&c](MemberId m) -> Endpoint& { return c.endpoint(m); },
                   w.senders, flow);
    }
    const std::int64_t iteration_ns = now_ns() - wall0;
    rs.run_ns += iteration_ns;
    rs.deliveries_per_s.push_back(static_cast<double>(ledger.delivered()) /
                                  ns_to_s(iteration_ns));
    rs.drain_ms += (completed.value_or(c.now()) - drain_start).ms();
    if (tr) rs.top_level_ns += tr->top_level_ns() - top0;
    const CpuTimes cpu1 = cpu_now();
    rs.cpu_user_s += cpu1.user - cpu0.user;
    rs.cpu_sys_s += cpu1.sys - cpu0.sys;

    {
      std::int64_t tm = now_ns();
      const RecordingSink* sink = nullptr;
      {
        Scope sc(tr, kMetrics);
        sink = &c.metrics();
      }
      rs.metrics_call_s.push_back(ns_to_s(now_ns() - tm));
      add_sink(rs, *sink);
    }
    for (MemberId m = 0; m < c.size(); ++m) {
      add_buffer_stats(rs, c.endpoint(m).buffer().stats());
      rs.open_recoveries += c.endpoint(m).active_recoveries();
    }
    rs.wire_msgs += c.network().stats().sends;
    rs.sim_events += c.events_fired();
    ++rs.iterations;

    ledger.add_to(tally);

    const std::int64_t td0 = now_ns();
    cluster.reset();
    rs.teardown_s.push_back(ns_to_s(now_ns() - td0));
  } while (rs.iterations < iterations);
  setup_batches(rs, build);

  report_run(rep, rs, tally, w.limits, tr, fs);
  if (tr) write_trace_files(*tr, opt, rs);
  return rep;
}

// ---- workload definitions --------------------------------------------------

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::lround(static_cast<double>(n) * scale)));
}

Report udp_small_open(const Options& opt) {
  UdpWorkload w;
  w.regions = {4, 4, 4, 4};
  w.intra_rtt = Duration::millis(2);
  w.inter_one_way = Duration::millis(4);
  w.emulate_latency = false;
  w.senders = {0};
  w.payload_bytes = 64;
  // A fifth of what this runtime sustains on the measurement host (open
  // loops at 5000 msgs/s fell behind on 2 of 4 seeds), so the loop is busy
  // about a quarter of the time. At 2500 msgs/s it was busy half the time,
  // and with the host's four cores shared with four busy loops its p50 rose
  // from 0.7 to 0.85-4 ms and its p99 from 1.9 to 6-17 ms; at 1000 msgs/s
  // the p50 held at 0.65 ms and the p99 rose from 1.5 to 3.2-3.9 ms.
  w.rate_per_s = 1000;
  // The credit plane runs (CreditAcks every 10 ms, floor tracking) but its
  // static window never binds: a binding window ties latency to the 10 ms
  // credit cycle, and the adaptive window starts at 2 frames.
  w.flow.enabled = true;
  w.flow.piggyback = true;
  w.flow.window_size = 256;
  w.base_port = 46000;
  w.limits.expect_no_open_recoveries = true;
  return run_udp(w, opt);
}

Report udp_lossy_open(const Options& opt) {
  UdpWorkload w;
  w.regions = {4, 4, 4, 4};
  w.intra_rtt = Duration::millis(4);
  w.inter_one_way = Duration::millis(10);
  w.emulate_latency = true;
  w.senders = {0, 4, 8, 12};
  w.payload_bytes = 1024;
  w.loss = 0.05;
  w.rate_per_s = 1000;
  w.base_port = 46600;
  w.limits.undelivered_ceiling = 0.001;
  return run_udp(w, opt);
}

Report sim_region_stream(const Options& opt) {
  SimWorkload w;
  // Regions stay at least 25 strong when scaled down: below that the
  // paper's C = 6 long-term copies per region approach every member.
  const std::size_t region = scaled(100, opt.scale, 25);
  w.cluster.region_sizes = {region, region, region, region};
  w.cluster.policy = buffer::TwoPhaseParams{};
  // A 6 KiB budget holds about 20 frames, so long-term copies push every
  // member into eviction within the run.
  w.cluster.protocol.buffer_budget.max_bytes = 6 * 1024;
  w.cluster.protocol.buffer_coordination.enabled = true;
  w.cluster.protocol.flow.enabled = true;
  w.cluster.protocol.flow.adaptive = true;
  w.cluster.protocol.flow.piggyback = true;
  // The stream runs at about half the flow-controlled capacity. Near
  // capacity — 500 msgs/s here, or with back-pressure tying the window to
  // the full budgets — the send queue sits at the edge of stability and its
  // delay differs by a quarter from seed to seed.
  w.cluster.protocol.flow.backpressure = false;
  w.cluster.data_loss = 0.05;
  w.cluster.jitter = 0.1;
  w.senders = {0};
  w.payload_bytes = 256;
  w.interval = Duration::millis(4);
  w.messages = scaled(250, opt.scale, 20);
  // Recoveries that must search for an evicted copy finish up to ~0.7 s
  // after the last message.
  w.drain = Duration::seconds(1);
  w.iteration_s = 20;
  w.limits.budget_bytes = w.cluster.protocol.buffer_budget.max_bytes;
  return run_sim(w, opt);
}

Report sim_tree_1e4(const Options& opt) {
  SimWorkload w;
  constexpr std::size_t kFanout = 10;
  constexpr std::size_t kRegions = 1 + kFanout + kFanout * kFanout;  // depth 2
  // 90 members per region. At 900 (99,900 members, --scale 10) the run's
  // 2.4 GiB working set makes its wall time follow other tenants' memory
  // traffic: the same work took 12% more or less from run to run. Many short
  // iterations, each on a fresh cluster, keep the library's per-delivery
  // metrics memory small.
  w.cluster.region_sizes.assign(kRegions, scaled(90, opt.scale, 4));
  w.cluster.parents.resize(kRegions);
  for (std::size_t r = 1; r < kRegions; ++r) {
    w.cluster.parents[r] = static_cast<RegionId>((r - 1) / kFanout);
  }
  // The paper sets the idle threshold T to four region RTTs; here repairs
  // climb a tree whose hops take a 100 ms round trip, so T is 400 ms.
  // With T = 40 ms about 1e-5 of (member, message) pairs never recover:
  // every nearby copy is discarded before the escalated request arrives.
  w.cluster.policy = buffer::TwoPhaseParams{Duration::millis(400), 6.0};
  w.cluster.protocol.hierarchy.enabled = true;
  w.cluster.data_loss = 0.05;
  // Jitter spreads the latency distribution; without it every delivery of
  // an unlost message lands on one of three fixed latencies and the median
  // reads the same on every seed.
  w.cluster.jitter = 0.1;
  w.senders = {0};
  w.payload_bytes = 256;
  w.interval = Duration::millis(1);
  w.messages = 10;
  w.drain = Duration::millis(600);
  w.iteration_s = 1;
  return run_sim(w, opt);
}

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"udp_small_open", udp_small_open},
    {"udp_lossy_open", udp_lossy_open},
    {"sim_region_stream", sim_region_stream},
    {"sim_tree_1e4", sim_tree_1e4},
};

}  // namespace
}  // namespace rrmp::e2e

int main(int argc, char** argv) {
  using namespace rrmp::e2e;
  // Fixed allocator thresholds. glibc otherwise raises them as the process
  // frees large blocks, so the same tree build took 30-46 ms on fresh pages
  // before the first simulated iteration and 13-17 ms on reused ones after
  // it, and setup_s depended on how many builds each regime contributed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::optional<Options> opt = parse_options(argc, argv);
  if (!opt) return 2;
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt->workload == w.name) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n", opt->workload.c_str());
    return 2;
  }
  try {
    Report rep = wl->run(*opt);
    std::printf("%s\n", rep.to_json(*opt).c_str());
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", opt->workload.c_str(), e.what());
    return 2;
  }
}
