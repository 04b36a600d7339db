// FaultScript: hostile network conditions as data, not code.
//
// A fault script is a timeline of scheduled fault events — crash/rejoin
// storms, graceful leaves, network partitions and heals, loss-rate changes,
// per-member lossy edges — applied to a Cluster at absolute simulation
// times through Cluster::schedule_script. Scripts are buildable
// programmatically (the fluent builders below) or parsed from a simple
// key=value event-per-line spec file, so a scenario binary can take its
// failure schedule from the command line (scenario_cli --fault-script).
//
// Spec grammar (one event per line; '#' starts a comment; blank lines are
// ignored; keys may appear in any order):
//
//   at=<time> event=<kind> [key=value ...]
//
//   <time>    unsigned integer with optional unit suffix: us, ms (default), s
//   <members> comma-separated member ids and inclusive ranges: 3,5,7-9
//   <groups>  member lists separated by '|': 0-5|6-11 (members in no group
//             form one implicit extra group, connected among themselves)
//
//   event=crash         members=<members>
//   event=rejoin        members=<members>
//   event=leave         members=<members>
//   event=partition     groups=<groups>
//   event=heal
//   event=data-loss     rate=<float> [members=<members>]   (default: all)
//   event=control-loss  rate=<float>
//   event=link-loss     members=<members> rate=<float> [src=<member>]
//
// Every loss event sets an independent per-packet rate (net::SimNetwork).
// data-loss sets the listed senders' initial IP multicast loss (a rejoiner
// starts at the cluster-wide rate); control-loss the control/repair loss;
// link-loss overrides every link into each listed member, or only the
// src -> member edge when src is given. All events run
// at script barriers, so a scripted run is deterministic at every shard
// count; a run with an empty script is bit-identical to an unscripted one.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace rrmp::harness {

class Cluster;

struct FaultEvent {
  enum class Kind {
    kCrash,
    kRejoin,
    kLeave,
    kPartition,
    kHeal,
    kDataLoss,
    kControlLoss,
    kLinkLoss,
  };

  TimePoint at;
  Kind kind = Kind::kHeal;
  /// crash/rejoin/leave/link-loss targets; data-loss sender scope (empty =
  /// every sender).
  std::vector<MemberId> members;
  /// partition groups.
  std::vector<std::vector<MemberId>> groups;
  /// data-loss / control-loss / link-loss rate.
  double rate = 0.0;
  /// link-loss: restrict the override to this sender's edges
  /// (kInvalidMember = every sender into each listed member).
  MemberId src = kInvalidMember;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

const char* fault_event_kind_name(FaultEvent::Kind kind);

class FaultScript {
 public:
  // Fluent programmatic builders; events keep insertion order (schedule_on
  // hands them to the cluster's script queue, which breaks time ties FIFO).
  FaultScript& crash(TimePoint at, std::vector<MemberId> members);
  FaultScript& rejoin(TimePoint at, std::vector<MemberId> members);
  FaultScript& leave(TimePoint at, std::vector<MemberId> members);
  FaultScript& partition(TimePoint at,
                         std::vector<std::vector<MemberId>> groups);
  FaultScript& heal(TimePoint at);
  /// Empty `senders` = every sender.
  FaultScript& data_loss(TimePoint at, double rate,
                         std::vector<MemberId> senders = {});
  FaultScript& control_loss(TimePoint at, double rate);
  FaultScript& link_loss(TimePoint at, std::vector<MemberId> members,
                         double rate, MemberId src = kInvalidMember);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Schedule every event on `cluster` (Cluster::schedule_script at the
  /// event's absolute time). Validates member/region ids against the
  /// cluster size first and throws std::invalid_argument on a bad id, so a
  /// typo fails loudly at schedule time instead of mid-run.
  void schedule_on(Cluster& cluster) const;

  /// Parse the key=value spec. On failure returns std::nullopt and, when
  /// `error` is non-null, a "line N: reason" message.
  static std::optional<FaultScript> parse(std::string_view text,
                                          std::string* error = nullptr);
  /// parse() on a file's contents (error covers unreadable files too).
  static std::optional<FaultScript> parse_file(const std::string& path,
                                               std::string* error = nullptr);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace rrmp::harness
