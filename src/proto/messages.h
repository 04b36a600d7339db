// Wire messages of the RRMP protocol suite (paper §2–§3) plus the
// stability-detection baseline's history exchange [8]. The paper assumes a
// gossip failure detector [13] underneath; here membership comes from the
// harness's membership::Directory, so no frame carries failure detection.
//
// A Message is a closed variant; the codec (codec.h) maps it to/from bytes.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

namespace rrmp::proto {

/// One per-source receive cursor: the highest sequence of `source`'s stream
/// a member has received *contiguously* (0 = none). Cursor advances release
/// send credits at the source (flow control). Carried in CreditAck frames
/// and, when cursor piggybacking is on, as an optional trailing block on
/// Data and Session frames.
struct ReceiveCursor {
  MemberId source = kInvalidMember;
  std::uint64_t cursor = 0;

  friend bool operator==(const ReceiveCursor&, const ReceiveCursor&) = default;
};

/// Application data, disseminated by the sender's initial IP multicast and
/// retransmitted during recovery. The payload is a refcounted immutable
/// buffer: storing, relaying, and repairing a message share one allocation.
///
/// `cursors` is the piggybacked flow-control block (the sender's own
/// per-source receive cursors, riding along so receivers need fewer
/// standalone CreditAcks). It is an *optional trailing* wire
/// field: an empty vector encodes to exactly the pre-piggyback byte layout,
/// and Data nested inside Handoff/Shed is always encoded cursor-free (the
/// nested form has no length prefix, so the trailing block is top-level
/// only). Stored/buffered copies always carry an empty vector.
struct Data {
  MessageId id;
  SharedBytes payload;
  std::vector<ReceiveCursor> cursors{};

  friend bool operator==(const Data&, const Data&) = default;
};

/// Periodic session message from the sender announcing the highest sequence
/// number sent; lets receivers detect loss of the last message in a burst
/// (paper §2.1). `cursors` is the same optional trailing piggyback block as
/// on Data: empty encodes byte-identically to the pre-piggyback layout.
struct Session {
  MemberId source = kInvalidMember;
  std::uint64_t highest_seq = 0;
  std::vector<ReceiveCursor> cursors{};

  friend bool operator==(const Session&, const Session&) = default;
};

/// Local-recovery retransmission request to a randomly selected neighbor in
/// the requester's own region (paper §2.2). Also the feedback signal for
/// short-term buffering (paper §3.1).
struct LocalRequest {
  MessageId id;
  MemberId requester = kInvalidMember;

  friend bool operator==(const LocalRequest&, const LocalRequest&) = default;
};

/// Remote-recovery request to a randomly selected member of the parent
/// region, sent with probability lambda/|region| per attempt (paper §2.2).
struct RemoteRequest {
  MessageId id;
  MemberId requester = kInvalidMember;

  friend bool operator==(const RemoteRequest&, const RemoteRequest&) = default;
};

/// Unicast retransmission of a message to a requester. `remote` is true when
/// the repair crosses regions (parent -> child); the receiver of a remote
/// repair multicasts it in its own region (paper §2.2).
struct Repair {
  MessageId id;
  SharedBytes payload;
  bool remote = false;

  friend bool operator==(const Repair&, const Repair&) = default;
};

/// Intra-region multicast of a repair, sent by the member that obtained the
/// message from the parent region (paper §2.2).
struct RegionalRepair {
  MessageId id;
  SharedBytes payload;
  MemberId relayer = kInvalidMember;

  friend bool operator==(const RegionalRepair&, const RegionalRepair&) = default;
};

/// Random-search probe for a bufferer of a discarded message (paper §3.3):
/// forwarded from member to member until it reaches someone who still
/// buffers `id`, who then repairs `remote_requester` directly.
struct SearchRequest {
  MessageId id;
  MemberId remote_requester = kInvalidMember;

  friend bool operator==(const SearchRequest&, const SearchRequest&) = default;
};

/// Intra-region multicast "I have the message" that terminates a search
/// (paper §3.3).
struct SearchFound {
  MessageId id;
  MemberId holder = kInvalidMember;

  friend bool operator==(const SearchFound&, const SearchFound&) = default;
};

/// Long-term buffer transfer from a member leaving the group to a randomly
/// selected member of its region (paper §3.2).
struct Handoff {
  std::vector<Data> messages;

  friend bool operator==(const Handoff&, const Handoff&) = default;
};

/// Per-source reception state: everything below `next_expected` was
/// received; `bitmap` covers [next_expected, next_expected + 64*len).
struct SourceHistory {
  MemberId source = kInvalidMember;
  std::uint64_t next_expected = 0;
  std::vector<std::uint64_t> bitmap;

  friend bool operator==(const SourceHistory&, const SourceHistory&) = default;
};

/// Periodic message-history exchange used by the stability-detection
/// baseline (Guo & Rhee [8]); RRMP itself never sends these.
struct History {
  MemberId member = kInvalidMember;
  std::vector<SourceHistory> sources;

  friend bool operator==(const History&, const History&) = default;
};

/// One contiguous run of buffered message ids from a single source:
/// [first_seq, first_seq + count). Buffered sets are dense in practice
/// (streams are sequential), so a handful of ranges covers a whole store.
struct DigestRange {
  MemberId source = kInvalidMember;
  std::uint64_t first_seq = 0;
  std::uint64_t count = 0;

  friend bool operator==(const DigestRange&, const DigestRange&) = default;
};

/// Compact per-member buffer digest — the gossip/heartbeat extension behind
/// cooperative region-wide budgets: held MessageId ranges plus bytes in
/// use, multicast within the region every digest period so each member
/// learns an approximate replica count per buffered entry and where free
/// buffer capacity lives. `window_outstanding` additionally advertises the
/// member's own flow-control window occupancy (outstanding unacknowledged
/// Data frames; 0 when flow control is off), making send pressure visible
/// region-wide alongside buffer pressure.
struct BufferDigest {
  MemberId member = kInvalidMember;
  std::uint64_t bytes_in_use = 0;
  std::uint64_t window_outstanding = 0;
  std::vector<DigestRange> ranges;
  /// Connectivity generation (fault injection: bumped at every partition
  /// and heal). A digest that crossed a partition boundary carries a stale
  /// generation and is dropped by the receiver. Rides as an optional
  /// trailing varint: 0 (no partition ever) encodes to zero bytes, so the
  /// layout is byte-identical to the pre-fault wire format.
  std::uint64_t view_gen = 0;

  friend bool operator==(const BufferDigest&, const BufferDigest&) = default;
};

/// Shed/handoff: a member over budget pushes a sole-copy entry (no other
/// region member advertises it) to the least-loaded digest-advertised
/// neighbor instead of silently discarding the region's last copy.
struct Shed {
  MemberId from = kInvalidMember;
  Data message;

  friend bool operator==(const Shed&, const Shed&) = default;
};

/// Periodic receiver-side flow-control feedback, unicast every ack_interval
/// to each region member the receiver has received frames from as a source:
/// that sender's receive cursor alone (the credit release signal,
/// Derecho-style num_received counters) plus the member's buffer occupancy
/// and budget so the sender can judge back-pressure (DFI-style target
/// accounting). Only sent when flow control is enabled. The wire format
/// still carries a cursor list. With cursor piggybacking on, CreditAck is
/// demoted to a fallback for quiet receivers: it is suppressed while the
/// member's cursors are already fresh on its own recent Data/Session
/// traffic, with a periodic refresh.
struct CreditAck {
  MemberId member = kInvalidMember;
  std::uint64_t bytes_in_use = 0;
  std::uint64_t budget_bytes = 0;  // 0 = unlimited
  std::vector<ReceiveCursor> cursors;
  /// Connectivity generation (see BufferDigest::view_gen): an ack sent
  /// pre-partition and delivered post-heal must not regress the sender's
  /// view of reported cursors. Optional trailing varint; 0 = zero bytes.
  std::uint64_t view_gen = 0;

  friend bool operator==(const CreditAck&, const CreditAck&) = default;
};

/// Hierarchical-repair escalation (repair trees): a sub-region
/// representative that cannot answer a NAK locally forwards it to its
/// parent region's representative instead of the paper's random
/// parent-region member. `requester` is the representative to repair
/// (its regional relay then covers its whole sub-region); `hop` counts
/// escalation levels climbed so far and bounds runaway forwarding.
struct Escalate {
  MessageId id;
  MemberId requester = kInvalidMember;
  std::uint32_t hop = 0;

  friend bool operator==(const Escalate&, const Escalate&) = default;
};

using Message =
    std::variant<Data, Session, LocalRequest, RemoteRequest, Repair,
                 RegionalRepair, SearchRequest, SearchFound, Handoff, History,
                 BufferDigest, Shed, CreditAck, Escalate>;

/// Stable wire tags; never renumber.
enum class MessageType : std::uint8_t {
  kData = 1,
  kSession = 2,
  kLocalRequest = 3,
  kRemoteRequest = 4,
  kRepair = 5,
  kRegionalRepair = 6,
  kSearchRequest = 7,
  kSearchFound = 8,
  kHandoff = 9,
  // 10 carried the gossip failure detector's heartbeats. Reserved: never
  // reuse it; the decoder rejects a frame with this tag.
  kHistory = 11,
  kBufferDigest = 12,
  kShed = 13,
  kCreditAck = 14,
  kEscalate = 15,
};

MessageType type_of(const Message& m);
const char* type_name(MessageType t);
inline const char* type_name(const Message& m) { return type_name(type_of(m)); }

}  // namespace rrmp::proto
