// Per-source reception tracking and loss detection.
//
// A receiver detects a loss by observing a gap in the sequence-number space
// of a source (paper §2.1); session messages reveal the highest sequence
// sent, exposing losses at the tail of a burst. Sequences start at 1.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.h"
#include "proto/messages.h"

namespace rrmp {

class SequenceTracker {
 public:
  /// Upper bound on gap-enumeration work per observation. A session (or a
  /// wildly out-of-order data frame) announcing sequences far beyond
  /// max_known() would otherwise enumerate the whole span in one call —
  /// unbounded allocation and an unbounded stall. Enumeration past the cap
  /// is *resumed* by the next observation (sessions repeat every
  /// session_interval, or up to kMaxSessionBackoff times that while the
  /// sender is idle), so nothing is ever silently dropped: it surfaces a
  /// bounded number of gaps at a time instead.
  static constexpr std::uint64_t kMaxGapsPerObservation = 1024;

  /// Marks `seq` received. Returns the *newly detected* missing sequences —
  /// the gaps opened by this observation — and whether `seq` itself is new
  /// (false for duplicates).
  struct Observation {
    bool is_new = false;
    std::vector<std::uint64_t> new_gaps;
  };
  Observation observe_data(std::uint64_t seq);

  /// Processes a session announcement "sequences 1..highest exist".
  /// Returns the newly detected missing sequences.
  std::vector<std::uint64_t> observe_session(std::uint64_t highest);

  /// A hint that `seq` exists (e.g. a request for it was seen) without us
  /// receiving it. Equivalent to observe_session(seq).
  std::vector<std::uint64_t> observe_hint(std::uint64_t seq) {
    return observe_session(seq);
  }

  bool has(std::uint64_t seq) const;

  /// Smallest sequence not yet received (1 if nothing received).
  std::uint64_t next_expected() const { return next_expected_; }

  /// Highest sequence whose existence has been processed (received or
  /// announced *and* gap-enumerated). When an announcement jumps more than
  /// kMaxGapsPerObservation ahead, this trails announced() until later
  /// observations catch it up.
  std::uint64_t max_known() const { return max_known_; }

  /// Highest sequence ever announced; >= max_known(). The difference is the
  /// span still awaiting (capped, resumable) gap enumeration.
  std::uint64_t announced() const { return announced_; }

  /// Sequences in [1, max_known] not yet received.
  std::vector<std::uint64_t> missing() const;
  std::size_t missing_count() const;

  std::uint64_t received_count() const { return received_count_; }

  /// Received-but-not-contiguous sequences currently held (memory pinned by
  /// reordering/loss; the edge-case tests bound it).
  std::size_t out_of_order_count() const { return out_of_order_.size(); }

  /// Reception state for history exchange: next_expected plus a bitmap of
  /// at most `max_words`*64 sequences above it.
  proto::SourceHistory history(MemberId source, std::size_t max_words) const;

 private:
  void compact();
  /// Advance max_known_ toward announced_, appending newly exposed missing
  /// sequences to `gaps`; does at most kMaxGapsPerObservation steps.
  void enumerate_gaps(std::vector<std::uint64_t>& gaps);

  std::uint64_t next_expected_ = 1;  // all seqs < this were received
  std::uint64_t max_known_ = 0;
  std::uint64_t announced_ = 0;  // >= max_known_
  std::uint64_t received_count_ = 0;
  // Received, >= next_expected_. Entries above max_known_ can exist while
  // enumeration lags announced_ (missing_count accounts for that).
  std::set<std::uint64_t> out_of_order_;
};

}  // namespace rrmp
