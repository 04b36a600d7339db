// Cooperative region-wide buffer budgets.
//
// PR 4 gave each member an isolated BufferBudget, but under pressure members
// still evict blindly: a member may drop the region's *last* copy of a
// message while a neighbor holds a redundant one. Coordination closes that
// gap with three pieces, all approximate and all cheap:
//
//   1. Digest gossip — each member multicasts a proto::BufferDigest (held
//      MessageId ranges + bytes in use) within its region when it changes,
//      then as a keep-alive (kDigestKeepAliveTicks). Each BufferStore folds
//      neighbors' digests into a DigestTable, giving it an approximate
//      replica count per buffered entry and a view of where free buffer
//      capacity lives.
//   2. Cost-aware eviction — BufferStore::pick_victims prefers victims
//      with >= kRedundancyThreshold known regional replicas (self included)
//      and protects sole-copy entries, falling back to the PR 4 order
//      (short-term first, LRU, MessageId tie-break) among equals.
//   3. Shed handoff — when pressure forces a sole-copy entry out anyway, the
//      store pushes it to the least-loaded digest-advertised neighbor
//      (proto::Shed) before discarding, so the copy moves instead of dying.
//
// Everything is gated on CoordinationParams::enabled: disabled, no digest is
// ever sent, no replica count consulted, and eviction is bit-identical to
// the uncoordinated PR 4 protocol.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "common/types.h"
#include "proto/messages.h"

namespace rrmp::buffer {

struct CoordinationParams {
  /// Master switch; everything below is inert when false.
  bool enabled = false;
  /// Period of the digest tick, which multicasts a changed BufferDigest.
  /// Keep it at or below the policies' retention timescales (idle
  /// threshold T, TTLs) or the replica counts are stale by the time
  /// eviction consults them.
  Duration digest_interval = Duration::millis(20);

  friend bool operator==(const CoordinationParams&,
                         const CoordinationParams&) = default;
};

/// Entries with at least this many known regional replicas (self plus
/// digest-advertised neighbors) are preferred eviction victims — unless this
/// member is the entry's elected keeper. Among those victims, higher replica
/// counts evict first; below the threshold (and for keepers and sole copies)
/// the uncoordinated order applies.
inline constexpr std::size_t kRedundancyThreshold = 2;

/// A digest goes out on the tick its content changes and on the next (one
/// lost copy heals a tick later), then, while unchanged, only as a full
/// keep-alive every this many ticks. A quiet region sends a quarter of the
/// digests, a joiner waits at most 4 ticks for an unchanged peer's row,
/// and no version field is needed: a receiver could not ask for a digest
/// it knew it missed, and the repeat and the keep-alive heal the loss.
inline constexpr std::size_t kDigestKeepAliveTicks = 4;

/// A neighbor's advertisement ages out after this many keep-alive periods
/// without a refresh: the endpoint ages its table once per period, so a row
/// goes 13–16 ticks after its last digest arrived. A peer that is
/// alive-but-severed across a network partition stays in the view, so
/// retain() never prunes it — without aging its last digest would keep
/// inflating replica counts and pinning keeper elections for the whole
/// partition. A connected peer, quiet or not, refreshes at least once per
/// period, so aging changes nothing in fault-free runs.
inline constexpr std::size_t kMaxMissedDigests = 3;

/// One store's view of its region neighbors' advertised buffer contents:
/// one row per advertising peer in a vector sorted by member id, so every
/// derived decision (replica counts, keeper elections, least-loaded
/// neighbor) visits rows in ascending id order, deterministic across runs
/// and shard counts, and a scan walks contiguous memory.
class DigestTable {
 public:
  /// Replace `peer`'s advertisement (the digest stream is idempotent:
  /// every digest carries the peer's full held set). The row keeps a
  /// reference to `ranges`, the digest's immutable array, so a refresh
  /// neither copies nor allocates, and every receiver of one decoded digest
  /// shares its sender's runs.
  void update(MemberId peer, std::uint64_t bytes_in_use,
              SharedArray<proto::DigestRange> ranges);

  /// Drop `peer`'s advertisement (left/crashed).
  void forget(MemberId peer);

  /// Drop every advertisement whose peer is not in `alive`, which must be
  /// sorted ascending (RegionView::members() is). Called each digest
  /// period with the current region view: a departed member's last digest
  /// must not keep inflating replica counts (tricking survivors into
  /// evicting what is now the region's last copy) or keep winning keeper
  /// elections it can no longer honour.
  void retain(const std::vector<MemberId>& alive);

  /// Advance every advertisement's missed-refresh counter by one period and
  /// drop entries not refreshed for more than kMaxMissedDigests periods
  /// (update() resets the counter). Catches peers retain() cannot:
  /// alive-but-severed members across a partition stay in the view while no
  /// digest of theirs can arrive. Returns the number of entries dropped.
  std::size_t age();

  void clear() { rows_.clear(); }

  std::size_t peer_count() const { return rows_.size(); }
  bool has_peer(MemberId peer) const { return find(peer) != rows_.end(); }
  /// `peer`'s advertised runs (empty without a row). Test hook for the
  /// shared-row contract: SharedArray::shares_owner_with on two members'
  /// rows for one peer.
  SharedArray<proto::DigestRange> ranges_of(MemberId peer) const;

  /// Number of neighbors currently advertising `id` (never negative by
  /// construction: it is a count over the table, not a maintained delta).
  std::size_t holders_of(const MessageId& id) const;

  /// True iff `self` is the entry's designated keeper: the member with the
  /// smallest rendezvous hash (buffer::hash_score) among self plus every
  /// advertising neighbor. Exactly one member of any agreeing holder set
  /// elects itself keeper, so redundant copies converge to one protected
  /// copy per entry instead of every holder evicting "the redundant one"
  /// simultaneously; rendezvous hashing spreads keeper duty evenly.
  bool keeper_is(const MessageId& id, MemberId self) const;

  /// holders_of + keeper_is in a single table scan.
  struct HolderInfo {
    std::size_t holders = 0;  // neighbors advertising the id
    bool keeper = true;       // self wins the rendezvous election

    friend bool operator==(const HolderInfo&, const HolderInfo&) = default;
  };
  HolderInfo holder_info(const MessageId& id, MemberId self) const;

  /// holder_info for every id of `ids` in one pass over the table:
  /// out[i] == holder_info(ids[i], self). `ids` must be sorted ascending
  /// without duplicates (the store's entry order). Each row's ranges
  /// binary-search `ids` and walk the ids they hold, so the cost follows
  /// the advertised ranges and the ids they hit, not ids × ranges. This is
  /// how BufferStore::pick_victims ranks a whole store per eviction.
  void holder_infos(const std::vector<MessageId>& ids, MemberId self,
                    std::vector<HolderInfo>& out) const;

  /// The advertising peer with the least bytes in use, restricted to
  /// `alive` (sorted ascending, as for retain) and excluding `exclude`;
  /// ties break on the smaller MemberId. kInvalidMember when no advertised
  /// peer qualifies.
  MemberId least_loaded(const std::vector<MemberId>& alive,
                        MemberId exclude) const;

 private:
  struct Row {
    MemberId peer = kInvalidMember;
    std::uint64_t bytes_in_use = 0;
    std::size_t missed = 0;  // digest periods since the last refresh
    SharedArray<proto::DigestRange> ranges;  // shared with the sender's digest

    bool operator<(MemberId other) const { return peer < other; }
  };
  std::vector<Row>::const_iterator find(MemberId peer) const;

  std::vector<Row> rows_;  // sorted by peer
};

}  // namespace rrmp::buffer
