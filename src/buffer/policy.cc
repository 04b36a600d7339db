#include "buffer/policy.h"

#include <algorithm>
#include <stdexcept>

#include "buffer/store.h"

namespace rrmp::buffer {

RetentionPolicy::~RetentionPolicy() = default;

void RetentionPolicy::bind(BufferStore* store, PolicyEnv* env) {
  if (store == nullptr || env == nullptr) {
    throw std::invalid_argument("RetentionPolicy::bind: null store or env");
  }
  if (store_ != nullptr) {
    throw std::logic_error("RetentionPolicy::bind: already bound");
  }
  store_ = store;
  env_ = env;
  on_bound();
}

namespace {

struct Candidate {
  MessageId id;
  std::size_t bytes;
  TimePoint last_activity;
  bool long_term;
  /// Expendability rank from the coordination cost model: 0 for protected
  /// entries (sole copies, designated keepers, everything when coordination
  /// is off — the comparator then degenerates to the uncoordinated order),
  /// otherwise the entry's known regional replica count, so the most
  /// replicated redundant entry is evicted first.
  std::size_t replica_rank = 0;
};

/// The deterministic expendability order. With coordination, the replica
/// cost model ranks first: the more known regional replicas an entry has
/// (up to the redundancy threshold) the more expendable it is, so sole
/// copies are protected until nothing redundant remains. Within a replica
/// class — and always, when coordination is off — the PR 4 order applies:
/// short-term entries before long-term ones (long-term copies are the
/// region's recovery capital), least-recently-active first, ties broken by
/// ascending MessageId so every member and every shard count evicts the
/// same victims in the same order.
bool more_expendable(const Candidate& a, const Candidate& b) {
  if (a.replica_rank != b.replica_rank) return a.replica_rank > b.replica_rank;
  if (a.long_term != b.long_term) return !a.long_term;
  if (a.last_activity != b.last_activity) {
    return a.last_activity < b.last_activity;
  }
  return a.id < b.id;
}

/// Sort `candidates` into expendability order and take victims until the
/// demand is met.
EvictionPlan take_victims(std::vector<Candidate>& candidates,
                          const EvictionDemand& need) {
  std::sort(candidates.begin(), candidates.end(), more_expendable);
  EvictionPlan plan;
  std::size_t freed_bytes = 0, freed_entries = 0;
  for (const Candidate& c : candidates) {
    if (freed_bytes >= need.bytes && freed_entries >= need.entries) break;
    plan.victims.push_back(c.id);
    freed_bytes += c.bytes;
    ++freed_entries;
  }
  return plan;
}

}  // namespace

EvictionPlan RetentionPolicy::pick_victims(const EvictionDemand& need) {
  // Replica counts are consulted only under coordination; uncoordinated
  // stores keep every rank at 0 and reproduce the PR 4 plan bit-for-bit.
  // Coordinated, an entry is expendable (rank = its replica count, most
  // replicated first) only when it is redundant (>= kRedundancyThreshold
  // known replicas) AND this member is not its designated keeper — the
  // keeper election stops all holders of a redundant entry from evicting
  // it simultaneously. Sole copies and keeper copies rank 0 (protected).
  //
  // The coordinated path ranks every entry in one pass over the digest
  // table (holder_infos): one snapshot feeds both the single-victim fast
  // path (min, no sort) and, only when the demand needs more, the full
  // sort. The uncoordinated path keeps its allocation-free steady-state
  // scan.
  if (store().coordination_enabled()) {
    std::vector<Candidate> candidates;
    std::vector<MessageId> ids;
    candidates.reserve(store().count());
    ids.reserve(store().count());
    store().for_each_entry([&](const BufferStore::EntryView& e) {
      candidates.push_back({e.id, e.bytes, e.last_activity, e.long_term, 0});
      ids.push_back(e.id);  // ascending, as holder_infos requires
    });
    if (candidates.empty()) return {};
    std::vector<DigestTable::HolderInfo> infos;
    store().digests().holder_infos(ids, env().self(), infos);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      // Only stored entries are ranked, so our copy always counts.
      std::size_t replicas = 1 + infos[i].holders;
      if (replicas >= kRedundancyThreshold && !infos[i].keeper) {
        candidates[i].replica_rank = replicas;
      }
    }
    const Candidate& best = *std::min_element(
        candidates.begin(), candidates.end(),
        [](const Candidate& a, const Candidate& b) {
          return more_expendable(a, b);
        });
    if (best.bytes >= need.bytes && need.entries <= 1) {
      return {{best.id}};
    }
    return take_victims(candidates, need);
  }
  // Fast path for the steady state (incoming message ~= evicted message):
  // one allocation-free linear pass finds the single most expendable entry;
  // if evicting it satisfies the demand, that is the whole plan. Only
  // multi-victim demands (large incoming message, shrunk budget) pay for a
  // snapshot + sort.
  std::optional<Candidate> best;
  store().for_each_entry([&](const BufferStore::EntryView& e) {
    Candidate c{e.id, e.bytes, e.last_activity, e.long_term, 0};
    if (!best || more_expendable(c, *best)) best = c;
  });
  if (!best) return {};
  if (best->bytes >= need.bytes && need.entries <= 1) {
    return {{best->id}};
  }
  std::vector<Candidate> candidates;
  candidates.reserve(store().count());
  store().for_each_entry([&](const BufferStore::EntryView& e) {
    candidates.push_back({e.id, e.bytes, e.last_activity, e.long_term, 0});
  });
  return take_victims(candidates, need);
}

}  // namespace rrmp::buffer
