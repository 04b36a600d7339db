// Open-addressing hash map with tombstone deletion, tuned for the protocol
// hot paths that previously sat on std::unordered_map (per-message recovery
// tasks, waiter lists). One flat slot array, linear probing, power-of-two
// capacity: no per-node allocation, no bucket pointer chasing, and erase is
// a tombstone write — at a million members the node churn of the standard
// containers dominates the recovery path's cost.
//
// Reference contract (narrower than unordered_map's): references and
// iterators stay valid across erase() (slots are tombstoned in place, never
// moved) but are invalidated by any insert that triggers a rehash. Callers
// must not hold a reference across an insertion — the Endpoint's holding
// patterns were audited against exactly this rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rrmp::common {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  enum State : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Slot {
    std::pair<K, V> kv{};
  };

 public:
  using value_type = std::pair<K, V>;

  class iterator {
   public:
    iterator(FlatMap* map, std::size_t idx) : map_(map), idx_(idx) {
      skip_to_full();
    }
    value_type& operator*() const { return map_->slots_[idx_].kv; }
    value_type* operator->() const { return &map_->slots_[idx_].kv; }
    iterator& operator++() {
      ++idx_;
      skip_to_full();
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.idx_ == b.idx_;
    }

   private:
    friend class FlatMap;
    void skip_to_full() {
      while (idx_ < map_->states_.size() && map_->states_[idx_] != kFull) {
        ++idx_;
      }
    }
    FlatMap* map_;
    std::size_t idx_;
  };

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 until the first insertion).
  std::size_t capacity() const { return states_.size(); }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, states_.size()); }

  iterator find(const K& key) {
    std::size_t idx = find_index(key);
    return idx == kNotFound ? end() : iterator(this, idx);
  }

  std::size_t count(const K& key) { return find_index(key) == kNotFound ? 0 : 1; }

  V& operator[](const K& key) {
    std::size_t idx = find_index(key);
    if (idx != kNotFound) return slots_[idx].kv.second;
    return *insert_new(key);
  }

  /// Insert (key, V{args...}) if absent; returns (iterator, inserted).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    std::size_t idx = find_index(key);
    if (idx != kNotFound) return {iterator(this, idx), false};
    V* v = insert_new(key);
    *v = V(std::forward<Args>(args)...);
    // insert_new may have rehashed: re-locate the slot by key.
    return {iterator(this, find_index(key)), true};
  }

  /// Tombstone the slot; the stored value is reset (releasing any owned
  /// memory) but never moved, so other entries' references stay valid.
  void erase(iterator it) {
    states_[it.idx_] = kTombstone;
    slots_[it.idx_].kv.second = V{};
    --size_;
  }

  std::size_t erase(const K& key) {
    std::size_t idx = find_index(key);
    if (idx == kNotFound) return 0;
    states_[idx] = kTombstone;
    slots_[idx].kv.second = V{};
    --size_;
    return 1;
  }

  void clear() {
    slots_.clear();
    states_.clear();
    size_ = 0;
    used_ = 0;
  }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  // Every member that sees a loss allocates a table, so tables start small:
  // 4 slots take 2 entries before the first doubling.
  static constexpr std::size_t kMinCapacity = 4;

  std::size_t mask() const { return states_.size() - 1; }

  std::size_t find_index(const K& key) const {
    if (states_.empty()) return kNotFound;
    std::size_t idx = Hash{}(key) & mask();
    // Linear probe; an empty slot terminates (tombstones do not).
    while (states_[idx] != kEmpty) {
      if (states_[idx] == kFull && slots_[idx].kv.first == key) return idx;
      idx = (idx + 1) & mask();
    }
    return kNotFound;
  }

  V* insert_new(const K& key) {
    // Rehash when full + tombstoned slots pass 70% occupancy, so probe
    // chains stay short and a churn-heavy workload reclaims its tombstones.
    // The table doubles only when the live entries would fill over half of
    // it; otherwise the rehash keeps its size and drops the tombstones, so
    // insert/erase churn never grows it, and at least a fifth of the slots
    // take new keys before the next rehash (amortized O(1) per insert).
    if (states_.empty() || (used_ + 1) * 10 >= states_.size() * 7) {
      bool grow = (size_ + 1) * 2 > states_.size();
      rehash(grow ? std::max(kMinCapacity, states_.size() * 2)
                  : states_.size());
    }
    std::size_t idx = Hash{}(key) & mask();
    while (states_[idx] == kFull) idx = (idx + 1) & mask();
    if (states_[idx] == kEmpty) ++used_;  // reusing a tombstone: used_ holds
    states_[idx] = kFull;
    slots_[idx].kv.first = key;
    slots_[idx].kv.second = V{};
    ++size_;
    return &slots_[idx].kv.second;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_states = std::move(states_);
    slots_.assign(new_capacity, Slot{});
    states_.assign(new_capacity, kEmpty);
    used_ = size_;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) continue;
      std::size_t idx = Hash{}(old_slots[i].kv.first) & mask();
      while (states_[idx] == kFull) idx = (idx + 1) & mask();
      states_[idx] = kFull;
      slots_[idx].kv = std::move(old_slots[i].kv);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> states_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstoned slots (probe-chain occupancy)
};

}  // namespace rrmp::common
