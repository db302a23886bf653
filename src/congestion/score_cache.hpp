// Shape-keyed LRU memo for per-net IR-grid scoring.
//
// During annealing most modules do not move between consecutive
// evaluations, so most nets re-present the exact same snapped routing
// range to the Irregular-Grid model: same fine lattice (g1, g2), same
// covered-cell spans. The per-cell crossing probabilities in the
// canonical type I frame (a type II net's rows y-mirrored) are a pure
// function of that signature (plus the fixed evaluation options), so they
// can be memoized: the cache maps
//
//   [g1, g2, ncx, ncy, col spans..., row spans...]  (fine-lattice
//   integers, rows in the canonical frame)
//
// to the net's full ncx x ncy canonical probability matrix, which the
// scorer adds into the IR rows the net covers. A net and its y-mirror
// image have one key and share the entry. The region strategies
// use it; the banded-exact scorer recomputes every net without building
// a matrix and never looks one up (only its fallback for degenerate
// shapes and nets no band pass fits, which scores per region, goes
// through the memo). Like the log-factorial tables, instances
// are meant to be `thread_local` inside the evaluation workers: per-thread
// duplicates are harmless because hit and miss return bit-identical
// values, which is also why memoized and unmemoized runs (and runs at any
// FICON_THREADS) produce bit-identical congestion maps.
//
// Invalidation: values depend on the evaluation options (strategy,
// Theorem-1 knobs, fine pitch), so configure() takes a fingerprint of
// those options and clears the cache whenever it changes. Entries never
// go stale otherwise — a changed placement changes the *key*, not the
// value behind an existing key.
//
// The cache sits on the annealing inner loop (one lookup per net per
// proposed move), so the implementation is built to do zero heap
// allocation in steady state: entries live in a flat slot array whose
// key/value vectors keep their capacity when a slot is recycled, LRU
// order is an intrusive doubly-linked list of slot indices, and the hash
// index stores slot indices with C++20 heterogeneous lookup so probing
// never materializes a temporary key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "obs/trace.hpp"

namespace ficon {

class ScoreMemo {
 public:
  using Key = std::vector<int>;
  using Value = std::vector<double>;

  ScoreMemo() : index_(0, SlotHash{&slots_}, SlotEq{&slots_}) {}

  // The hash index functors point at this object's slot array.
  ScoreMemo(const ScoreMemo&) = delete;
  ScoreMemo& operator=(const ScoreMemo&) = delete;

  /// @brief Bind the cache to a capacity and an options fingerprint.
  /// Clears all entries when either changes; a capacity of 0 disables
  /// the cache (find() always misses, insert() is a no-op). Slot storage
  /// survives a clear, so rebinding is cheap.
  void configure(std::size_t capacity, std::uint64_t fingerprint) {
    if (capacity == capacity_ && fingerprint == fingerprint_) return;
    index_.clear();
    used_ = 0;
    head_ = -1;
    tail_ = -1;
    capacity_ = capacity;
    fingerprint_ = fingerprint;
    index_.reserve(capacity_);
  }

  bool enabled() const { return capacity_ > 0; }
  std::size_t size() const { return used_; }

  /// @brief Look up a signature; refreshes LRU order on hit.
  /// @return the cached matrix, or nullptr on miss. The pointer is valid
  /// until the next insert() (eviction / slot reuse) or configure().
  const Value* find(const Key& key) {
    if (capacity_ == 0) return nullptr;
    const auto it = index_.find(Probe{&key, hash_key(key)});
    if (it == index_.end()) {
      obs::count(obs::Counter::kScoreMemoMisses);
      return nullptr;
    }
    touch(*it);
    obs::count(obs::Counter::kScoreMemoHits);
    return &slots_[static_cast<std::size_t>(*it)].value;
  }

  /// @brief Insert a freshly computed matrix, evicting the least recently
  /// used entry when full. Overwrites an existing entry for the same key.
  void insert(const Key& key, const Value& value) {
    if (capacity_ == 0) return;
    const std::size_t h = hash_key(key);
    const auto it = index_.find(Probe{&key, h});
    if (it != index_.end()) {
      slots_[static_cast<std::size_t>(*it)].value = value;
      touch(*it);
      return;
    }
    int slot;
    if (used_ >= capacity_) {
      // Recycle the least recently used slot. Erase its index entry
      // first: the index hashes by the slot's *current* key.
      slot = tail_;
      index_.erase(slot);
      unlink(slot);
      obs::count(obs::Counter::kScoreMemoEvictions);
    } else {
      slot = static_cast<int>(used_);
      if (static_cast<std::size_t>(slot) >= slots_.size()) {
        slots_.emplace_back();
      }
      ++used_;
    }
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.key = key;      // assignments reuse the recycled slot's capacity
    s.value = value;
    s.hash = h;
    index_.insert(slot);
    push_front(slot);
  }

 private:
  struct Slot {
    Key key;
    Value value;
    std::size_t hash = 0;
    int prev = -1;  ///< intrusive LRU list, most recent at head_
    int next = -1;
  };

  /// Heterogeneous lookup token: a borrowed key plus its precomputed hash.
  struct Probe {
    const Key* key;
    std::size_t hash;
  };

  struct SlotHash {
    using is_transparent = void;
    const std::vector<Slot>* slots;
    std::size_t operator()(int i) const {
      return (*slots)[static_cast<std::size_t>(i)].hash;
    }
    std::size_t operator()(const Probe& p) const { return p.hash; }
  };

  struct SlotEq {
    using is_transparent = void;
    const std::vector<Slot>* slots;
    bool operator()(int a, int b) const { return a == b; }
    bool operator()(const Probe& p, int i) const {
      return *p.key == (*slots)[static_cast<std::size_t>(i)].key;
    }
    bool operator()(int i, const Probe& p) const {
      return *p.key == (*slots)[static_cast<std::size_t>(i)].key;
    }
  };

  static std::size_t hash_key(const Key& key) {
    // FNV-1a over the signature ints.
    std::uint64_t h = 1469598103934665603ull;
    for (int v : key) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }

  void unlink(int i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    (s.prev >= 0 ? slots_[static_cast<std::size_t>(s.prev)].next : head_) =
        s.next;
    (s.next >= 0 ? slots_[static_cast<std::size_t>(s.next)].prev : tail_) =
        s.prev;
  }

  void push_front(int i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    s.prev = -1;
    s.next = head_;
    if (head_ >= 0) slots_[static_cast<std::size_t>(head_)].prev = i;
    head_ = i;
    if (tail_ < 0) tail_ = i;
  }

  void touch(int i) {
    if (head_ == i) return;
    unlink(i);
    push_front(i);
  }

  std::size_t capacity_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<Slot> slots_;  ///< slots [0, used_) hold live entries
  std::size_t used_ = 0;
  int head_ = -1;
  int tail_ = -1;
  std::unordered_set<int, SlotHash, SlotEq> index_;
};

}  // namespace ficon
