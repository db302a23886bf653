// Monotonic arena for per-move scratch allocation.
//
// The annealing inner loop re-runs the same pipeline (re-pack, decompose,
// cut-line construction, scoring) once per proposed move; its transient
// buffers are identical in shape from move to move. A MonotonicArena turns
// those per-move allocations into pointer bumps over a small set of
// retained blocks: allocation is O(1), reset() recycles every block without
// releasing memory, and all scratch of one move stays contiguous — the
// cache-blocked cut-line sort (src/congestion/cutlines.cpp) draws its
// scratch from one of these.
//
// Not internally synchronized: one arena per thread (the user keeps a
// thread_local instance, mirroring the per-thread scratch convention used
// throughout the evaluators).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace ficon {

/// @brief Bump allocator over a chain of retained blocks.
///
/// alloc_span<T>() returns uninitialized storage for trivially destructible
/// T; nothing is ever destroyed, so reset() simply rewinds to the first
/// block. Blocks grow to fit the largest single request and are retained
/// across reset(), so a steady-state caller stops allocating entirely.
class MonotonicArena {
 public:
  /// @param min_block_bytes size of newly created blocks (grown to fit
  ///        larger single requests).
  explicit MonotonicArena(std::size_t min_block_bytes = std::size_t{1} << 20)
      : min_block_bytes_(min_block_bytes) {
    FICON_REQUIRE(min_block_bytes > 0, "arena block size must be positive");
  }

  /// Rewind to empty, retaining every block for reuse. Invalidates all
  /// spans handed out since construction / the previous reset().
  void reset() {
    block_ = 0;
    offset_ = 0;
  }

  /// @brief Uninitialized storage for `count` objects of T.
  ///
  /// Valid until the next reset(); never individually freed. T must be
  /// trivially destructible (nothing runs destructors) and trivially
  /// default-constructible (the storage is not value-initialized).
  template <typename T>
  std::span<T> alloc_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_default_constructible_v<T>,
                  "arena storage is raw memory: T must be trivial");
    if (count == 0) return {};
    const std::size_t bytes = count * sizeof(T);
    std::byte* p = allocate(bytes, alignof(T));
    return std::span<T>(reinterpret_cast<T*>(p), count);
  }

  /// Total bytes held across all blocks (diagnostics / tests).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::byte* allocate(std::size_t bytes, std::size_t alignment) {
    // Advance through retained blocks until one fits the aligned request;
    // append a fresh block (sized to fit) when none does.
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t aligned =
          (offset_ + alignment - 1) / alignment * alignment;
      if (aligned + bytes <= b.size) {
        offset_ = aligned + bytes;
        return b.data.get() + aligned;
      }
      ++block_;
      offset_ = 0;
    }
    const std::size_t size = bytes > min_block_bytes_ ? bytes
                                                      : min_block_bytes_;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    block_ = blocks_.size() - 1;
    // operator new guarantees alignment for any fundamental type; the
    // block start is therefore aligned for every T alloc_span accepts.
    offset_ = bytes;
    return blocks_.back().data.get();
  }

  std::size_t min_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< index of the block currently bumped
  std::size_t offset_ = 0;  ///< bump offset within blocks_[block_]
};

}  // namespace ficon
