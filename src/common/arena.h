// Chunked monotonic arena for bulk object allocation.
//
// The scale harness builds one SimHost + Endpoint per simulated member; at a
// million members that is two million individually heap-allocated objects
// whose construction, pointer spread, and teardown dominate cluster setup.
// The arena carves objects out of large contiguous chunks instead: one
// malloc per chunk, allocation is a bump, and locality follows construction
// order (members of a region are spawned consecutively, so their endpoint
// state lands on neighbouring pages).
//
// destroy() runs the destructor but never returns memory — chunks are only
// released when the arena itself dies. Rejoin churn therefore leaks the dead
// object's slot for the arena's lifetime, which is bounded by churn volume,
// not member count, and is the explicit trade for O(1) teardown of the other
// 99.99% of objects.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rrmp::common {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Construct a T in arena storage. The caller owns the object's lifetime
  /// (pair with destroy()); the arena owns the memory.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  /// Run the destructor; the slot is not reused.
  template <typename T>
  void destroy(T* p) {
    if (p != nullptr) p->~T();
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate(std::size_t size, std::size_t align) {
    // Chunk bases come from new[], aligned for std::max_align_t; aligning
    // the bump offset therefore aligns the returned pointer. Over-aligned
    // types would need aligned chunk storage — none exist in this codebase.
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      std::size_t offset = (c.used + align - 1) & ~(align - 1);
      if (offset + size <= c.size) {
        c.used = offset + size;
        return c.data.get() + offset;
      }
    }
    std::size_t chunk_size = std::max(chunk_bytes_, size);
    Chunk c;
    c.data = std::make_unique<std::byte[]>(chunk_size);
    c.size = chunk_size;
    c.used = size;
    chunks_.push_back(std::move(c));
    return chunks_.back().data.get();
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
};

}  // namespace rrmp::common
