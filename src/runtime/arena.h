// Epoch-scoped bump allocator for window-lifetime objects.
//
// The close path builds large flat scratch structures — the dispatched
// record batch, per-shard signal buffers — whose lifetime is exactly one
// window close (everything is dead once the close's parallel phases are
// joined). An MPS-style arena exploits that: allocation is a pointer bump
// into chunked slabs, individual frees don't exist, and `reset()` at the
// end of the close recycles every slab wholesale for the next window, so
// the steady state performs zero heap traffic no matter how many records a
// window carries.
//
// Ownership rules (DESIGN.md §12): one Arena has one owner (an engine); all
// allocation happens on the owner's serial close path; nothing allocated
// from it may be retained past the owner's `reset()` call. Containers get
// arena backing via ArenaAllocator<T> — destructors still run normally
// (clear()/scope exit); only the *memory* is reclaimed lazily by reset().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace rrr::runtime {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` aligned to `align` (a power of two). Requests
  // larger than the chunk size get a dedicated oversized slab.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t offset = (offset_ + (align - 1)) & ~(align - 1);
    if (current_ >= chunks_.size() || offset + bytes > chunks_[current_].size) {
      return allocate_slow(bytes, align);
    }
    void* p = chunks_[current_].data.get() + offset;
    offset_ = offset + bytes;
    allocated_ += bytes;
    return p;
  }

  // Rewinds every chunk for reuse. O(1) amortized: slabs are kept, so the
  // next epoch bumps through already-warm memory. Everything previously
  // allocated becomes invalid.
  void reset() {
    current_ = 0;
    offset_ = 0;
    high_water_ = std::max(high_water_, allocated_);
    allocated_ = 0;
  }

  // Releases the slabs themselves (reset() keeps them).
  void release() {
    chunks_.clear();
    reset();
  }

  std::size_t bytes_allocated() const { return allocated_; }
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::size_t high_water_bytes() const {
    return std::max(high_water_, allocated_);
  }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index of the chunk being bumped
  std::size_t offset_ = 0;   // bump offset within chunks_[current_]
  std::size_t allocated_ = 0;
  std::size_t high_water_ = 0;
};

// STL-compatible allocator over an Arena. deallocate() is a no-op — memory
// comes back at the owner's reset(). Copy/rebind share the same arena, so a
// vector<T, ArenaAllocator<T>> grows entirely inside it.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // reclaimed wholesale by reset()

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

 private:
  Arena* arena_;
};

}  // namespace rrr::runtime
