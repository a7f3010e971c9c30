// ukalloc/allocator.h - the ukalloc API (§3.2 of the paper).
//
// Unikraft's internal allocation interface multiplexes POSIX-style requests
// onto one of several backend allocators, each owning a separate memory
// region. We reproduce that: Allocator is the uk_alloc interface (malloc /
// calloc / memalign / realloc / free against an explicit backend object), and
// the five paper backends (buddy from Mini-OS, TLSF, tinyalloc, a mimalloc
// work-alike, and the boot region allocator) implement it over a caller-
// provided heap [base, base+len), exactly like Unikraft's init functions that
// receive the first usable byte of the heap plus its length.
//
// All bookkeeping lives inside the heap region: backends may not call the host
// malloc. That keeps Fig 11's "minimum memory to boot" experiment honest.
#ifndef UKALLOC_ALLOCATOR_H_
#define UKALLOC_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>

namespace ukalloc {

struct AllocStats {
  std::uint64_t malloc_calls = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t failed_allocs = 0;
  std::uint64_t bytes_in_use = 0;   // payload bytes currently handed out
  std::uint64_t peak_bytes = 0;
  std::uint64_t heap_bytes = 0;     // total region size
};

class Allocator {
 public:
  Allocator(std::byte* base, std::size_t len) : base_(base), len_(len) {
    stats_.heap_bytes = len;
  }
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  // POSIX-shaped entry points (the uk_malloc()/uk_free() family). Malloc
  // returns storage aligned to 16 bytes; Memalign to any power-of-two.
  void* Malloc(std::size_t size);
  void Free(void* ptr);
  void* Calloc(std::size_t n, std::size_t size);
  void* Realloc(void* ptr, std::size_t new_size);
  void* Memalign(std::size_t align, std::size_t size);

  virtual const char* name() const = 0;

  // Bytes a previously returned pointer can legally hold (>= requested).
  std::size_t UsableSize(void* ptr) const;

  const AllocStats& stats() const { return stats_; }
  std::size_t heap_len() const { return len_; }

  bool Owns(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + len_;
  }

 protected:
  virtual void* DoMalloc(std::size_t size) = 0;
  virtual void DoFree(void* ptr) = 0;
  virtual std::size_t DoUsableSize(const void* ptr) const = 0;
  // Backends with natural alignment support override this; returning nullptr
  // with |use_generic| untouched falls back to the over-allocate-and-shift
  // scheme implemented in the base class.
  virtual void* DoMemalign(std::size_t /*align*/, std::size_t /*size*/,
                           bool* handled) {
    *handled = false;
    return nullptr;
  }

 private:
  void* GenericMemalign(std::size_t align, std::size_t size);
  bool IsAlignWrapped(const void* ptr) const;

  std::byte* base_;
  std::size_t len_;
  AllocStats stats_;
};

}  // namespace ukalloc

#endif  // UKALLOC_ALLOCATOR_H_
