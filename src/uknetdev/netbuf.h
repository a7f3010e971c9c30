// uknetdev/netbuf.h - uk_netbuf: the packet buffer wrapper of §3.1.
//
// Key design point from the paper: "neither the driver nor the API manage
// allocations" — the application owns packet memory. NetBuf is only metadata
// (address, headroom, length) around a buffer the application allocated;
// NetBufPool is the pre-allocated pool performance-critical workloads use,
// while memory-frugal apps can wrap one-off heap allocations.
#ifndef UKNETDEV_NETBUF_H_
#define UKNETDEV_NETBUF_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "ukalloc/allocator.h"
#include "ukplat/memregion.h"

namespace uknetdev {

class NetBufPool;

struct NetBuf {
  std::uint64_t gpa = 0;        // buffer start (guest-physical)
  std::uint32_t capacity = 0;   // total buffer bytes
  std::uint32_t headroom = 0;   // offset where payload starts
  std::uint32_t len = 0;        // payload bytes
  std::uint32_t refcnt = 1;     // owners; buffer returns to the pool at zero
  NetBufPool* pool = nullptr;   // owner; nullptr for caller-managed buffers
  void* priv = nullptr;         // application scratch (paper: meta information)

  // Takes an additional reference (uk_netbuf_ref). Every holder — protocol
  // retransmission queue, driver ring, ARP parking — releases with
  // NetBufPool::Free(), which only returns the buffer at refcount zero.
  void Ref() { ++refcnt; }

  std::uint64_t data_gpa() const { return gpa + headroom; }
  std::uint32_t tailroom() const { return capacity - headroom - len; }

  std::byte* Data(ukplat::MemRegion& mem) { return mem.At(data_gpa(), len); }
  const std::byte* Data(const ukplat::MemRegion& mem) const {
    return mem.At(data_gpa(), len);
  }
  std::uint8_t* Bytes(ukplat::MemRegion& mem) {
    return reinterpret_cast<std::uint8_t*>(mem.At(data_gpa(), len));
  }
  const std::uint8_t* Bytes(const ukplat::MemRegion& mem) const {
    return reinterpret_cast<const std::uint8_t*>(mem.At(data_gpa(), len));
  }

  // Prepends |n| bytes by consuming headroom (returns false if none left).
  // This is how protocol layers add headers without copying.
  bool Push(std::uint32_t n) {
    if (headroom < n) {
      return false;
    }
    headroom -= n;
    len += n;
    return true;
  }
  // Strips |n| bytes off the front (header consumption on RX).
  bool Pull(std::uint32_t n) {
    if (len < n) {
      return false;
    }
    headroom += n;
    len -= n;
    return true;
  }

  // In-place header construction: consumes |n| bytes of headroom and returns
  // a pointer to the new front of the payload so the protocol layer writes
  // its header directly into the buffer that goes to the device. nullptr when
  // the headroom reservation is exhausted (buffer untouched).
  std::uint8_t* PrependHeader(ukplat::MemRegion& mem, std::uint32_t n) {
    if (!Push(n)) {
      return nullptr;
    }
    return reinterpret_cast<std::uint8_t*>(mem.At(data_gpa(), n));
  }
  // RX mirror of PrependHeader: drops a consumed header off the front and
  // keeps the rest of the payload in place.
  bool TrimHeader(std::uint32_t n) { return Pull(n); }

  // Extends the payload into the tailroom by |n| bytes and returns a pointer
  // to the appended region; nullptr when the tailroom cannot hold it.
  std::uint8_t* Append(ukplat::MemRegion& mem, std::uint32_t n) {
    if (tailroom() < n) {
      return nullptr;
    }
    std::uint8_t* at = reinterpret_cast<std::uint8_t*>(mem.At(gpa + headroom + len, n));
    if (at != nullptr) {
      len += n;
    }
    return at;
  }

  // Headroom reservation for an empty buffer: position the payload start so
  // that |n| bytes of headers can later be prepended without copying.
  bool ReserveHeadroom(std::uint32_t n) {
    if (len != 0 || n > capacity) {
      return false;
    }
    headroom = n;
    return true;
  }
};

// Fixed-size pool of netbufs whose data area is allocated once from the
// application's allocator (which itself lives in guest RAM, so buffers have
// valid guest-physical addresses).
class NetBufPool {
 public:
  // Returns nullptr on allocation failure (pool stays unusable but safe).
  static std::unique_ptr<NetBufPool> Create(ukalloc::Allocator* alloc,
                                            ukplat::MemRegion* mem, std::uint32_t count,
                                            std::uint32_t buf_size,
                                            std::uint32_t default_headroom = 64);
  ~NetBufPool();

  NetBufPool(const NetBufPool&) = delete;
  NetBufPool& operator=(const NetBufPool&) = delete;

  // O(1) alloc/free; Alloc resets headroom/len to defaults and refcnt to 1.
  NetBuf* Alloc();
  // Alloc with a custom headroom reservation (e.g. the full protocol header
  // budget of the TX path). Falls back to nullptr when |headroom| exceeds the
  // buffer size.
  NetBuf* AllocWithHeadroom(std::uint32_t headroom);
  // Releases one reference; the buffer only rejoins the free list when the
  // last holder lets go. (Free of a multiply-owned buffer is how drivers
  // "return" a netbuf that a protocol layer still retains for retransmit.)
  void Free(NetBuf* nb);

  std::uint32_t capacity() const { return count_; }
  std::uint32_t available() const { return static_cast<std::uint32_t>(free_.size()); }
  std::uint32_t buf_size() const { return buf_size_; }
  std::uint32_t default_headroom() const { return default_headroom_; }
  // Lifetime alloc counter: lets tests and benches assert zero-alloc paths
  // (e.g. retransmission re-bursts retained buffers without pool churn).
  std::uint64_t total_allocs() const {
    return total_allocs_.load(std::memory_order_relaxed);
  }

  // Pool-refill edge: fires from Free() when a pool that previously FAILED an
  // Alloc() (went dry while someone wanted a buffer) regains its first free
  // buffer. Writable-interested loops use this to sleep through TX-pool
  // exhaustion instead of taking busy retry turns — the buffer returning IS
  // the writability interrupt. Edge-triggered and starvation-gated: a pool
  // that never failed an Alloc never fires, so steady-state Free() stays one
  // branch.
  void SetRefillCallback(std::function<void()> cb) { refill_cb_ = std::move(cb); }
  std::uint64_t refill_edges() const {
    return refill_edges_.load(std::memory_order_relaxed);
  }
  bool starved() const { return starved_.load(std::memory_order_acquire); }

 private:
  NetBufPool(ukalloc::Allocator* alloc, std::uint32_t count, std::uint32_t buf_size,
             std::uint32_t headroom)
      : alloc_(alloc), count_(count), buf_size_(buf_size), default_headroom_(headroom) {}

  ukalloc::Allocator* alloc_;
  std::uint32_t count_;
  std::uint32_t buf_size_;
  std::uint32_t default_headroom_;
  void* backing_ = nullptr;  // single slab for all buffers
  std::vector<NetBuf> bufs_;
  std::vector<NetBuf*> free_;
  std::atomic<std::uint64_t> total_allocs_{0};
  // Set when Alloc() came up empty; cleared (exchange — single-fire even when
  // two foreign-loop Frees race the edge) when the refill edge fires.
  std::atomic<bool> starved_{false};
  std::atomic<std::uint64_t> refill_edges_{0};
  std::function<void()> refill_cb_;
};

}  // namespace uknetdev

#endif  // UKNETDEV_NETBUF_H_
