#include "uknetdev/netbuf.h"

namespace uknetdev {

std::unique_ptr<NetBufPool> NetBufPool::Create(ukalloc::Allocator* alloc,
                                               ukplat::MemRegion* mem, std::uint32_t count,
                                               std::uint32_t buf_size,
                                               std::uint32_t default_headroom) {
  auto pool = std::unique_ptr<NetBufPool>(
      new NetBufPool(alloc, count, buf_size, default_headroom));
  pool->backing_ = alloc->Memalign(64, static_cast<std::size_t>(count) * buf_size);
  if (pool->backing_ == nullptr) {
    return nullptr;
  }
  std::uint64_t base_gpa = mem->GpaOf(pool->backing_);
  if (base_gpa == ukplat::MemRegion::kBadGpa) {
    alloc->Free(pool->backing_);
    return nullptr;
  }
  pool->bufs_.resize(count);
  pool->free_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NetBuf& nb = pool->bufs_[i];
    nb.gpa = base_gpa + static_cast<std::uint64_t>(i) * buf_size;
    nb.capacity = buf_size;
    nb.headroom = default_headroom;
    nb.len = 0;
    nb.pool = pool.get();
    pool->free_.push_back(&nb);
  }
  return pool;
}

NetBufPool::~NetBufPool() {
  if (backing_ != nullptr) {
    alloc_->Free(backing_);
  }
}

NetBuf* NetBufPool::Alloc() {
  if (free_.empty()) {
    // Arm the refill edge: someone wanted a buffer and lost. Release pairs
    // with the acquire side of the exchange in Free().
    starved_.store(true, std::memory_order_release);
    return nullptr;
  }
  NetBuf* nb = free_.back();
  free_.pop_back();
  nb->headroom = default_headroom_;
  nb->len = 0;
  nb->refcnt = 1;
  nb->priv = nullptr;
  total_allocs_.fetch_add(1, std::memory_order_relaxed);
  return nb;
}

NetBuf* NetBufPool::AllocWithHeadroom(std::uint32_t headroom) {
  if (headroom > buf_size_) {
    return nullptr;
  }
  NetBuf* nb = Alloc();
  if (nb != nullptr) {
    nb->headroom = headroom;
  }
  return nb;
}

void NetBufPool::Free(NetBuf* nb) {
  if (nb == nullptr || nb->pool != this) {
    return;
  }
  if (nb->refcnt > 1) {
    --nb->refcnt;  // another holder (retransmit queue, ARP parking) remains
    return;
  }
  nb->refcnt = 1;
  free_.push_back(nb);
  // Dry-pool refill edge: the first buffer returning after a failed Alloc is
  // the TX "writability interrupt" — deliver it once per dry spell. The
  // relaxed pre-check keeps steady-state Free at one branch (no RMW); the
  // exchange makes the edge single-fire when two Frees race it.
  if (starved_.load(std::memory_order_relaxed) &&
      starved_.exchange(false, std::memory_order_acq_rel)) {
    refill_edges_.fetch_add(1, std::memory_order_relaxed);
    if (refill_cb_) {
      refill_cb_();
    }
  }
}

}  // namespace uknetdev
