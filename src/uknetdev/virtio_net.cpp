#include "uknetdev/virtio_net.h"

#include <algorithm>
#include <cstring>

#include "ukarch/counters.h"
#include "uknetdev/rss.h"

namespace uknetdev {

VirtioNet::VirtioNet(ukplat::MemRegion* mem, ukplat::Clock* clock, ukplat::Wire* wire,
                     Config config)
    : mem_(mem), clock_(clock), wire_(wire), config_(config) {
  if (config_.max_queue_pairs == 0) {
    config_.max_queue_pairs = 1;
  }
  if (config_.max_queue_pairs > kMaxQueuePairs) {
    config_.max_queue_pairs = kMaxQueuePairs;
  }
  txqs_.resize(1);
  rxqs_.resize(1);
  queue_stats_.resize(1);
  // Make the switch port exist now: a polled NIC may never register a signal
  // fn, and a port the switch has never seen receives no flooded frames.
  wire_->AttachPort(config_.wire_side);
}

VirtioNet::~VirtioNet() {
  if (signal_registered_) {
    wire_->SetSignalFn(config_.wire_side, nullptr);
  }
}

void VirtioNet::OnWireSignal() {
  if (!started_ || in_backend_poll_.load(std::memory_order_acquire)) {
    return;
  }
  // Only spend device-side work when some queue actually wants wakeups; a
  // poll-mode guest keeps its burst-driven backend schedule untouched.
  for (const RxQueue& q : rxqs_) {
    if (q.intr_enabled) {
      BackendPoll();
      return;
    }
  }
}

DevInfo VirtioNet::Info() const {
  DevInfo info;
  info.max_rx_queues = config_.max_queue_pairs;
  info.max_tx_queues = config_.max_queue_pairs;
  info.max_mtu = static_cast<std::uint32_t>(wire_->config().mtu);
  info.tx_queue_depth = config_.queue_size;
  info.rx_queue_depth = config_.queue_size;
  info.tx_headroom = kVirtioHdrBytes;
  return info;
}

ukarch::Status VirtioNet::Configure(const DevConf& conf) {
  if (conf.nb_rx_queues == 0 || conf.nb_tx_queues == 0) {
    return ukarch::Status::kInval;
  }
  if (conf.nb_rx_queues > config_.max_queue_pairs ||
      conf.nb_tx_queues > config_.max_queue_pairs) {
    return ukarch::Status::kNotSup;  // beyond the negotiated queue pairs
  }
  nb_rx_ = conf.nb_rx_queues;
  nb_tx_ = conf.nb_tx_queues;
  txqs_.clear();
  txqs_.resize(nb_tx_);
  rxqs_.clear();
  rxqs_.resize(nb_rx_);
  queue_stats_.assign(std::max(nb_rx_, nb_tx_), Stats{});
  return ukarch::Status::kOk;
}

ukarch::Status VirtioNet::TxQueueSetup(std::uint16_t queue, const TxQueueConf&) {
  if (queue >= nb_tx_) {
    return ukarch::Status::kInval;
  }
  std::uint64_t gpa = mem_->Carve(ukplat::Virtqueue::FootprintBytes(config_.queue_size), 16);
  if (gpa == ukplat::MemRegion::kBadGpa) {
    return ukarch::Status::kNoMem;
  }
  txqs_[queue].vq = std::make_unique<ukplat::Virtqueue>(mem_, gpa, config_.queue_size);
  return ukarch::Status::kOk;
}

ukarch::Status VirtioNet::RxQueueSetup(std::uint16_t queue, const RxQueueConf& conf) {
  if (queue >= nb_rx_) {
    return ukarch::Status::kInval;
  }
  if (conf.buffer_pool == nullptr) {
    return ukarch::Status::kInval;  // the application must provide memory (§3.1)
  }
  std::uint64_t gpa = mem_->Carve(ukplat::Virtqueue::FootprintBytes(config_.queue_size), 16);
  if (gpa == ukplat::MemRegion::kBadGpa) {
    return ukarch::Status::kNoMem;
  }
  rxqs_[queue].vq = std::make_unique<ukplat::Virtqueue>(mem_, gpa, config_.queue_size);
  rxqs_[queue].pool = conf.buffer_pool;
  rxqs_[queue].intr_handler = conf.intr_handler;
  return ukarch::Status::kOk;
}

ukarch::Status VirtioNet::Start() {
  for (const TxQueue& q : txqs_) {
    if (q.vq == nullptr) {
      return ukarch::Status::kInval;
    }
  }
  for (const RxQueue& q : rxqs_) {
    if (q.vq == nullptr) {
      return ukarch::Status::kInval;
    }
  }
  started_ = true;
  for (std::uint16_t q = 0; q < nb_rx_; ++q) {
    FillRxRing(q);
  }
  return ukarch::Status::kOk;
}

void VirtioNet::FillRxRing(std::uint16_t queue) {
  RxQueue& rxq = rxqs_[queue];
  // Keep the RX ring stocked with writable buffers from the queue's pool.
  while (rxq.vq->NumFree() > 0) {
    NetBuf* nb = rxq.pool->Alloc();
    if (nb == nullptr) {
      break;  // queue's pool exhausted; counted on actual drops
    }
    // The device writes virtio_net_hdr + frame at the buffer start; reserve
    // the full capacity. Headroom bookkeeping happens at completion.
    nb->headroom = 0;
    nb->len = 0;
    ukplat::Virtqueue::Segment seg{nb->gpa, nb->capacity, true};
    if (!rxq.vq->Enqueue(std::span(&seg, 1), nb)) {
      rxq.pool->Free(nb);
      break;
    }
  }
  rxq.vq->MarkKicked();  // RX refill kicks are free on both backends (posted idly)
}

int VirtioNet::TxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) {
  if (!started_ || queue >= nb_tx_) {
    *cnt = 0;
    return kStatusUnderrun;
  }
  TxQueue& txq = txqs_[queue];
  Stats& txs = queue_stats_[queue];
  const std::uint16_t requested = *cnt;
  std::uint16_t queued = 0;
  for (; queued < requested; ++queued) {
    NetBuf* nb = pkt[queued];
    if (nb->len > wire_->config().mtu + 14) {
      ++txs.tx_drops;
      break;
    }
    // Prepend the virtio_net_hdr in buffer headroom (no copy).
    if (!nb->Push(kVirtioHdrBytes)) {
      ++txs.tx_drops;
      break;
    }
    std::byte* hdr = mem_->At(nb->data_gpa(), kVirtioHdrBytes);
    if (hdr != nullptr) {
      std::memset(hdr, 0, kVirtioHdrBytes);  // no offloads
    }
    ukplat::Virtqueue::Segment seg{nb->data_gpa(), nb->len, false};
    if (!txq.vq->Enqueue(std::span(&seg, 1), nb)) {
      nb->Pull(kVirtioHdrBytes);  // undo; caller keeps ownership
      break;
    }
  }
  *cnt = queued;

  if (queued > 0 && config_.backend == VirtioBackend::kVhostNet && txq.vq->NeedsKick()) {
    // Notify the vhost thread: VM exit + eventfd signal.
    clock_->Charge(clock_->model().vm_exit + clock_->model().vhost_kick);
    txq.vq->MarkKicked();
    kicks_.fetch_add(1, std::memory_order_relaxed);
  } else if (config_.backend == VirtioBackend::kVhostUser) {
    txq.vq->MarkKicked();  // poller needs no notification
  }
  BackendPoll();

  // Reap TX completions: release the driver's reference. Buffers whose only
  // holder was the ring return to their pools; buffers a protocol layer
  // retained (TCP retransmission queue) stay alive with that holder.
  while (auto done = txq.vq->DequeueCompletion()) {
    auto* nb = static_cast<NetBuf*>(done->cookie);
    if (nb->pool != nullptr) {
      nb->pool->Free(nb);
    }
  }

  int flags = queued > 0 ? kStatusSuccess : 0;
  if (txq.vq->NumFree() > 0) {
    flags |= kStatusMore;
  }
  if (queued < requested) {
    flags |= kStatusUnderrun;
  }
  return flags;
}

void VirtioNet::BackendPoll() {
  // Single-step claim: check-then-set as two operations would let two
  // entrants (recursive signal, or a sibling loop's thread) both pass the
  // check and pump the rings concurrently.
  if (!started_ || in_backend_poll_.exchange(true, std::memory_order_acquire)) {
    return;
  }
  const ukplat::CostModel& m = clock_->model();
  std::uint64_t per_pkt = config_.backend == VirtioBackend::kVhostNet
                              ? m.vhost_net_per_packet
                              : m.vhost_user_per_packet;

  // TX direction: guest rings -> wire.
  for (std::size_t q = 0; q < txqs_.size(); ++q) {
    TxQueue& txq = txqs_[q];
    Stats& txs = queue_stats_[q];
    while (auto chain = txq.vq->DevicePop()) {
      const auto& seg = chain->segments[0];
      const std::byte* bytes = mem_->At(seg.gpa, seg.len);
      if (bytes != nullptr && seg.len > kVirtioHdrBytes) {
        std::vector<std::uint8_t> frame(
            reinterpret_cast<const std::uint8_t*>(bytes) + kVirtioHdrBytes,
            reinterpret_cast<const std::uint8_t*>(bytes) + seg.len);
        clock_->Charge(per_pkt);
        clock_->ChargeCopy(frame.size());
        if (wire_->Send(config_.wire_side, std::move(frame))) {
          txs.tx_bytes += seg.len - kVirtioHdrBytes;
          ++txs.tx_packets;
        } else {
          ++txs.tx_drops;
        }
      }
      txq.vq->DevicePush(chain->head, 0);
    }
  }

  // RX direction: wire -> guest rings, one RSS classification per frame (the
  // hash a multi-queue NIC computes in hardware). A single-queue device keeps
  // the old backpressure behaviour — frames wait on the wire while the ring
  // is full; with multiple queues a full ring drops its own frames so a
  // stalled queue can never block traffic headed for its siblings.
  bool delivered[kMaxQueuePairs] = {false};
  bool any = false;
  while (wire_->Pending(config_.wire_side) > 0) {
    if (nb_rx_ == 1 && !rxqs_[0].vq->DeviceHasWork()) {
      break;
    }
    auto frame = wire_->Receive(config_.wire_side);
    if (!frame.has_value()) {
      break;
    }
    std::uint16_t qi = RssQueueForFrame(frame->data(), frame->size(), nb_rx_);
    RxQueue& rxq = rxqs_[qi];
    auto chain = rxq.vq->DevicePop();
    if (!chain.has_value()) {
      ++queue_stats_[qi].rx_drops;  // ring dry (pool exhausted): this queue's loss only
      continue;
    }
    const auto& seg = chain->segments[0];
    std::uint32_t total = kVirtioHdrBytes + static_cast<std::uint32_t>(frame->size());
    if (total > seg.len) {
      ++queue_stats_[qi].rx_drops;
      rxq.vq->DevicePush(chain->head, 0);
      continue;
    }
    std::byte* dst = mem_->At(seg.gpa, total);
    std::memset(dst, 0, kVirtioHdrBytes);
    std::memcpy(dst + kVirtioHdrBytes, frame->data(), frame->size());
    clock_->Charge(per_pkt);
    clock_->ChargeCopy(frame->size());
    rxq.vq->DevicePush(chain->head, total);
    delivered[qi] = true;
    any = true;
  }
  if (any) {
    for (std::uint16_t q = 0; q < nb_rx_; ++q) {
      if (delivered[q]) {
        RaiseRxInterruptIfArmed(q);
      }
    }
  }
  in_backend_poll_.store(false, std::memory_order_release);
}

void VirtioNet::RaiseRxInterruptIfArmed(std::uint16_t queue) {
  RxQueue& rxq = rxqs_[queue];
  if (rxq.intr_enabled && rxq.intr_armed) {
    rxq.intr_armed = false;  // line stays inactive until RxBurst drains the queue
    clock_->Charge(clock_->model().irq_inject);
    ++queue_stats_[queue].rx_interrupts;
    if (rxq.intr_handler) {
      rxq.intr_handler(queue);
    }
  }
}

int VirtioNet::RxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) {
  if (!started_ || queue >= nb_rx_) {
    *cnt = 0;
    return kStatusUnderrun;
  }
  BackendPoll();
  RxQueue& rxq = rxqs_[queue];
  Stats& rxs = queue_stats_[queue];
  std::uint16_t got = 0;
  while (got < *cnt) {
    auto done = rxq.vq->DequeueCompletion();
    if (!done.has_value()) {
      break;
    }
    auto* nb = static_cast<NetBuf*>(done->cookie);
    if (done->written <= kVirtioHdrBytes) {
      rxq.pool->Free(nb);
      continue;
    }
    nb->headroom = kVirtioHdrBytes;
    nb->len = done->written - kVirtioHdrBytes;
    rxs.rx_bytes += nb->len;
    ++rxs.rx_packets;
    pkt[got++] = nb;
  }
  *cnt = got;
  FillRxRing(queue);

  int flags = got > 0 ? kStatusSuccess : 0;
  bool more = rxq.vq->HasCompletions() ||
              (nb_rx_ == 1 && wire_->Pending(config_.wire_side) > 0);
  if (more) {
    flags |= kStatusMore;
  } else if (rxq.intr_enabled) {
    rxq.intr_armed = true;  // queue drained: re-arm the line (§3.1)
  }
  return flags;
}

ukarch::Status VirtioNet::RxIntrEnable(std::uint16_t queue) {
  if (queue >= nb_rx_) {
    return ukarch::Status::kInval;
  }
  rxqs_[queue].intr_enabled = true;
  rxqs_[queue].intr_armed = true;
  if (!signal_registered_) {
    // From now on the device side also runs on wire activity, so an armed
    // line can fire while the guest sleeps (the vhost thread's job).
    wire_->SetSignalFn(config_.wire_side, [this] { OnWireSignal(); });
    signal_registered_ = true;
  }
  return ukarch::Status::kOk;
}

ukarch::Status VirtioNet::RxIntrDisable(std::uint16_t queue) {
  if (queue >= nb_rx_) {
    return ukarch::Status::kInval;
  }
  rxqs_[queue].intr_enabled = false;
  rxqs_[queue].intr_armed = false;
  return ukarch::Status::kOk;
}

NetDev::Stats VirtioNet::stats() const {
  Stats agg{};
  for (const Stats& q : queue_stats_) {
    ukarch::AddTo(&agg, q);
  }
  return agg;
}

NetDev::Stats VirtioNet::QueueStats(std::uint16_t queue) const {
  return queue < queue_stats_.size() ? queue_stats_[queue] : Stats{};
}

}  // namespace uknetdev
