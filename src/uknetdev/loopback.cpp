#include "uknetdev/loopback.h"

#include <algorithm>
#include <cstring>

#include "ukarch/counters.h"
#include "uknetdev/rss.h"

namespace uknetdev {

ukarch::Status Loopback::Configure(const DevConf& conf) {
  if (conf.nb_rx_queues == 0 || conf.nb_tx_queues == 0 ||
      conf.nb_rx_queues > max_queues_ || conf.nb_tx_queues > max_queues_) {
    return ukarch::Status::kInval;
  }
  nb_rx_ = conf.nb_rx_queues;
  nb_tx_ = conf.nb_tx_queues;
  rxqs_.clear();
  rxqs_.resize(nb_rx_);
  queue_stats_.assign(std::max(nb_rx_, nb_tx_), Stats{});
  return ukarch::Status::kOk;
}

ukarch::Status Loopback::TxQueueSetup(std::uint16_t queue, const TxQueueConf&) {
  return queue < nb_tx_ ? ukarch::Status::kOk : ukarch::Status::kInval;
}

ukarch::Status Loopback::RxQueueSetup(std::uint16_t queue, const RxQueueConf& conf) {
  if (queue >= nb_rx_ || conf.buffer_pool == nullptr) {
    return ukarch::Status::kInval;
  }
  rxqs_[queue].pool = conf.buffer_pool;
  rxqs_[queue].intr_handler = conf.intr_handler;
  return ukarch::Status::kOk;
}

ukarch::Status Loopback::Start() {
  for (const RxQueue& q : rxqs_) {
    if (q.pool == nullptr) {
      return ukarch::Status::kInval;
    }
  }
  started_ = true;
  return ukarch::Status::kOk;
}

int Loopback::TxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) {
  if (!started_ || queue >= nb_tx_) {
    *cnt = 0;
    return kStatusUnderrun;
  }
  Stats& txs = queue_stats_[queue];
  bool delivered[kMaxQueues] = {false};  // RX queues that got frames this burst
  std::uint16_t sent = 0;
  for (; sent < *cnt; ++sent) {
    NetBuf* src = pkt[sent];
    const std::byte* from = src->Data(*mem_);
    // RSS demux: the frame's flow hash picks the RX queue, exactly as the
    // virtio device side does. On a dry destination pool, a single-queue
    // device keeps the old backpressure contract — stop the burst and leave
    // the remaining frames with the caller (who sees the short count and
    // retries); with multiple queues the frame drops instead, because one
    // stalled queue must never block traffic headed for its siblings.
    std::uint16_t rxq_idx = RssQueueForFrame(
        reinterpret_cast<const std::uint8_t*>(from), src->len, nb_rx_);
    RxQueue& rxq = rxqs_[rxq_idx];
    NetBuf* dst = rxq.pool->Alloc();
    if (dst == nullptr || dst->capacity - dst->headroom < src->len) {
      if (dst != nullptr) {
        rxq.pool->Free(dst);
      }
      ++txs.tx_drops;
      if (nb_rx_ == 1) {
        break;  // backpressure: caller keeps ownership of pkt[sent..]
      }
      ++queue_stats_[rxq_idx].rx_drops;
      if (src->pool != nullptr) {
        src->pool->Free(src);
      }
      continue;
    }
    std::byte* to = mem_->At(dst->data_gpa(), src->len);
    std::memcpy(to, from, src->len);
    dst->len = src->len;
    rxq.ring.push_back(dst);
    txs.tx_bytes += src->len;
    ++txs.tx_packets;
    delivered[rxq_idx] = true;
    if (src->pool != nullptr) {
      src->pool->Free(src);  // release the TX reference (holders may remain)
    }
  }
  *cnt = sent;
  for (std::uint16_t q = 0; q < nb_rx_; ++q) {
    RxQueue& rxq = rxqs_[q];
    if (delivered[q] && rxq.intr_enabled && rxq.intr_armed) {
      rxq.intr_armed = false;
      ++queue_stats_[q].rx_interrupts;
      if (rxq.intr_handler) {
        rxq.intr_handler(q);
      }
    }
  }
  return (sent > 0 ? kStatusSuccess : 0) | kStatusMore;
}

int Loopback::RxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) {
  if (!started_ || queue >= nb_rx_) {
    *cnt = 0;
    return kStatusUnderrun;
  }
  RxQueue& rxq = rxqs_[queue];
  Stats& rxs = queue_stats_[queue];
  std::uint16_t got = 0;
  while (got < *cnt && !rxq.ring.empty()) {
    pkt[got++] = rxq.ring.front();
    rxq.ring.pop_front();
    rxs.rx_bytes += pkt[got - 1]->len;
    ++rxs.rx_packets;
  }
  *cnt = got;
  int flags = got > 0 ? kStatusSuccess : 0;
  if (!rxq.ring.empty()) {
    flags |= kStatusMore;
  } else if (rxq.intr_enabled) {
    rxq.intr_armed = true;
  }
  return flags;
}

ukarch::Status Loopback::RxIntrEnable(std::uint16_t queue) {
  if (queue >= nb_rx_) {
    return ukarch::Status::kInval;
  }
  rxqs_[queue].intr_enabled = true;
  rxqs_[queue].intr_armed = true;
  return ukarch::Status::kOk;
}

ukarch::Status Loopback::RxIntrDisable(std::uint16_t queue) {
  if (queue >= nb_rx_) {
    return ukarch::Status::kInval;
  }
  rxqs_[queue].intr_enabled = false;
  return ukarch::Status::kOk;
}

NetDev::Stats Loopback::stats() const {
  Stats agg{};
  for (const Stats& q : queue_stats_) {
    ukarch::AddTo(&agg, q);
  }
  return agg;
}

NetDev::Stats Loopback::QueueStats(std::uint16_t queue) const {
  return queue < queue_stats_.size() ? queue_stats_[queue] : Stats{};
}

}  // namespace uknetdev
