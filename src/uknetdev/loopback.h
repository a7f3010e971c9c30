// uknetdev/loopback.h - loopback netdev: TX burst becomes RX burst.
//
// Used by single-image tests and by server+client colocated setups. Frames
// are copied into buffers from the RX pool so ownership semantics match real
// drivers exactly. Multi-queue: every transmitted frame is classified with
// the shared RSS hash (rss.h) and lands on the matching RX queue, so the
// loopback exercises the same flow -> queue demux as virtio-net.
#ifndef UKNETDEV_LOOPBACK_H_
#define UKNETDEV_LOOPBACK_H_

#include <deque>
#include <vector>

#include "uknetdev/netdev.h"
#include "ukplat/memregion.h"

namespace uknetdev {

class Loopback final : public NetDev {
 public:
  static constexpr std::uint16_t kMaxQueues = 8;

  explicit Loopback(ukplat::MemRegion* mem, MacAddr mac = MacAddr{{2, 0, 0, 0, 0, 1}},
                    std::uint16_t max_queues = 4)
      : mem_(mem), mac_(mac) {
    max_queues_ = max_queues == 0 ? 1 : max_queues;
    if (max_queues_ > kMaxQueues) {
      max_queues_ = kMaxQueues;
    }
    rxqs_.resize(1);
    queue_stats_.resize(1);
  }

  const char* name() const override { return "loopback"; }
  DevInfo Info() const override {
    DevInfo info;
    info.max_rx_queues = max_queues_;
    info.max_tx_queues = max_queues_;
    return info;
  }
  MacAddr mac() const override { return mac_; }

  ukarch::Status Configure(const DevConf& conf) override;
  ukarch::Status TxQueueSetup(std::uint16_t queue, const TxQueueConf& conf) override;
  ukarch::Status RxQueueSetup(std::uint16_t queue, const RxQueueConf& conf) override;
  ukarch::Status Start() override;

  int TxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) override;
  int RxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) override;

  // Per-queue interrupt arming; queue indices are validated against the
  // configured count (an out-of-range index is a caller bug, not a no-op).
  ukarch::Status RxIntrEnable(std::uint16_t queue) override;
  ukarch::Status RxIntrDisable(std::uint16_t queue) override;

  Stats stats() const override;
  Stats QueueStats(std::uint16_t queue) const override;

 private:
  struct RxQueue {
    NetBufPool* pool = nullptr;
    std::function<void(std::uint16_t)> intr_handler;
    std::deque<NetBuf*> ring;
    bool intr_enabled = false;
    bool intr_armed = false;
  };

  ukplat::MemRegion* mem_;
  MacAddr mac_;
  std::uint16_t max_queues_;
  std::uint16_t nb_rx_ = 1;
  std::uint16_t nb_tx_ = 1;
  std::vector<RxQueue> rxqs_;
  // Indexed by queue: tx_* of TX queue q and rx_* of RX queue q.
  std::vector<Stats> queue_stats_;
  bool started_ = false;
};

}  // namespace uknetdev

#endif  // UKNETDEV_LOOPBACK_H_
