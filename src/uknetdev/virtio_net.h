// uknetdev/virtio_net.h - virtio-net driver + embedded device backend.
//
// The guest half implements the uknetdev API over split virtqueue pairs in
// guest memory (single-segment chains carrying virtio_net_hdr + frame, as
// modern drivers do with VIRTIO_F_ANY_LAYOUT). Multi-queue follows
// VIRTIO_NET_F_MQ: the application configures up to |max_queue_pairs| TX/RX
// pairs, each with its own ring, buffer pool and interrupt line; the device
// side classifies incoming frames with the shared RSS hash (rss.h) so a
// flow's frames always complete on one RX queue. The device half moves
// frames between the rings and a ukplat::Wire, with costs per backend:
//
//  * vhost-net  — kicks are VM exits + eventfd wakeups, and every packet pays
//    the host kernel tap path (§6.2's slower configuration);
//  * vhost-user — a DPDK-based userspace poller: no kicks, cheap per-packet
//    ring work, at the cost of a host core spinning (which is exactly the
//    trade-off the paper states for Fig 19).
#ifndef UKNETDEV_VIRTIO_NET_H_
#define UKNETDEV_VIRTIO_NET_H_

#include <atomic>
#include <memory>
#include <vector>

#include "uknetdev/netdev.h"
#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "ukplat/virtqueue.h"
#include "ukplat/wire.h"

namespace uknetdev {

enum class VirtioBackend { kVhostNet, kVhostUser };

class VirtioNet final : public NetDev {
 public:
  static constexpr std::uint16_t kMaxQueuePairs = 8;

  struct Config {
    VirtioBackend backend = VirtioBackend::kVhostNet;
    MacAddr mac{};
    std::uint16_t queue_size = 256;
    int wire_side = 0;  // 0 sends dir-0 frames, receives dir-1 (and vice versa)
    // Queue pairs the device offers (VIRTIO_NET_F_MQ's max_virtqueue_pairs).
    std::uint16_t max_queue_pairs = 4;
  };

  VirtioNet(ukplat::MemRegion* mem, ukplat::Clock* clock, ukplat::Wire* wire,
            Config config);
  ~VirtioNet() override;

  const char* name() const override { return "virtio-net"; }
  DevInfo Info() const override;
  MacAddr mac() const override { return config_.mac; }

  ukarch::Status Configure(const DevConf& conf) override;
  ukarch::Status TxQueueSetup(std::uint16_t queue, const TxQueueConf& conf) override;
  ukarch::Status RxQueueSetup(std::uint16_t queue, const RxQueueConf& conf) override;
  ukarch::Status Start() override;

  int TxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) override;
  int RxBurst(std::uint16_t queue, NetBuf** pkt, std::uint16_t* cnt) override;

  ukarch::Status RxIntrEnable(std::uint16_t queue) override;
  ukarch::Status RxIntrDisable(std::uint16_t queue) override;

  Stats stats() const override;
  Stats QueueStats(std::uint16_t queue) const override;

  // Device-side pump: drains TX rings to the wire and fills RX completions
  // from the wire (RSS-classified per frame). In a real system this runs in
  // the vhost thread; the simulation calls it from the burst functions and
  // from world polls.
  void BackendPoll();

  std::uint64_t kicks() const {
    return kicks_.load(std::memory_order_relaxed);
  }

  static constexpr std::uint32_t kVirtioHdrBytes = 12;

 private:
  struct TxQueue {
    std::unique_ptr<ukplat::Virtqueue> vq;
  };
  struct RxQueue {
    std::unique_ptr<ukplat::Virtqueue> vq;
    NetBufPool* pool = nullptr;
    std::function<void(std::uint16_t)> intr_handler;
    bool intr_enabled = false;
    bool intr_armed = false;
  };

  void FillRxRing(std::uint16_t queue);
  void RaiseRxInterruptIfArmed(std::uint16_t queue);
  // Wire-activity callback (the vhost thread waking on traffic): pumps the
  // device side so frames reach the rings — and armed interrupts fire — even
  // while the guest is blocked and never calls RxBurst. Registered lazily on
  // the first RxIntrEnable so poll-mode-only setups keep the exact pre-existing
  // burst-driven backend schedule.
  void OnWireSignal();

  ukplat::MemRegion* mem_;
  ukplat::Clock* clock_;
  ukplat::Wire* wire_;
  Config config_;
  bool started_ = false;

  std::uint16_t nb_rx_ = 1;
  std::uint16_t nb_tx_ = 1;
  std::vector<TxQueue> txqs_;
  std::vector<RxQueue> rxqs_;
  // Indexed by queue: tx_* of TX queue q and rx_* of RX queue q.
  std::vector<Stats> queue_stats_;

  std::atomic<std::uint64_t> kicks_{0};
  bool signal_registered_ = false;
  // BackendPoll re-entrancy guard: wire signals can arrive while the backend
  // is already pumping (a peer replying from inside its own signal callback,
  // or — under the real-thread scheduler — from another loop's OS thread);
  // the in-progress pass will pick the frames up. Atomic exchange makes the
  // claim a single step, so two concurrent entrants can never both pump.
  std::atomic<bool> in_backend_poll_{false};
};

}  // namespace uknetdev

#endif  // UKNETDEV_VIRTIO_NET_H_
