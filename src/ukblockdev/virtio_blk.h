// ukblockdev/virtio_blk.h - virtio-blk driver + device backend over a split
// virtqueue in guest memory.
//
// Faithful request framing (virtio spec §5.2.6): each request is a 3-segment
// descriptor chain [header | data | status]. The guest driver half builds
// chains and kicks; the embedded device half (the "VMM thread") pops chains,
// executes them against a host-side disk image, writes the status byte, and
// charges the VM-exit and interrupt-injection costs to the virtual clock.
#ifndef UKBLOCKDEV_VIRTIO_BLK_H_
#define UKBLOCKDEV_VIRTIO_BLK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "ukblockdev/blockdev.h"
#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "ukplat/virtqueue.h"

namespace ukblockdev {

class VirtioBlk final : public BlockDev {
 public:
  // |ring_gpa| must point at a carved area of Virtqueue::FootprintBytes(qsize)
  // plus qsize * kReqSlotBytes for per-request header/status slots.
  VirtioBlk(ukplat::MemRegion* guest_mem, ukplat::Clock* clock, std::uint64_t ring_gpa,
            std::uint16_t qsize, std::uint64_t sectors, std::uint32_t sector_bytes = 512);

  static std::size_t FootprintBytes(std::uint16_t qsize);

  const char* name() const override { return "virtio-blk"; }
  Geometry geometry() const override { return geom_; }
  bool Submit(Request* req) override;
  std::size_t ProcessCompletions(std::size_t max) override;

  std::vector<std::uint8_t>& backing() { return disk_; }
  std::uint64_t kicks() const { return kicks_; }
  std::uint64_t irqs() const { return irqs_; }
  // Write-cache barriers executed by the device side (VIRTIO_BLK_T_FLUSH
  // chains). Unlike the ramdisk's no-op, each barrier charges the modeled
  // cost of draining the host-side cache before the status byte is written.
  std::uint64_t flushes() const { return flushes_; }

  // Modeled cycles for one cache barrier: the device thread must issue and
  // wait out a host-side fdatasync-equivalent before acknowledging.
  static constexpr std::uint64_t kFlushBarrierCycles = 12'000;

  static constexpr std::size_t kReqSlotBytes = 32;  // 16B header + status + pad

 private:
  // virtio-blk header as it appears in guest memory.
  struct VirtioBlkHdr {
    std::uint32_t type;      // 0 = read, 1 = write, 4 = flush
    std::uint32_t reserved;
    std::uint64_t sector;
  };

  void DeviceRun();  // the VMM side: drain the queue, execute, push used
  // Checks one chain's shape and executes it; returns its status byte and
  // sets |written| to the data bytes the device filled.
  std::uint8_t ExecuteChain(std::span<const ukplat::Virtqueue::Segment> segs,
                            std::uint32_t* written);

  ukplat::MemRegion* guest_mem_;
  ukplat::Clock* clock_;
  ukplat::Virtqueue vq_;
  Geometry geom_;
  std::vector<std::uint8_t> disk_;
  std::uint64_t slots_gpa_ = 0;
  std::uint16_t qsize_ = 0;
  std::uint32_t next_slot_ = 0;
  std::unordered_map<Request*, std::uint64_t> slot_of_;  // outstanding requests
  std::uint64_t kicks_ = 0;
  std::uint64_t irqs_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace ukblockdev

#endif  // UKBLOCKDEV_VIRTIO_BLK_H_
