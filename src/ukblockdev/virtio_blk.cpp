#include "ukblockdev/virtio_blk.h"

#include <cstring>

namespace ukblockdev {

namespace {
constexpr std::uint32_t kVirtioBlkTIn = 0;     // read
constexpr std::uint32_t kVirtioBlkTOut = 1;    // write
constexpr std::uint32_t kVirtioBlkTFlush = 4;
constexpr std::uint8_t kVirtioBlkSOk = 0;
constexpr std::uint8_t kVirtioBlkSIoErr = 1;
}  // namespace

std::size_t VirtioBlk::FootprintBytes(std::uint16_t qsize) {
  return ukplat::Virtqueue::FootprintBytes(qsize) + std::size_t{qsize} * kReqSlotBytes;
}

VirtioBlk::VirtioBlk(ukplat::MemRegion* guest_mem, ukplat::Clock* clock,
                     std::uint64_t ring_gpa, std::uint16_t qsize, std::uint64_t sectors,
                     std::uint32_t sector_bytes)
    : guest_mem_(guest_mem),
      clock_(clock),
      vq_(guest_mem, ring_gpa, qsize),
      geom_{sectors, sector_bytes},
      disk_(sectors * sector_bytes, 0),
      slots_gpa_(ring_gpa + ukplat::Virtqueue::FootprintBytes(qsize)),
      qsize_(qsize) {}

bool VirtioBlk::Submit(Request* req) {
  if (vq_.NumFree() < 3) {
    return false;
  }
  // Rotating header/status slots; safe because a request occupies its slot
  // only while its chain is outstanding and there are as many slots as
  // descriptors / 3 chains possible.
  std::uint64_t slot = slots_gpa_ + (next_slot_ % qsize_) * kReqSlotBytes;
  ++next_slot_;

  VirtioBlkHdr hdr{};
  hdr.type = req->op == Request::Op::kRead    ? kVirtioBlkTIn
             : req->op == Request::Op::kWrite ? kVirtioBlkTOut
                                              : kVirtioBlkTFlush;
  hdr.sector = req->sector;
  guest_mem_->Write(slot, hdr);

  std::size_t bytes = static_cast<std::size_t>(req->count) * geom_.sector_bytes;
  ukplat::Virtqueue::Segment segs[3];
  segs[0] = {slot, sizeof(VirtioBlkHdr), false};
  segs[1] = {req->data_gpa, static_cast<std::uint32_t>(bytes),
             req->op == Request::Op::kRead};
  segs[2] = {slot + sizeof(VirtioBlkHdr), 1, true};  // status byte
  std::size_t nsegs = req->op == Request::Op::kFlush ? 1u : 3u;
  if (req->op == Request::Op::kFlush) {
    segs[1] = segs[2];  // flush has no data segment
    nsegs = 2;
  }
  if (!vq_.Enqueue(std::span(segs).first(nsegs), req)) {
    return false;
  }
  slot_of_[req] = slot;
  if (vq_.NeedsKick()) {
    // Notifying the device is a VM exit (ioeventfd path).
    clock_->Charge(clock_->model().vm_exit);
    vq_.MarkKicked();
    ++kicks_;
  }
  return true;
}

std::uint8_t VirtioBlk::ExecuteChain(
    std::span<const ukplat::Virtqueue::Segment> segs, std::uint32_t* written) {
  // Chain shapes (virtio spec 5.2.6): [header | data | status] for reads and
  // writes, [header | status] for a flush. Anything else is an I/O error.
  if (segs.size() < 2 || segs[0].len < sizeof(VirtioBlkHdr)) {
    return kVirtioBlkSIoErr;
  }
  const auto hdr = guest_mem_->Read<VirtioBlkHdr>(segs[0].gpa);
  if (hdr.type == kVirtioBlkTFlush) {
    if (segs.size() != 2) {
      return kVirtioBlkSIoErr;
    }
    // Barrier: all writes acknowledged before this chain are stable once
    // the status byte lands. The simulated disk image is a host vector, so
    // the only observable effect is the modeled drain cost + counter.
    clock_->Charge(kFlushBarrierCycles);
    ++flushes_;
    return kVirtioBlkSOk;
  }
  const bool read = hdr.type == kVirtioBlkTIn;
  if ((!read && hdr.type != kVirtioBlkTOut) || segs.size() != 3 ||
      (read && !segs[1].device_writable)) {
    return kVirtioBlkSIoErr;
  }
  const ukplat::Virtqueue::Segment& data_seg = segs[1];
  // Bound the sector before scaling it, so a huge one cannot wrap the offset.
  if (hdr.sector > disk_.size() / geom_.sector_bytes) {
    return kVirtioBlkSIoErr;
  }
  const std::uint64_t offset = hdr.sector * geom_.sector_bytes;
  std::byte* buf = guest_mem_->At(data_seg.gpa, data_seg.len);
  if (offset + data_seg.len > disk_.size() || buf == nullptr) {
    return kVirtioBlkSIoErr;
  }
  if (read) {
    std::memcpy(buf, disk_.data() + offset, data_seg.len);
    *written = data_seg.len;
  } else {
    std::memcpy(disk_.data() + offset, buf, data_seg.len);
  }
  clock_->ChargeCopy(data_seg.len);
  return kVirtioBlkSOk;
}

void VirtioBlk::DeviceRun() {
  bool did_work = false;
  while (auto chain = vq_.DevicePop()) {
    did_work = true;
    const std::vector<ukplat::Virtqueue::Segment>& segs = chain->segments;
    // The status byte is the first byte of the last segment. A chain with no
    // device-writable byte there cannot even report its failure: it
    // completes with nothing written.
    if (segs.empty() || !segs.back().device_writable || segs.back().len == 0) {
      vq_.DevicePush(chain->head, 0);
      continue;
    }
    std::uint32_t written = 0;
    const std::uint8_t status = ExecuteChain(segs, &written);
    guest_mem_->Write<std::uint8_t>(segs.back().gpa, status);
    vq_.DevicePush(chain->head, written + 1);
  }
  if (did_work) {
    clock_->Charge(clock_->model().irq_inject);
    ++irqs_;
  }
}

std::size_t VirtioBlk::ProcessCompletions(std::size_t max) {
  DeviceRun();
  std::size_t n = 0;
  while (n < max) {
    auto done = vq_.DequeueCompletion();
    if (!done.has_value()) {
      break;
    }
    auto* req = static_cast<Request*>(done->cookie);
    // Read back the status byte the device wrote into the request's slot.
    std::int32_t result = ukarch::Raw(ukarch::Status::kIo);
    auto it = slot_of_.find(req);
    if (it != slot_of_.end()) {
      std::uint8_t status =
          guest_mem_->Read<std::uint8_t>(it->second + sizeof(VirtioBlkHdr));
      result = status == kVirtioBlkSOk ? 0 : ukarch::Raw(ukarch::Status::kIo);
      slot_of_.erase(it);
    }
    Complete(req, result);
    ++n;
  }
  return n;
}

}  // namespace ukblockdev
