#include "ukblockdev/ramdisk.h"

#include <cstring>

namespace ukblockdev {

RamDisk::RamDisk(ukplat::MemRegion* guest_mem, std::uint64_t sectors,
                 std::uint32_t sector_bytes)
    : guest_mem_(guest_mem),
      geom_{sectors, sector_bytes},
      disk_(sectors * sector_bytes, 0) {}

std::int32_t RamDisk::Execute(Request* req) {
  if (req->op == Request::Op::kFlush) {
    ++flushes_;  // no write cache to drain; acknowledged immediately
    return 0;
  }
  std::uint64_t offset = req->sector * geom_.sector_bytes;
  std::size_t bytes = static_cast<std::size_t>(req->count) * geom_.sector_bytes;
  if (req->sector + req->count > geom_.sectors) {
    return ukarch::Raw(ukarch::Status::kInval);
  }
  std::byte* buf = guest_mem_->At(req->data_gpa, bytes);
  if (buf == nullptr) {
    return ukarch::Raw(ukarch::Status::kFault);
  }
  if (req->op == Request::Op::kRead) {
    std::memcpy(buf, disk_.data() + offset, bytes);
  } else {
    std::memcpy(disk_.data() + offset, buf, bytes);
  }
  return 0;
}

bool RamDisk::Submit(Request* req) {
  // Executed now, but the result is published by ProcessCompletions to
  // preserve the async shape: until then the request stays pending, so the
  // submitter reaps it and no entry outlives its request.
  completed_.push_back(Completion{req, Execute(req)});
  return true;
}

std::size_t RamDisk::ProcessCompletions(std::size_t max) {
  std::size_t n = 0;
  while (n < max && !completed_.empty()) {
    const Completion c = completed_.front();
    completed_.pop_front();
    Complete(c.req, c.result);
    ++n;
  }
  return n;
}

}  // namespace ukblockdev
