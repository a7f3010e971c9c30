// tests/block_harness.h - shared block-device plumbing for storage tests.
//
//  * RecordingBlockDev — a pass-through BlockDev that logs every request
//                        (op, first sector, sector count) so tests can assert
//                        exact I/O counts, and that can cut power: once
//                        |cut_after| writes have gone through, every further
//                        write is acknowledged but dropped.
//  * DiskImage         — reads the BlockFs on-disk layout straight from the
//                        raw device bytes (documented in vfscore/blockfs.h),
//                        independently of the filesystem code, so tests can
//                        check the structure a crash left behind.
#ifndef TESTS_BLOCK_HARNESS_H_
#define TESTS_BLOCK_HARNESS_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "ukblockdev/blockdev.h"

namespace blockharness {

class RecordingBlockDev final : public ukblockdev::BlockDev {
 public:
  struct Io {
    ukblockdev::Request::Op op;
    std::uint64_t sector;
    std::uint32_t count;
  };

  explicit RecordingBlockDev(ukblockdev::BlockDev* inner) : inner_(inner) {
    inner_->SetCompletionHandler(
        [this](ukblockdev::Request* req) { Complete(req, req->result); });
  }

  // The inner device's completion handler holds |this|.
  RecordingBlockDev(const RecordingBlockDev&) = delete;
  RecordingBlockDev& operator=(const RecordingBlockDev&) = delete;
  ~RecordingBlockDev() override { inner_->SetCompletionHandler(nullptr); }

  const char* name() const override { return "recording"; }
  ukblockdev::Geometry geometry() const override { return inner_->geometry(); }

  bool Submit(ukblockdev::Request* req) override {
    if (req->op == ukblockdev::Request::Op::kWrite && writes_++ >= cut_after) {
      dropped_.push_back(req);  // lost on the way to the medium
      return true;
    }
    log.push_back(Io{req->op, req->sector, req->count});
    return inner_->Submit(req);
  }

  std::size_t ProcessCompletions(std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !dropped_.empty()) {
      Complete(dropped_.front(), 0);
      dropped_.pop_front();
      ++n;
    }
    return n + inner_->ProcessCompletions(max - n);
  }

  // Requests of |op| that overlap sectors [lo, hi).
  std::size_t Count(ukblockdev::Request::Op op, std::uint64_t lo,
                    std::uint64_t hi) const {
    std::size_t n = 0;
    for (const Io& io : log) {
      n += io.op == op && io.sector < hi && io.sector + io.count > lo ? 1 : 0;
    }
    return n;
  }
  std::size_t Count(ukblockdev::Request::Op op) const {
    return Count(op, 0, std::numeric_limits<std::uint64_t>::max());
  }
  // Writes issued so far, dropped ones included.
  std::uint64_t writes() const { return writes_; }
  bool cut() const { return writes_ > cut_after; }

  std::vector<Io> log;
  std::uint64_t cut_after = std::numeric_limits<std::uint64_t>::max();

 private:
  ukblockdev::BlockDev* inner_;
  std::uint64_t writes_ = 0;
  std::deque<ukblockdev::Request*> dropped_;
};

// The BlockFs image as the bytes on the device lay it out.
class DiskImage {
 public:
  static constexpr std::uint32_t kBlockBytes = 4096;
  static constexpr std::uint32_t kBitmapBlock = 1;
  static constexpr std::uint32_t kInodeStart = 2;
  static constexpr std::uint32_t kDataStart = 4;
  static constexpr std::uint32_t kInodes = 64;
  static constexpr std::uint32_t kInodeBytes = 128;
  static constexpr std::uint32_t kDirect = 12;

  struct Inode {
    bool used = false;
    std::uint64_t size = 0;
    std::uint32_t direct[kDirect] = {};
    std::uint32_t indirect = 0;
  };

  explicit DiskImage(const std::vector<std::uint8_t>& disk) : disk_(disk) {}

  // Byte offset of inode slot |idx| and of its fields on the device.
  static constexpr std::size_t InodeAt(std::uint32_t idx) {
    return std::size_t{kInodeStart} * kBlockBytes + std::size_t{idx} * kInodeBytes;
  }
  static constexpr std::size_t kNameLenField = 1;
  static constexpr std::size_t kSizeField = 64;
  static constexpr std::size_t kDirectField = 72;
  static constexpr std::size_t kIndirectField = 120;

  std::uint32_t total_blocks() const { return U32(8 + 4); }
  bool allocated(std::uint32_t block) const {
    return disk_[kBitmapBlock * kBlockBytes + block] != 0;
  }
  Inode inode(std::uint32_t idx) const {
    const std::size_t at = InodeAt(idx);
    Inode ino;
    ino.used = disk_[at] != 0;
    std::memcpy(&ino.size, &disk_[at + kSizeField], 8);
    for (std::uint32_t i = 0; i < kDirect; ++i) {
      ino.direct[i] = U32(at + kDirectField + 4 * i);
    }
    ino.indirect = U32(at + kIndirectField);
    return ino;
  }
  // Every block a used inode references: its data blocks, its indirect
  // block and the blocks that one points at.
  std::vector<std::uint32_t> Referenced() const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < kInodes; ++i) {
      const Inode ino = inode(i);
      if (!ino.used) {
        continue;
      }
      for (std::uint32_t b : ino.direct) {
        if (b != 0) {
          out.push_back(b);
        }
      }
      if (ino.indirect != 0) {
        out.push_back(ino.indirect);
        if (ino.indirect >= disk_.size() / kBlockBytes) {
          continue;  // off the device: the caller's range check flags it
        }
        for (std::uint32_t p = 0; p < kBlockBytes / 4; ++p) {
          const std::uint32_t b = U32(std::size_t{ino.indirect} * kBlockBytes + 4 * p);
          if (b != 0) {
            out.push_back(b);
          }
        }
      }
    }
    return out;
  }

 private:
  std::uint32_t U32(std::size_t at) const {
    std::uint32_t v = 0;
    std::memcpy(&v, &disk_[at], 4);
    return v;
  }

  const std::vector<std::uint8_t>& disk_;
};

}  // namespace blockharness

#endif  // TESTS_BLOCK_HARNESS_H_
