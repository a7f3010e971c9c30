#include "vfscore/blockfs.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace vfscore {

// ---- node classes -----------------------------------------------------------

// A regular file: all state lives in the filesystem's inode cache (index
// |idx|) and on disk; the node object itself is a stateless handle, so any
// number of opens — across remounts of the same BlockFs — stay coherent.
class BlockFsFile final : public Node {
 public:
  BlockFsFile(BlockFs* fs, std::uint32_t idx) : fs_(fs), idx_(idx) {}

  NodeType type() const override { return NodeType::kRegular; }
  NodeStat Stat() const override {
    return NodeStat{NodeType::kRegular, fs_->inodes_[idx_].size, idx_ + 1};
  }
  std::int64_t Read(std::uint64_t offset, std::span<std::byte> out) override;
  std::int64_t Write(std::uint64_t offset, std::span<const std::byte> in) override;
  ukarch::Status Truncate(std::uint64_t size) override;
  ukarch::Status Fsync() override { return fs_->Flush(); }

 private:
  BlockFs* fs_;
  std::uint32_t idx_;
};

// The flat root directory: names map straight onto inode-table slots.
class BlockFsDir final : public Node {
 public:
  explicit BlockFsDir(BlockFs* fs) : fs_(fs) {}

  NodeType type() const override { return NodeType::kDirectory; }
  NodeStat Stat() const override {
    std::uint64_t n = 0;
    for (const auto& ino : fs_->inodes_) {
      n += ino.used != 0 ? 1 : 0;
    }
    return NodeStat{NodeType::kDirectory, n, 0};
  }
  ukarch::Status Lookup(std::string_view name, std::shared_ptr<Node>* out) override;
  ukarch::Status Create(std::string_view name, NodeType ntype,
                        std::shared_ptr<Node>* out) override;
  ukarch::Status Remove(std::string_view name) override;
  ukarch::Status ReadDir(std::vector<DirEntry>* out) override;
  ukarch::Status Fsync() override { return fs_->Flush(); }

 private:
  std::int32_t Find(std::string_view name) const;

  BlockFs* fs_;
};

// ---- BlockFs: device plumbing ----------------------------------------------

BlockFs::BlockFs(ukblockdev::BlockDev* dev, ukplat::MemRegion* mem)
    : dev_(dev), bounce_gpa_(mem->Carve(kBlockBytes, 512)) {
  if (bounce_gpa_ != ukplat::MemRegion::kBadGpa) {
    bounce_ = mem->At(bounce_gpa_, kBlockBytes);
  }
  const ukblockdev::Geometry geom = dev_->geometry();
  if (geom.sector_bytes != 0 && kBlockBytes % geom.sector_bytes == 0) {
    sector_bytes_ = geom.sector_bytes;
    sectors_per_block_ = kBlockBytes / geom.sector_bytes;
    total_blocks_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(geom.TotalBytes() / kBlockBytes, kBlockBytes));
  }
}

ukarch::Status BlockFs::Transfer(ukblockdev::Request::Op op, std::uint32_t block,
                                 std::uint32_t first, std::uint32_t count) {
  ukblockdev::Request req;
  req.op = op;
  req.sector = std::uint64_t{block} * sectors_per_block_ + first;
  req.count = count;
  req.data_gpa = bounce_gpa_ + std::uint64_t{first} * sector_bytes_;
  return ukblockdev::SubmitAndWait(*dev_, &req) == 0 ? ukarch::Status::kOk
                                                     : ukarch::Status::kIo;
}

ukarch::Status BlockFs::ReadBytes(std::uint32_t block, std::uint32_t at,
                                  std::size_t n, void* out) {
  const std::uint32_t first = at / sector_bytes_;
  const auto end =
      static_cast<std::uint32_t>((at + n + sector_bytes_ - 1) / sector_bytes_);
  ukarch::Status st = Transfer(ukblockdev::Request::Op::kRead, block, first,
                               end - first);
  if (Ok(st)) {
    std::memcpy(out, bounce_ + at, n);
  }
  return st;
}

ukarch::Status BlockFs::WriteBytes(std::uint32_t block, std::uint32_t at,
                                   std::size_t n, const void* in, bool fresh) {
  std::uint32_t first = 0;
  std::uint32_t end = sectors_per_block_;
  if (fresh) {
    std::memset(bounce_, 0, kBlockBytes);
  } else {
    first = at / sector_bytes_;
    end = static_cast<std::uint32_t>((at + n + sector_bytes_ - 1) / sector_bytes_);
    const bool head = at % sector_bytes_ != 0;
    const bool tail = (at + n) % sector_bytes_ != 0 && (end - 1 != first || !head);
    ukarch::Status st = ukarch::Status::kOk;
    if (head) {
      st = Transfer(ukblockdev::Request::Op::kRead, block, first, 1);
    }
    if (Ok(st) && tail) {
      st = Transfer(ukblockdev::Request::Op::kRead, block, end - 1, 1);
    }
    if (!Ok(st)) {
      return st;
    }
  }
  if (in != nullptr) {
    std::memcpy(bounce_ + at, in, n);
  } else {
    std::memset(bounce_ + at, 0, n);
  }
  return Transfer(ukblockdev::Request::Op::kWrite, block, first, end - first);
}

ukarch::Status BlockFs::Flush() {
  if (!mounted_) {
    return ukarch::Status::kInval;
  }
  return Transfer(ukblockdev::Request::Op::kFlush, 0, 0, 0);
}

// ---- BlockFs: format / mount ------------------------------------------------

ukarch::Status BlockFs::Format() {
  if (bounce_ == nullptr || sectors_per_block_ == 0 ||
      total_blocks_ <= kDataStart) {
    return ukarch::Status::kInval;
  }
  std::vector<std::uint8_t> block(kBlockBytes, 0);

  Super super{};
  std::memcpy(super.magic, kMagic, sizeof(kMagic));
  super.block_bytes = kBlockBytes;
  super.total_blocks = total_blocks_;
  super.inode_count = kMaxInodes;
  super.data_start = kDataStart;
  std::memcpy(block.data(), &super, sizeof(super));
  ukarch::Status st = WriteBlock(kSuperBlock, block.data());
  if (!Ok(st)) {
    return st;
  }

  // Bitmap: metadata blocks are born allocated, everything after is free.
  std::fill(block.begin(), block.end(), 0);
  for (std::uint32_t b = 0; b < kDataStart; ++b) {
    block[b] = 1;
  }
  st = WriteBlock(kBitmapBlock, block.data());
  if (!Ok(st)) {
    return st;
  }

  std::fill(block.begin(), block.end(), 0);
  for (std::uint32_t b = 0; b < kInodeBlocks; ++b) {
    st = WriteBlock(kInodeStart + b, block.data());
    if (!Ok(st)) {
      return st;
    }
  }
  mounted_ = false;  // force a metadata reload on the next Mount()
  return ukarch::Status::kOk;
}

ukarch::Status BlockFs::EnsureFormatted() {
  if (bounce_ == nullptr || sectors_per_block_ == 0 ||
      total_blocks_ <= kDataStart) {
    return ukarch::Status::kInval;
  }
  std::vector<std::uint8_t> block(kBlockBytes, 0);
  ukarch::Status st = ReadBlock(kSuperBlock, block.data());
  if (!Ok(st)) {
    return st;
  }
  Super super{};
  std::memcpy(&super, block.data(), sizeof(super));
  if (std::memcmp(super.magic, kMagic, sizeof(kMagic)) == 0 &&
      super.block_bytes == kBlockBytes) {
    return ukarch::Status::kOk;
  }
  return Format();
}

ukarch::Status BlockFs::Mount(std::shared_ptr<Node>* root) {
  if (!mounted_) {
    if (bounce_ == nullptr || sectors_per_block_ == 0 ||
        total_blocks_ <= kDataStart) {
      return ukarch::Status::kInval;
    }
    std::vector<std::uint8_t> block(kBlockBytes, 0);
    ukarch::Status st = ReadBlock(kSuperBlock, block.data());
    if (!Ok(st)) {
      return st;
    }
    Super super{};
    std::memcpy(&super, block.data(), sizeof(super));
    if (std::memcmp(super.magic, kMagic, sizeof(kMagic)) != 0 ||
        super.block_bytes != kBlockBytes || super.inode_count != kMaxInodes ||
        super.total_blocks > total_blocks_) {
      return ukarch::Status::kInval;
    }
    total_blocks_ = super.total_blocks;

    bitmap_.assign(kBlockBytes, 0);
    st = ReadBlock(kBitmapBlock, bitmap_.data());
    if (!Ok(st)) {
      return st;
    }
    inodes_.assign(kMaxInodes, Inode{});
    for (std::uint32_t b = 0; b < kInodeBlocks; ++b) {
      st = ReadBlock(kInodeStart + b,
                     inodes_.data() + b * (kBlockBytes / sizeof(Inode)));
      if (!Ok(st)) {
        return st;
      }
    }
    for (const Inode& ino : inodes_) {
      if (ino.used != 0 && !Sane(ino)) {
        return ukarch::Status::kInval;
      }
    }
    indirect_.assign(kMaxInodes, {});
    pending_ = Pending{};
    mounted_ = true;
  }
  *root = std::make_shared<BlockFsDir>(this);
  return ukarch::Status::kOk;
}

// ---- BlockFs: metadata caches ----------------------------------------------

bool BlockFs::Sane(const Inode& ino) const {
  return ino.name_len <= kNameMax && ino.size <= kMaxFileBytes &&
         ValidPtr(ino.indirect) &&
         std::all_of(std::begin(ino.direct), std::end(ino.direct),
                     [this](std::uint32_t b) { return ValidPtr(b); });
}

std::uint32_t BlockFs::AllocBlock() {
  for (std::uint32_t b = kDataStart; b < total_blocks_; ++b) {
    if (bitmap_[b] == 0) {
      bitmap_[b] = 1;
      pending_.bitmap.Mark(b, 1);
      return b;
    }
  }
  return 0;
}

void BlockFs::FreeBlock(std::uint32_t block) {
  if (block >= kDataStart && block < total_blocks_) {
    bitmap_[block] = 0;
    pending_.bitmap.Mark(block, 1);
  }
}

std::uint32_t BlockFs::free_blocks() const {
  std::uint32_t n = 0;
  for (std::uint32_t b = kDataStart; b < total_blocks_; ++b) {
    n += bitmap_[b] == 0 ? 1 : 0;
  }
  return n;
}

ukarch::Status BlockFs::Slot(std::uint32_t idx, std::uint32_t pos, bool alloc,
                             std::uint32_t** slot) {
  Inode& ino = inodes_[idx];
  if (pos < kDirectPtrs) {
    *slot = &ino.direct[pos];
    return ukarch::Status::kOk;
  }
  *slot = nullptr;
  if (pos >= kDirectPtrs + kIndirectPtrs) {
    return ukarch::Status::kNoSpc;
  }
  std::vector<std::uint32_t>& ptrs = indirect_[idx];
  if (ptrs.empty() && ino.indirect != 0) {
    ptrs.resize(kIndirectPtrs);
    if (!Ok(ReadBlock(ino.indirect, ptrs.data())) ||
        !std::all_of(ptrs.begin(), ptrs.end(),
                     [this](std::uint32_t b) { return ValidPtr(b); })) {
      ptrs.clear();
      return ukarch::Status::kIo;
    }
  } else if (ptrs.empty()) {
    if (!alloc) {
      return ukarch::Status::kOk;  // no indirect block: a hole
    }
    const std::uint32_t ind = AllocBlock();
    if (ind == 0) {
      return ukarch::Status::kNoSpc;
    }
    ino.indirect = ind;
    ptrs.assign(kIndirectPtrs, 0);
    pending_.indirect.Mark(0, kBlockBytes);  // a reused block: write it whole
    pending_.inode = true;
  }
  *slot = &ptrs[pos - kDirectPtrs];
  return ukarch::Status::kOk;
}

void BlockFs::SetSlot(std::uint32_t pos, std::uint32_t* slot, std::uint32_t block) {
  *slot = block;
  if (pos < kDirectPtrs) {
    pending_.inode = true;
  } else {
    pending_.indirect.Mark((pos - kDirectPtrs) * 4, 4);
  }
}

ukarch::Status BlockFs::FreeRange(std::uint32_t idx, std::uint32_t first_pos) {
  Inode& ino = inodes_[idx];
  std::uint32_t* slot = nullptr;
  // Load the indirect block before touching anything, so a failed load
  // leaves the caches as they were.
  ukarch::Status st = Slot(idx, kDirectPtrs, /*alloc=*/false, &slot);
  if (!Ok(st)) {
    return st;
  }
  pending_.inode = true;
  pending_.freed = true;
  for (std::uint32_t p = first_pos; p < kDirectPtrs; ++p) {
    FreeBlock(ino.direct[p]);
    ino.direct[p] = 0;
  }
  if (ino.indirect == 0) {
    return ukarch::Status::kOk;
  }
  std::vector<std::uint32_t>& ptrs = indirect_[idx];
  const std::uint32_t ind_first =
      first_pos > kDirectPtrs ? first_pos - kDirectPtrs : 0;
  for (std::uint32_t p = ind_first; p < kIndirectPtrs; ++p) {
    if (ptrs[p] != 0) {
      FreeBlock(ptrs[p]);
      SetSlot(kDirectPtrs + p, &ptrs[p], 0);
    }
  }
  if (std::all_of(ptrs.begin(), ptrs.begin() + ind_first,
                  [](std::uint32_t b) { return b == 0; })) {
    FreeBlock(ino.indirect);
    ino.indirect = 0;
    ptrs.clear();
  }
  return ukarch::Status::kOk;
}

ukarch::Status BlockFs::WriteDirty(std::uint32_t block, const void* base, Dirty d) {
  if (d.lo >= d.hi) {
    return ukarch::Status::kOk;
  }
  const std::uint32_t lo = d.lo / sector_bytes_ * sector_bytes_;
  const std::uint32_t hi =
      (d.hi + sector_bytes_ - 1) / sector_bytes_ * sector_bytes_;
  return WriteBytes(block, lo, hi - lo, static_cast<const std::uint8_t*>(base) + lo);
}

ukarch::Status BlockFs::SyncMeta(std::uint32_t idx) {
  const Pending p = std::exchange(pending_, Pending{});
  const Inode& ino = inodes_[idx];
  ukarch::Status st = ukarch::Status::kOk;
  if (!p.freed) {
    st = WriteDirty(kBitmapBlock, bitmap_.data(), p.bitmap);
  }
  if (Ok(st) && ino.indirect != 0) {
    st = WriteDirty(ino.indirect, indirect_[idx].data(), p.indirect);
  }
  if (Ok(st) && p.inode) {
    const std::uint32_t at = idx * sizeof(Inode);
    const std::uint32_t table_block = at / kBlockBytes;
    Dirty own;
    own.Mark(at % kBlockBytes, sizeof(Inode));
    st = WriteDirty(kInodeStart + table_block,
                    inodes_.data() + table_block * (kBlockBytes / sizeof(Inode)),
                    own);
  }
  if (Ok(st) && p.freed) {
    st = WriteDirty(kBitmapBlock, bitmap_.data(), p.bitmap);
  }
  return st;
}

// ---- BlockFsFile ------------------------------------------------------------

std::int64_t BlockFsFile::Read(std::uint64_t offset, std::span<std::byte> out) {
  const BlockFs::Inode& ino = fs_->inodes_[idx_];
  if (offset >= ino.size) {
    return 0;
  }
  const std::size_t want =
      std::min<std::uint64_t>(out.size(), ino.size - offset);
  std::size_t done = 0;
  while (done < want) {
    const std::uint64_t at = offset + done;
    const auto pos = static_cast<std::uint32_t>(at / BlockFs::kBlockBytes);
    const auto in_block = static_cast<std::uint32_t>(at % BlockFs::kBlockBytes);
    const std::size_t n = std::min<std::size_t>(want - done, BlockFs::kBlockBytes - in_block);
    std::uint32_t* slot = nullptr;
    ukarch::Status st = fs_->Slot(idx_, pos, /*alloc=*/false, &slot);
    if (Ok(st) && (slot == nullptr || *slot == 0)) {
      std::memset(out.data() + done, 0, n);  // hole reads as zeros
    } else if (Ok(st)) {
      st = fs_->ReadBytes(*slot, in_block, n, out.data() + done);
    }
    if (!Ok(st)) {
      return done > 0 ? static_cast<std::int64_t>(done) : ukarch::Raw(st);
    }
    done += n;
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t BlockFsFile::Write(std::uint64_t offset, std::span<const std::byte> in) {
  if (offset + in.size() > BlockFs::kMaxFileBytes) {
    return ukarch::Raw(ukarch::Status::kNoSpc);
  }
  std::size_t done = 0;
  ukarch::Status st = ukarch::Status::kOk;
  while (done < in.size()) {
    const std::uint64_t at = offset + done;
    const auto pos = static_cast<std::uint32_t>(at / BlockFs::kBlockBytes);
    const auto in_block = static_cast<std::uint32_t>(at % BlockFs::kBlockBytes);
    const std::size_t n =
        std::min<std::size_t>(in.size() - done, BlockFs::kBlockBytes - in_block);
    std::uint32_t* slot = nullptr;
    st = fs_->Slot(idx_, pos, /*alloc=*/true, &slot);
    if (!Ok(st)) {
      break;
    }
    const bool fresh = *slot == 0;
    const std::uint32_t blk = fresh ? fs_->AllocBlock() : *slot;
    if (blk == 0) {
      st = ukarch::Status::kNoSpc;
      break;  // out of space: report the partial write below
    }
    st = fs_->WriteBytes(blk, in_block, n, in.data() + done, fresh);
    if (!Ok(st)) {
      if (fresh) {
        fs_->FreeBlock(blk);
      }
      break;
    }
    if (fresh) {
      fs_->SetSlot(pos, slot, blk);
    }
    done += n;
  }
  BlockFs::Inode& ino = fs_->inodes_[idx_];
  if (offset + done > ino.size) {
    ino.size = offset + done;
    fs_->pending_.inode = true;
  }
  const ukarch::Status meta = fs_->SyncMeta(idx_);
  if (done == 0 && !in.empty()) {
    return ukarch::Raw(st);
  }
  return Ok(meta) ? static_cast<std::int64_t>(done)
                  : ukarch::Raw(ukarch::Status::kIo);
}

ukarch::Status BlockFsFile::Truncate(std::uint64_t size) {
  if (size > BlockFs::kMaxFileBytes) {
    return ukarch::Status::kNoSpc;
  }
  BlockFs::Inode& ino = fs_->inodes_[idx_];
  if (size == ino.size) {
    return ukarch::Status::kOk;
  }
  if (size < ino.size) {
    // Zero the old bytes past the new end of the last kept block, so a later
    // grow, or a write past the new end, reads zeros there and not old data.
    const auto pos = static_cast<std::uint32_t>(size / BlockFs::kBlockBytes);
    const auto in_block = static_cast<std::uint32_t>(size % BlockFs::kBlockBytes);
    std::uint32_t* slot = nullptr;
    ukarch::Status st = fs_->Slot(idx_, pos, /*alloc=*/false, &slot);
    if (Ok(st) && in_block != 0 && slot != nullptr && *slot != 0) {
      const std::uint64_t old_end =
          std::min<std::uint64_t>(ino.size, size - in_block + BlockFs::kBlockBytes);
      st = fs_->WriteBytes(*slot, in_block, old_end - size, nullptr);
    }
    if (Ok(st)) {
      st = fs_->FreeRange(idx_, pos + (in_block != 0 ? 1 : 0));
    }
    if (!Ok(st)) {
      return st;
    }
  }
  ino.size = size;  // growth leaves a hole; reads return zeros
  fs_->pending_.inode = true;
  return fs_->SyncMeta(idx_);
}

// ---- BlockFsDir -------------------------------------------------------------

std::int32_t BlockFsDir::Find(std::string_view name) const {
  for (std::uint32_t i = 0; i < BlockFs::kMaxInodes; ++i) {
    const BlockFs::Inode& ino = fs_->inodes_[i];
    if (ino.used != 0 &&
        std::string_view(ino.name, ino.name_len) == name) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

ukarch::Status BlockFsDir::Lookup(std::string_view name,
                                  std::shared_ptr<Node>* out) {
  const std::int32_t idx = Find(name);
  if (idx < 0) {
    return ukarch::Status::kNoEnt;
  }
  *out = std::make_shared<BlockFsFile>(fs_, static_cast<std::uint32_t>(idx));
  return ukarch::Status::kOk;
}

ukarch::Status BlockFsDir::Create(std::string_view name, NodeType ntype,
                                  std::shared_ptr<Node>* out) {
  if (ntype != NodeType::kRegular) {
    return ukarch::Status::kNoSys;  // flat namespace: no subdirectories
  }
  if (name.empty() || name.size() > BlockFs::kNameMax) {
    return ukarch::Status::kInval;
  }
  if (Find(name) >= 0) {
    return ukarch::Status::kExist;
  }
  for (std::uint32_t i = 0; i < BlockFs::kMaxInodes; ++i) {
    BlockFs::Inode& ino = fs_->inodes_[i];
    if (ino.used == 0) {
      ino = BlockFs::Inode{};
      ino.used = 1;
      ino.name_len = static_cast<std::uint8_t>(name.size());
      std::memcpy(ino.name, name.data(), name.size());
      fs_->indirect_[i].clear();
      fs_->pending_.inode = true;
      ukarch::Status st = fs_->SyncMeta(i);
      if (!Ok(st)) {
        ino.used = 0;
        return st;
      }
      *out = std::make_shared<BlockFsFile>(fs_, i);
      return ukarch::Status::kOk;
    }
  }
  return ukarch::Status::kNoSpc;
}

ukarch::Status BlockFsDir::Remove(std::string_view name) {
  const std::int32_t idx = Find(name);
  if (idx < 0) {
    return ukarch::Status::kNoEnt;
  }
  const auto i = static_cast<std::uint32_t>(idx);
  ukarch::Status st = fs_->FreeRange(i, 0);
  if (!Ok(st)) {
    return st;
  }
  fs_->inodes_[i] = BlockFs::Inode{};
  return fs_->SyncMeta(i);
}

ukarch::Status BlockFsDir::ReadDir(std::vector<DirEntry>* out) {
  out->clear();
  for (const BlockFs::Inode& ino : fs_->inodes_) {
    if (ino.used != 0) {
      out->push_back(DirEntry{std::string(ino.name, ino.name_len),
                              NodeType::kRegular});
    }
  }
  return ukarch::Status::kOk;
}

}  // namespace vfscore
