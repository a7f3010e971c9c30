// vfscore/blockfs.h - a writable filesystem over the ukblockdev queue API.
//
// This is the persistence tier's root: where ramfs keeps file bytes on the
// instance heap (wiped by every ukboot::Instance reboot), blockfs keeps them
// on a BlockDev whose backing image lives host-side and therefore *survives*
// Shutdown()+Boot(). The fleet testbed mounts one per backend at the kRootfs
// inittab stage so snapshot/AOF files written before a kill are readable by
// the reborn incarnation.
//
// On-disk layout (4 KiB blocks over 512 B sectors):
//   block 0            superblock (magic, geometry, inode count)
//   block 1            allocation bitmap (one byte per block)
//   blocks 2..3        inode table: 64 fixed slots, flat root directory
//   blocks 4..         data, addressed by 12 direct + 1 single-indirect
//                      pointer per inode (max file ≈ 4.04 MiB)
//
// Metadata is cached and written through: the superblock geometry, the
// bitmap, the inode table and each inode's indirect block (read once per
// mount, on first use) live in memory, and every call that changes them ends
// with one metadata pass that writes only the 512 B sectors it dirtied. File
// data moves at sector granularity too: a partial write to an existing block
// reads back only its partial edge sectors (at most two) and writes only the
// sectors it touches; a freshly allocated block is zero-filled and written
// whole. A remount — even from a brand-new BlockFs object after a reboot —
// reconstructs the exact tree from disk.
//
// Write order. A call that allocates writes data -> bitmap sectors ->
// indirect sectors -> the inode's own sector; a call that frees (truncate,
// unlink) writes data (the zeroed tail of a shrunk file) -> indirect sectors
// -> inode sector -> bitmap sectors. A crash between any two device writes
// can therefore leak a block, but never leaves a pointer to a free block.
// Node::Fsync issues a Request::Op::kFlush barrier, which is what
// vfscore::File::Fsync rides.
#ifndef VFSCORE_BLOCKFS_H_
#define VFSCORE_BLOCKFS_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "ukblockdev/blockdev.h"
#include "ukplat/memregion.h"
#include "vfscore/node.h"

namespace vfscore {

class BlockFs final : public FsDriver {
 public:
  static constexpr std::uint32_t kBlockBytes = 4096;
  static constexpr std::uint32_t kMaxInodes = 64;
  static constexpr std::uint32_t kNameMax = 62;
  static constexpr std::uint32_t kDirectPtrs = 12;
  static constexpr std::uint32_t kIndirectPtrs = kBlockBytes / 4;
  static constexpr std::uint64_t kMaxFileBytes =
      std::uint64_t{kDirectPtrs + kIndirectPtrs} * kBlockBytes;

  // |mem| provides the bounce buffer the block requests address (devices
  // speak guest-physical); one block is carved at construction.
  BlockFs(ukblockdev::BlockDev* dev, ukplat::MemRegion* mem);

  const char* fs_name() const override { return "blockfs"; }
  // Loads the superblock + metadata from disk. kInval when the device does
  // not carry a valid blockfs image (callers format first), or when a used
  // inode is corrupt: a name longer than kNameMax, a size past kMaxFileBytes
  // or a block pointer outside the data area.
  ukarch::Status Mount(std::shared_ptr<Node>* root) override;

  // Writes a fresh empty filesystem over the device.
  ukarch::Status Format();
  // Format() only when no valid superblock is present — the idempotent boot
  // entry point: first boot formats, reboots find their data.
  ukarch::Status EnsureFormatted();

  // Device write-cache barrier (Request::Op::kFlush through the queue).
  ukarch::Status Flush();

  std::uint32_t total_blocks() const { return total_blocks_; }
  std::uint32_t free_blocks() const;

 private:
  friend class BlockFsFile;
  friend class BlockFsDir;

  // Both records are naturally aligned with no padding (the size asserts pin
  // it), so the in-memory layout is the on-disk layout.
  struct Super {
    char magic[8];
    std::uint32_t block_bytes;
    std::uint32_t total_blocks;
    std::uint32_t inode_count;
    std::uint32_t data_start;
  };
  struct Inode {
    std::uint8_t used;
    std::uint8_t name_len;
    char name[kNameMax];
    std::uint64_t size;
    std::uint32_t direct[kDirectPtrs];
    std::uint32_t indirect;
    std::uint32_t pad;
  };
  static_assert(sizeof(Super) == 24, "the superblock has no padding");
  static_assert(sizeof(Inode) == 128, "inode slots must pack 32 per block");

  static constexpr std::uint32_t kSuperBlock = 0;
  static constexpr std::uint32_t kBitmapBlock = 1;
  static constexpr std::uint32_t kInodeStart = 2;
  static constexpr std::uint32_t kInodeBlocks =
      kMaxInodes * sizeof(Inode) / kBlockBytes;
  static constexpr std::uint32_t kDataStart = kInodeStart + kInodeBlocks;
  static constexpr char kMagic[8] = {'U', 'K', 'B', 'F', 'S', '0', '1', '\0'};

  // A byte range of one cached metadata block that the current call changed.
  struct Dirty {
    std::uint32_t lo = kBlockBytes;
    std::uint32_t hi = 0;
    void Mark(std::uint32_t at, std::uint32_t n) {
      lo = std::min(lo, at);
      hi = std::max(hi, at + n);
    }
  };
  // Everything a mutating call changed in the caches; SyncMeta writes it.
  struct Pending {
    Dirty bitmap;
    Dirty indirect;  // of the call's inode
    bool inode = false;
    bool freed = false;  // blocks were released: the bitmap goes last
  };

  // Moves sectors [first, first + count) of |block| between the device and
  // the bounce buffer, at the same offsets in the buffer as in the block
  // (a flush moves nothing).
  ukarch::Status Transfer(ukblockdev::Request::Op op, std::uint32_t block,
                          std::uint32_t first, std::uint32_t count);
  // Bytes [at, at + n) of |block|, moving only the sectors they cover. A
  // write takes |in| (zeros when null) and first reads back the partial edge
  // sectors; a |fresh| block is instead zero-filled and written whole.
  ukarch::Status ReadBytes(std::uint32_t block, std::uint32_t at, std::size_t n,
                           void* out);
  ukarch::Status WriteBytes(std::uint32_t block, std::uint32_t at, std::size_t n,
                            const void* in, bool fresh = false);
  ukarch::Status ReadBlock(std::uint32_t block, void* out) {
    return ReadBytes(block, 0, kBlockBytes, out);
  }
  ukarch::Status WriteBlock(std::uint32_t block, const void* in) {
    return WriteBytes(block, 0, kBlockBytes, in);
  }

  bool ValidPtr(std::uint32_t block) const {
    return block == 0 || (block >= kDataStart && block < total_blocks_);
  }
  bool Sane(const Inode& ino) const;

  std::uint32_t AllocBlock();            // 0 when full (0 is never a data block)
  void FreeBlock(std::uint32_t block);

  // The cached pointer slot of file block |pos| of inode |idx|, loading the
  // indirect block on first use (kIo when it cannot be read or holds an
  // out-of-range pointer). Past a missing indirect block the slot is null (a
  // hole), unless |alloc|, which allocates a zeroed indirect block.
  ukarch::Status Slot(std::uint32_t idx, std::uint32_t pos, bool alloc,
                      std::uint32_t** slot);
  // Points |slot| (file block |pos| of the call's inode) at |block|.
  void SetSlot(std::uint32_t pos, std::uint32_t* slot, std::uint32_t block);
  // Frees every data block from |first_pos| on (plus the indirect block when
  // it empties) in the caches; the caller's SyncMeta writes the result.
  ukarch::Status FreeRange(std::uint32_t idx, std::uint32_t first_pos);
  // The metadata pass that ends every mutating call on inode |idx|: writes
  // the dirtied sectors in the order the header comment gives.
  ukarch::Status SyncMeta(std::uint32_t idx);
  ukarch::Status WriteDirty(std::uint32_t block, const void* base, Dirty d);

  ukblockdev::BlockDev* dev_;
  std::uint64_t bounce_gpa_;
  std::byte* bounce_ = nullptr;
  std::uint32_t sector_bytes_ = 0;
  std::uint32_t sectors_per_block_ = 0;
  std::uint32_t total_blocks_ = 0;
  bool mounted_ = false;
  std::vector<Inode> inodes_;
  std::vector<std::uint8_t> bitmap_;
  // Per inode: its indirect block's pointers once loaded (empty before, and
  // while the inode has no indirect block).
  std::vector<std::vector<std::uint32_t>> indirect_;
  Pending pending_;
};

}  // namespace vfscore

#endif  // VFSCORE_BLOCKFS_H_
