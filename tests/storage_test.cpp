// Tests for the storage stack: block devices (ramdisk + virtio-blk over real
// rings), vfscore path resolution and file semantics, ramfs, SHFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "block_harness.h"
#include "shfs/shfs.h"
#include "ukalloc/registry.h"
#include "ukblockdev/ramdisk.h"
#include "ukblockdev/virtio_blk.h"
#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "vfscore/blockfs.h"
#include "vfscore/ramfs.h"
#include "vfscore/vfs.h"

namespace {

using namespace ukblockdev;

std::span<const std::byte> AsBytes(std::string_view s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// ---- block devices ------------------------------------------------------------

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() : mem_(8 << 20) { buf_gpa_ = mem_.Carve(64 * 1024, 512); }
  ukplat::MemRegion mem_;
  ukplat::Clock clock_;
  std::uint64_t buf_gpa_ = 0;
};

TEST_F(BlockTest, RamDiskWriteReadRoundTrip) {
  RamDisk disk(&mem_, /*sectors=*/128);
  const char payload[512] = "sector payload";
  mem_.CopyIn(buf_gpa_, std::as_bytes(std::span(payload)));

  Request wr{Request::Op::kWrite, 5, 1, buf_gpa_};
  ASSERT_EQ(SubmitAndWait(disk, &wr), 0);

  std::uint64_t buf2 = mem_.Carve(512, 512);
  Request rd{Request::Op::kRead, 5, 1, buf2};
  ASSERT_EQ(SubmitAndWait(disk, &rd), 0);
  char readback[512];
  mem_.CopyOut(buf2, std::as_writable_bytes(std::span(readback)));
  EXPECT_STREQ(readback, "sector payload");
}

TEST_F(BlockTest, RamDiskRejectsOutOfRange) {
  RamDisk disk(&mem_, 16);
  Request rd{Request::Op::kRead, 15, 4, buf_gpa_};
  EXPECT_EQ(SubmitAndWait(disk, &rd), ukarch::Raw(ukarch::Status::kInval));
}

TEST_F(BlockTest, CompletionHandlerInvoked) {
  RamDisk disk(&mem_, 16);
  int completions = 0;
  disk.SetCompletionHandler([&](Request* r) { ++completions; });
  Request rd{Request::Op::kRead, 0, 1, buf_gpa_};
  ASSERT_TRUE(disk.Submit(&rd));
  disk.ProcessCompletions(SIZE_MAX);
  EXPECT_EQ(completions, 1);
}

// The result is published by ProcessCompletions, not by Submit: a request
// that looked done at Submit was never reaped, so the device kept a pointer
// to it long after the submitter's stack frame was gone.
TEST_F(BlockTest, RamDiskRequestStaysPendingUntilReaped) {
  RamDisk disk(&mem_, 16);
  Request rd{Request::Op::kRead, 0, 1, buf_gpa_};
  ASSERT_TRUE(disk.Submit(&rd));
  EXPECT_FALSE(rd.done());
  EXPECT_EQ(disk.ProcessCompletions(SIZE_MAX), 1u);
  EXPECT_TRUE(rd.done());
  EXPECT_EQ(rd.result, 0);
  EXPECT_EQ(SubmitAndWait(disk, &rd), 0);  // reuses the completed request
  EXPECT_EQ(disk.ProcessCompletions(SIZE_MAX), 0u);  // nothing left behind
}

TEST_F(BlockTest, VirtioBlkRoundTripThroughRing) {
  std::uint16_t qsize = 8;
  std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(qsize), 16);
  VirtioBlk disk(&mem_, &clock_, ring, qsize, /*sectors=*/256);

  char payload[1024];
  std::memset(payload, 0x42, sizeof(payload));
  mem_.CopyIn(buf_gpa_, std::as_bytes(std::span(payload)));
  Request wr{Request::Op::kWrite, 10, 2, buf_gpa_};
  ASSERT_EQ(SubmitAndWait(disk, &wr), 0);
  EXPECT_EQ(disk.backing()[10 * 512], 0x42);
  EXPECT_GE(disk.kicks(), 1u);
  EXPECT_GE(disk.irqs(), 1u);

  std::uint64_t buf2 = mem_.Carve(1024, 512);
  Request rd{Request::Op::kRead, 10, 2, buf2};
  ASSERT_EQ(SubmitAndWait(disk, &rd), 0);
  std::uint8_t readback[1024];
  mem_.CopyOut(buf2, std::as_writable_bytes(std::span(readback)));
  EXPECT_EQ(readback[0], 0x42);
  EXPECT_EQ(readback[1023], 0x42);
}

TEST_F(BlockTest, VirtioBlkOutOfRangeReportsIoError) {
  std::uint16_t qsize = 4;
  std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(qsize), 16);
  VirtioBlk disk(&mem_, &clock_, ring, qsize, 8);
  Request rd{Request::Op::kRead, 100, 1, buf_gpa_};
  EXPECT_EQ(SubmitAndWait(disk, &rd), ukarch::Raw(ukarch::Status::kIo));
}

TEST_F(BlockTest, VirtioBlkFlush) {
  std::uint16_t qsize = 4;
  std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(qsize), 16);
  VirtioBlk disk(&mem_, &clock_, ring, qsize, 8);
  Request fl{Request::Op::kFlush, 0, 0, 0};
  EXPECT_EQ(SubmitAndWait(disk, &fl), 0);
}

TEST_F(BlockTest, VirtioBlkChargesExitCosts) {
  std::uint16_t qsize = 4;
  std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(qsize), 16);
  VirtioBlk disk(&mem_, &clock_, ring, qsize, 64);
  std::uint64_t before = clock_.cycles();
  Request rd{Request::Op::kRead, 0, 1, buf_gpa_};
  SubmitAndWait(disk, &rd);
  EXPECT_GE(clock_.cycles() - before,
            clock_.model().vm_exit + clock_.model().irq_inject);
}

// The device half checks a chain's shape before touching its segments. A
// guest can publish any chain on the ring: a one-segment read chain used to
// index past the segment list, and a two-segment one had the disk data
// copied over the buffer the device then treated as the status byte.
TEST_F(BlockTest, VirtioBlkRejectsMisshapenChains) {
  constexpr std::uint16_t kQsize = 8;
  const std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(kQsize), 16);
  VirtioBlk disk(&mem_, &clock_, ring, kQsize, /*sectors=*/8);
  std::fill(disk.backing().begin(), disk.backing().end(), 0x42);
  // A guest-side view of the same rings, to publish chains no driver builds.
  ukplat::Virtqueue guest(&mem_, ring, kQsize);
  struct Hdr {
    std::uint32_t type;
    std::uint32_t reserved;
    std::uint64_t sector;
  };
  constexpr std::uint32_t kRead = 0;
  constexpr std::uint32_t kFlush = 4;
  const std::uint64_t hdr_gpa = mem_.Carve(sizeof(Hdr), 16);
  const std::uint64_t data_gpa = buf_gpa_;
  const std::uint64_t status_gpa = mem_.Carve(16, 16);
  constexpr std::uint64_t kNowhere = ~0ull;  // no usable status byte
  struct Case {
    const char* what;
    std::uint32_t type;
    std::vector<ukplat::Virtqueue::Segment> segs;
    std::uint64_t status_at;  // where the status byte must land
    std::uint32_t used_len;
    std::uint64_t sector = 0;
  };
  const Case cases[] = {
      {"read, header only (writable)", kRead, {{hdr_gpa, sizeof(Hdr), true}}, hdr_gpa, 1},
      {"read, header only (read-only)", kRead, {{hdr_gpa, sizeof(Hdr), false}}, kNowhere, 0},
      {"read, header + data", kRead,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, true}}, data_gpa, 1},
      {"read, header + read-only status", kRead,
       {{hdr_gpa, sizeof(Hdr), false}, {status_gpa, 1, false}}, kNowhere, 0},
      {"read, read-only data", kRead,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, false}, {status_gpa, 1, true}},
       status_gpa, 1},
      {"read, empty status", kRead,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, true}, {status_gpa, 0, true}},
       kNowhere, 0},
      {"flush with a data segment", kFlush,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, true}, {status_gpa, 1, true}},
       status_gpa, 1},
      {"unknown request type", 7,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, true}, {status_gpa, 1, true}},
       status_gpa, 1},
      {"read, sector that wraps to offset 0", kRead,
       {{hdr_gpa, sizeof(Hdr), false}, {data_gpa, 512, true}, {status_gpa, 1, true}},
       status_gpa, 1, /*sector=*/1ull << 55},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    mem_.Write(hdr_gpa, Hdr{c.type, 0, c.sector});
    std::vector<std::uint8_t> junk(512, 0xee);
    mem_.CopyIn(data_gpa, std::as_bytes(std::span(junk)));
    mem_.Write<std::uint8_t>(status_gpa, 0xee);
    ASSERT_TRUE(guest.Enqueue(c.segs, nullptr));
    disk.ProcessCompletions(0);  // runs the device half; reaps nothing
    auto used = guest.DequeueCompletion();
    ASSERT_TRUE(used.has_value());
    EXPECT_EQ(used->written, c.used_len);
    if (c.status_at != kNowhere) {
      EXPECT_EQ(mem_.Read<std::uint8_t>(c.status_at), 1u);  // VIRTIO_BLK_S_IOERR
    }
    EXPECT_EQ(mem_.Read<std::uint8_t>(status_gpa),
              c.status_at == status_gpa ? 1u : 0xeeu);
    // No disk byte reached the guest, and nothing was written to the disk.
    std::uint8_t data[512];
    mem_.CopyOut(data_gpa, std::as_writable_bytes(std::span(data)));
    EXPECT_EQ(std::count(data + 1, data + 512, 0xee), 511);
    EXPECT_EQ(data[0], c.status_at == data_gpa ? 1u : 0xeeu);
    EXPECT_EQ(std::count(disk.backing().begin(), disk.backing().end(), 0x42),
              static_cast<std::ptrdiff_t>(disk.backing().size()));
  }
  EXPECT_EQ(disk.flushes(), 0u);
  EXPECT_EQ(guest.bad_chains(), 0u);
}

// ---- vfscore + ramfs ------------------------------------------------------------

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() : heap_(new std::byte[kHeap]) {
    alloc_ = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, heap_.get(), kHeap);
    ramfs_ = std::make_unique<vfscore::RamFs>(alloc_.get());
    EXPECT_TRUE(Ok(vfs_.Mount("/", ramfs_.get())));
  }

  static constexpr std::size_t kHeap = 8 << 20;
  std::unique_ptr<std::byte[]> heap_;
  std::unique_ptr<ukalloc::Allocator> alloc_;
  std::unique_ptr<vfscore::RamFs> ramfs_;
  vfscore::Vfs vfs_;
};

TEST_F(VfsTest, CreateWriteReadFile) {
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/hello.txt", vfscore::kWrite | vfscore::kCreate, &f)));
  EXPECT_EQ(f->Write(AsBytes("hello vfs")), 9);

  std::shared_ptr<vfscore::File> g;
  ASSERT_TRUE(Ok(vfs_.Open("/hello.txt", vfscore::kRead, &g)));
  char buf[64] = {};
  EXPECT_EQ(g->Read(std::as_writable_bytes(std::span(buf))), 9);
  EXPECT_STREQ(buf, "hello vfs");
}

TEST_F(VfsTest, NestedDirectories) {
  ASSERT_TRUE(Ok(vfs_.Mkdir("/a")));
  ASSERT_TRUE(Ok(vfs_.Mkdir("/a/b")));
  ASSERT_TRUE(Ok(vfs_.Mkdir("/a/b/c")));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/a/b/c/deep.txt", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  vfscore::NodeStat st;
  ASSERT_TRUE(Ok(vfs_.Stat("/a/b/c/deep.txt", &st)));
  EXPECT_EQ(st.size, 1u);
  EXPECT_EQ(st.type, vfscore::NodeType::kRegular);
}

TEST_F(VfsTest, PathNormalization) {
  ASSERT_TRUE(Ok(vfs_.Mkdir("/dir")));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("//dir/../dir/./f.txt",
                           vfscore::kWrite | vfscore::kCreate, &f)));
  vfscore::NodeStat st;
  EXPECT_TRUE(Ok(vfs_.Stat("/dir/f.txt", &st)));
}

TEST_F(VfsTest, ErrnoSemantics) {
  vfscore::NodeStat st;
  EXPECT_EQ(vfs_.Stat("/missing", &st), ukarch::Status::kNoEnt);
  ASSERT_TRUE(Ok(vfs_.Mkdir("/d")));
  EXPECT_EQ(vfs_.Mkdir("/d"), ukarch::Status::kExist);
  std::shared_ptr<vfscore::File> f;
  EXPECT_EQ(vfs_.Open("/missing", vfscore::kRead, &f), ukarch::Status::kNoEnt);
  // Writing a directory is EISDIR.
  EXPECT_EQ(vfs_.Open("/d", vfscore::kWrite, &f), ukarch::Status::kIsDir);
  // Unlinking a non-empty directory is ENOTEMPTY.
  ASSERT_TRUE(Ok(vfs_.Open("/d/x", vfscore::kWrite | vfscore::kCreate, &f)));
  EXPECT_EQ(vfs_.Unlink("/d"), ukarch::Status::kNotEmpty);
  EXPECT_TRUE(Ok(vfs_.Unlink("/d/x")));
  EXPECT_TRUE(Ok(vfs_.Unlink("/d")));
}

TEST_F(VfsTest, ExclCreateFailsOnExisting) {
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/x", vfscore::kWrite | vfscore::kCreate, &f)));
  std::shared_ptr<vfscore::File> g;
  EXPECT_EQ(vfs_.Open("/x", vfscore::kWrite | vfscore::kCreate | vfscore::kExcl, &g),
            ukarch::Status::kExist);
}

TEST_F(VfsTest, TruncateAndAppend) {
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/t", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("0123456789"));
  // O_TRUNC re-open wipes content.
  std::shared_ptr<vfscore::File> g;
  ASSERT_TRUE(Ok(vfs_.Open("/t", vfscore::kWrite | vfscore::kTrunc, &g)));
  vfscore::NodeStat st;
  vfs_.Stat("/t", &st);
  EXPECT_EQ(st.size, 0u);
  // O_APPEND writes at the end regardless of offset.
  std::shared_ptr<vfscore::File> h;
  ASSERT_TRUE(Ok(vfs_.Open("/t", vfscore::kWrite | vfscore::kAppend, &h)));
  h->Write(AsBytes("ab"));
  h->Write(AsBytes("cd"));
  vfs_.Stat("/t", &st);
  EXPECT_EQ(st.size, 4u);
}

TEST_F(VfsTest, SeekWhence) {
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/s", vfscore::kWrite | vfscore::kRead | vfscore::kCreate, &f)));
  f->Write(AsBytes("abcdefgh"));
  EXPECT_EQ(f->Seek(2, vfscore::File::Whence::kSet), 2);
  char c;
  f->Read(std::as_writable_bytes(std::span(&c, 1)));
  EXPECT_EQ(c, 'c');
  EXPECT_EQ(f->Seek(-1, vfscore::File::Whence::kEnd), 7);
  f->Read(std::as_writable_bytes(std::span(&c, 1)));
  EXPECT_EQ(c, 'h');
  EXPECT_EQ(f->Seek(-100, vfscore::File::Whence::kCur),
            ukarch::Raw(ukarch::Status::kInval));
}

TEST_F(VfsTest, LargeFileSpansChunks) {
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/big", vfscore::kWrite | vfscore::kRead | vfscore::kCreate, &f)));
  std::vector<std::byte> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  EXPECT_EQ(f->Write(std::span<const std::byte>(data)), 20000);
  f->Seek(0, vfscore::File::Whence::kSet);
  std::vector<std::byte> back(20000);
  EXPECT_EQ(f->Read(std::span<std::byte>(back)), 20000);
  EXPECT_EQ(data, back);
  // Sparse read past EOF returns 0.
  EXPECT_EQ(f->Read(std::span<std::byte>(back)), 0);
}

TEST_F(VfsTest, ReadDirLists) {
  vfs_.Mkdir("/dir");
  std::shared_ptr<vfscore::File> f;
  vfs_.Open("/dir/one", vfscore::kWrite | vfscore::kCreate, &f);
  vfs_.Open("/dir/two", vfscore::kWrite | vfscore::kCreate, &f);
  std::vector<vfscore::DirEntry> entries;
  ASSERT_TRUE(Ok(vfs_.ReadDir("/dir", &entries)));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "one");
  EXPECT_EQ(entries[1].name, "two");
}

TEST_F(VfsTest, SecondMountLongestPrefixWins) {
  auto ramfs2 = std::make_unique<vfscore::RamFs>(alloc_.get());
  ASSERT_TRUE(Ok(vfs_.Mkdir("/mnt")));
  ASSERT_TRUE(Ok(vfs_.Mount("/mnt", ramfs2.get())));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/mnt/inner", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("inner fs"));
  // The file lives in ramfs2, not in the root fs's /mnt directory.
  std::vector<vfscore::DirEntry> entries;
  ASSERT_TRUE(Ok(vfs_.ReadDir("/mnt", &entries)));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "inner");
  ASSERT_TRUE(Ok(vfs_.Unmount("/mnt")));
  ASSERT_TRUE(Ok(vfs_.ReadDir("/mnt", &entries)));
  EXPECT_TRUE(entries.empty());
}

TEST_F(VfsTest, FileDataComesFromInstanceHeap) {
  std::uint64_t used_before = alloc_->stats().bytes_in_use;
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs_.Open("/heapfile", vfscore::kWrite | vfscore::kCreate, &f)));
  std::vector<std::byte> data(64 * 1024);
  f->Write(std::span<const std::byte>(data));
  EXPECT_GE(alloc_->stats().bytes_in_use - used_before, 64u * 1024);
  ASSERT_TRUE(Ok(vfs_.Unlink("/heapfile")));
  f.reset();  // last handle drops the node and frees the chunks
  EXPECT_LT(alloc_->stats().bytes_in_use - used_before, 4096u);
}

// ---- SHFS -----------------------------------------------------------------------

TEST(ShfsTest, OpenByNameHitAndMiss) {
  shfs::Shfs::Builder builder;
  builder.Add("index.html", {'h', 'i'});
  builder.Add("logo.png", std::vector<std::uint8_t>(1000, 7));
  auto fs = builder.Build();
  auto hit = fs->Open("index.html");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data.size(), 2u);
  EXPECT_FALSE(fs->Open("missing.html").has_value());
}

TEST(ShfsTest, ReadChunks) {
  shfs::Shfs::Builder builder;
  std::vector<std::uint8_t> content(10000);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i);
  }
  builder.Add("data.bin", content);
  auto fs = builder.Build();
  auto h = fs->Open("data.bin");
  ASSERT_TRUE(h.has_value());
  std::uint8_t buf[256];
  EXPECT_EQ(shfs::Shfs::Read(*h, 5000, std::span(buf)), 256u);
  EXPECT_EQ(buf[0], static_cast<std::uint8_t>(5000));
  // Short read at EOF.
  EXPECT_EQ(shfs::Shfs::Read(*h, 9990, std::span(buf)), 10u);
  EXPECT_EQ(shfs::Shfs::Read(*h, 20000, std::span(buf)), 0u);
}

TEST(ShfsTest, CollisionChainsStayCorrect) {
  // Tiny bucket table forces collisions; lookups must still be exact.
  shfs::Shfs::Builder builder(/*bucket_count=*/2);
  for (int i = 0; i < 50; ++i) {
    std::string name = "file" + std::to_string(i);
    builder.Add(name, {static_cast<std::uint8_t>(i)});
  }
  auto fs = builder.Build();
  EXPECT_GE(fs->MaxChainLength(), 20u);
  for (int i = 0; i < 50; ++i) {
    auto h = fs->Open("file" + std::to_string(i));
    ASSERT_TRUE(h.has_value()) << i;
    EXPECT_EQ(h->data[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_FALSE(fs->Open("file50").has_value());
}

TEST(ShfsTest, VfsAdapterServesSameContent) {
  shfs::Shfs::Builder builder;
  builder.Add("page.html", {'<', 'p', '>'});
  auto volume = builder.Build();
  shfs::ShfsVfsDriver driver(volume.get());
  driver.SetNameIndex({"page.html"});

  vfscore::Vfs vfs;
  ASSERT_TRUE(Ok(vfs.Mount("/", &driver)));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/page.html", vfscore::kRead, &f)));
  char buf[8] = {};
  EXPECT_EQ(f->Read(std::as_writable_bytes(std::span(buf))), 3);
  EXPECT_EQ(buf[0], '<');
  // Read-only: writes are rejected at open or at write.
  std::shared_ptr<vfscore::File> w;
  ASSERT_TRUE(Ok(vfs.Open("/page.html", vfscore::kRead | vfscore::kWrite, &w)));
  EXPECT_LT(w->Write(AsBytes("x")), 0);
}

// ---- blockfs: the writable, durable filesystem over ukblockdev ------------------

class BlockFsTest : public ::testing::Test {
 protected:
  BlockFsTest() : mem_(8 << 20), disk_(&mem_, /*sectors=*/4096) {}

  // Builds a fresh filesystem object over the (persistent) disk and mounts
  // it at /persist — exactly what a reboot does.
  std::unique_ptr<vfscore::BlockFs> MountFresh(vfscore::Vfs* vfs) {
    auto fs = std::make_unique<vfscore::BlockFs>(&disk_, &mem_);
    EXPECT_TRUE(Ok(fs->EnsureFormatted()));
    EXPECT_TRUE(Ok(vfs->Mount("/persist", fs.get())));
    return fs;
  }

  ukplat::MemRegion mem_;
  ukplat::Clock clock_;
  RamDisk disk_;
};

TEST_F(BlockFsTest, FormatMountWriteRead) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/hello", vfscore::kWrite | vfscore::kCreate, &f)));
  EXPECT_EQ(f->Write(AsBytes("durable bytes")), 13);
  std::shared_ptr<vfscore::File> r;
  ASSERT_TRUE(Ok(vfs.Open("/persist/hello", vfscore::kRead, &r)));
  char buf[32] = {};
  EXPECT_EQ(r->Read(std::as_writable_bytes(std::span(buf))), 13);
  EXPECT_STREQ(buf, "durable bytes");
}

TEST_F(BlockFsTest, DataSurvivesRemountFromFreshObject) {
  {
    vfscore::Vfs vfs;
    auto fs = MountFresh(&vfs);
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(Ok(vfs.Open("/persist/a", vfscore::kWrite | vfscore::kCreate, &f)));
    EXPECT_EQ(f->Write(AsBytes("first life")), 10);
    vfs.Unmount("/persist");
  }
  // New BlockFs object, same disk: the reboot path. EnsureFormatted must NOT
  // reformat, and the file content must come back from the device.
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> r;
  ASSERT_TRUE(Ok(vfs.Open("/persist/a", vfscore::kRead, &r)));
  char buf[16] = {};
  EXPECT_EQ(r->Read(std::as_writable_bytes(std::span(buf))), 10);
  EXPECT_STREQ(buf, "first life");
}

TEST_F(BlockFsTest, LargeFileSpansIndirectBlocks) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  // > 12 direct blocks (48 KiB) forces the single-indirect pointer path.
  std::string big(80 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 17));
  }
  {
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(Ok(vfs.Open("/persist/big", vfscore::kWrite | vfscore::kCreate, &f)));
    ASSERT_EQ(f->Write(AsBytes(big)), static_cast<std::int64_t>(big.size()));
    vfs.Unmount("/persist");
  }
  vfscore::Vfs vfs2;
  auto fs2 = MountFresh(&vfs2);
  std::shared_ptr<vfscore::File> r;
  ASSERT_TRUE(Ok(vfs2.Open("/persist/big", vfscore::kRead, &r)));
  std::string back(big.size(), '\0');
  EXPECT_EQ(r->Read(std::as_writable_bytes(std::span(back.data(), back.size()))),
            static_cast<std::int64_t>(big.size()));
  EXPECT_EQ(back, big);
}

TEST_F(BlockFsTest, TruncateFreesAndUnlinkReclaims) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  const std::uint32_t free_before = fs->free_blocks();
  std::string data(40 * 1024, 'z');
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/t", vfscore::kWrite | vfscore::kCreate, &f)));
  ASSERT_EQ(f->Write(AsBytes(data)), static_cast<std::int64_t>(data.size()));
  EXPECT_LT(fs->free_blocks(), free_before);
  ASSERT_TRUE(Ok(f->node().Truncate(100)));
  vfscore::NodeStat st;
  ASSERT_TRUE(Ok(vfs.Stat("/persist/t", &st)));
  EXPECT_EQ(st.size, 100u);
  ASSERT_TRUE(Ok(vfs.Unlink("/persist/t")));
  EXPECT_EQ(fs->free_blocks(), free_before);  // every block reclaimed
}

TEST_F(BlockFsTest, MountRejectsUnformattedDevice) {
  vfscore::BlockFs fs(&disk_, &mem_);
  std::shared_ptr<vfscore::Node> root;
  EXPECT_EQ(fs.Mount(&root), ukarch::Status::kInval);  // no magic yet
}

// A shrink must not leave the old bytes past the new end in the last kept
// block: a later grow, or a write past the new end, would expose them.
TEST_F(BlockFsTest, ShrinkThenGrowReadsZerosPastTheOldEnd) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/t", vfscore::kWrite | vfscore::kRead | vfscore::kCreate, &f)));
  const std::string data(8192, 'z');
  ASSERT_EQ(f->Write(AsBytes(data)), 8192);
  ASSERT_TRUE(Ok(f->node().Truncate(100)));
  ASSERT_TRUE(Ok(f->node().Truncate(4096)));
  std::string back(4096, '?');
  ASSERT_EQ(f->ReadAt(0, std::as_writable_bytes(std::span(back.data(), back.size()))), 4096);
  EXPECT_EQ(back[99], 'z');
  EXPECT_EQ(back[200], '\0');
  EXPECT_EQ(back.find_first_not_of('\0', 100), std::string::npos);
}

TEST_F(BlockFsTest, ShrinkThenWritePastTheEndReadsZerosInTheGap) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/t", vfscore::kWrite | vfscore::kRead | vfscore::kCreate, &f)));
  ASSERT_EQ(f->Write(AsBytes(std::string(8192, 'z'))), 8192);
  ASSERT_TRUE(Ok(f->node().Truncate(100)));
  ASSERT_EQ(f->WriteAt(300, AsBytes("x")), 1);
  // Both on this mount and from the device after a remount.
  for (int pass = 0; pass < 2; ++pass) {
    std::string back(301, '?');
    ASSERT_EQ(f->ReadAt(0, std::as_writable_bytes(std::span(back.data(), back.size()))), 301);
    EXPECT_EQ(back.substr(0, 100), std::string(100, 'z'));
    EXPECT_EQ(back.substr(100, 200), std::string(200, '\0'));
    EXPECT_EQ(back[300], 'x');
    vfs.Unmount("/persist");
    fs = MountFresh(&vfs);
    ASSERT_TRUE(Ok(vfs.Open("/persist/t", vfscore::kRead, &f)));
  }
}

// A used inode whose fields point outside its slot or the data area must be
// refused at mount (name_len indexes a 62-byte array; pointers index the
// device), and a corrupt indirect block must fail the I/O, not read as a hole.
TEST_F(BlockFsTest, MountRejectsCorruptInodes) {
  using blockharness::DiskImage;
  std::uint32_t total = 0;
  {
    vfscore::Vfs vfs;
    auto fs = MountFresh(&vfs);
    total = fs->total_blocks();
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(Ok(vfs.Open("/persist/big", vfscore::kWrite | vfscore::kCreate, &f)));
    ASSERT_EQ(f->Write(AsBytes(std::string(60 * 1024, 'b'))), 60 * 1024);
  }
  const std::vector<std::uint8_t> pristine = disk_.backing();
  const DiskImage::Inode big = DiskImage(pristine).inode(0);
  ASSERT_TRUE(big.used);
  ASSERT_NE(big.indirect, 0u);

  auto put = [this](std::size_t at, std::uint64_t v, std::size_t n) {
    std::memcpy(&disk_.backing()[at], &v, n);
  };
  const std::size_t slot0 = DiskImage::InodeAt(0);
  const std::size_t slot63 = DiskImage::InodeAt(63);
  const std::vector<std::function<void()>> corruptions = {
      [&] { put(slot0 + DiskImage::kNameLenField, 63, 1); },
      [&] {  // the last slot: name_len 255 would read past the inode table
        put(slot63, 1, 1);
        put(slot63 + DiskImage::kNameLenField, 255, 1);
      },
      [&] { put(slot0 + DiskImage::kSizeField, vfscore::BlockFs::kMaxFileBytes + 1, 8); },
      [&] { put(slot0 + DiskImage::kDirectField, DiskImage::kBitmapBlock, 4); },
      [&] { put(slot0 + DiskImage::kDirectField + 4 * 3, total, 4); },
      [&] { put(slot0 + DiskImage::kIndirectField, DiskImage::kInodeStart, 4); },
      [&] { put(slot0 + DiskImage::kIndirectField, 0xFFFFFFFFu, 4); },
  };
  for (std::size_t c = 0; c < corruptions.size(); ++c) {
    SCOPED_TRACE("corruption " + std::to_string(c));
    disk_.backing() = pristine;
    corruptions[c]();
    vfscore::BlockFs fs(&disk_, &mem_);
    std::shared_ptr<vfscore::Node> root;
    EXPECT_EQ(fs.Mount(&root), ukarch::Status::kInval);
  }

  // A bad pointer inside the indirect block mounts (it is loaded on first
  // use) but fails every transfer that needs it.
  disk_.backing() = pristine;
  put(std::size_t{big.indirect} * DiskImage::kBlockBytes + 4, 1, 4);
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/big", vfscore::kWrite | vfscore::kRead, &f)));
  char buf[16];
  EXPECT_EQ(f->ReadAt(0, std::as_writable_bytes(std::span(buf))), 16);  // direct
  EXPECT_EQ(f->ReadAt(13 * 4096, std::as_writable_bytes(std::span(buf))),
            ukarch::Raw(ukarch::Status::kIo));
  EXPECT_EQ(f->WriteAt(13 * 4096, AsBytes("x")), ukarch::Raw(ukarch::Status::kIo));
}

// ---- blockfs I/O counts: cached indirect block, sector-granular transfers ----------

class BlockFsIoTest : public BlockFsTest {
 protected:
  using Op = ukblockdev::Request::Op;
  static constexpr std::uint64_t kSectorsPerBlock = 8;

  BlockFsIoTest() : dev_(&disk_) {}

  std::unique_ptr<vfscore::BlockFs> MountCounted(vfscore::Vfs* vfs) {
    auto fs = std::make_unique<vfscore::BlockFs>(&dev_, &mem_);
    EXPECT_TRUE(Ok(fs->EnsureFormatted()));
    EXPECT_TRUE(Ok(vfs->Mount("/persist", fs.get())));
    return fs;
  }
  // Requests of |op| touching |block|.
  std::size_t OnBlock(Op op, std::uint32_t block) const {
    return dev_.Count(op, block * kSectorsPerBlock, (block + 1) * kSectorsPerBlock);
  }
  std::uint64_t SectorsRead() const {
    std::uint64_t n = 0;
    for (const auto& io : dev_.log) {
      n += io.op == Op::kRead ? io.count : 0;
    }
    return n;
  }

  blockharness::RecordingBlockDev dev_;
};

TEST_F(BlockFsIoTest, AppendToAnIndirectFileReadsOnlyItsEdgeSectors) {
  using blockharness::DiskImage;
  const std::size_t size = 80 * 1024 + 300;  // ends mid-sector in block 20
  {
    vfscore::Vfs vfs;
    auto fs = MountCounted(&vfs);
    std::shared_ptr<vfscore::File> f;
    ASSERT_TRUE(Ok(vfs.Open("/persist/log", vfscore::kWrite | vfscore::kCreate, &f)));
    ASSERT_EQ(f->Write(AsBytes(std::string(size, 'a'))), static_cast<std::int64_t>(size));
  }
  const std::uint32_t indirect = DiskImage(disk_.backing()).inode(0).indirect;
  ASSERT_NE(indirect, 0u);

  // Reboot: a fresh object loads the indirect block once, on first use.
  vfscore::Vfs vfs;
  auto fs = MountCounted(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/log", vfscore::kWrite | vfscore::kAppend, &f)));
  dev_.log.clear();
  ASSERT_EQ(f->Write(AsBytes(std::string(1024, 'b'))), 1024);
  EXPECT_EQ(OnBlock(Op::kRead, indirect), 1u);

  // Steady state: no indirect read; only the partial head and tail sectors
  // of the 1 KiB range are read back, and only the sectors it covers go out.
  dev_.log.clear();
  ASSERT_EQ(f->Write(AsBytes(std::string(1024, 'c'))), 1024);
  EXPECT_EQ(OnBlock(Op::kRead, indirect), 0u);
  EXPECT_LE(SectorsRead(), 2u);
  EXPECT_EQ(dev_.Count(Op::kRead), 2u);
  // Data (sectors 5..7 of the block: bytes 2348..3371), then the inode sector.
  ASSERT_EQ(dev_.Count(Op::kWrite), 2u);
  EXPECT_EQ(dev_.log.back().count, 1u);
  EXPECT_EQ(OnBlock(Op::kWrite, indirect), 0u);
  EXPECT_EQ(OnBlock(Op::kWrite, DiskImage::kBitmapBlock), 0u);

  std::string back(size + 2048, '?');
  ASSERT_TRUE(Ok(vfs.Open("/persist/log", vfscore::kRead, &f)));
  ASSERT_EQ(f->Read(std::as_writable_bytes(std::span(back.data(), back.size()))),
            static_cast<std::int64_t>(back.size()));
  EXPECT_EQ(back, std::string(size, 'a') + std::string(1024, 'b') + std::string(1024, 'c'));
}

TEST_F(BlockFsIoTest, FreshBlockAppendWritesBitmapAndInodeOnce) {
  using blockharness::DiskImage;
  vfscore::Vfs vfs;
  auto fs = MountCounted(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/log", vfscore::kWrite | vfscore::kCreate | vfscore::kAppend, &f)));
  ASSERT_EQ(f->Write(AsBytes(std::string(13 * 4096, 'a'))), 13 * 4096);  // indirect in use
  const std::uint32_t indirect = DiskImage(disk_.backing()).inode(0).indirect;
  ASSERT_NE(indirect, 0u);

  // Each append starts a fresh block: a short one, then (after filling that
  // block) a whole one.
  const auto append_fresh = [&](std::size_t len) {
    SCOPED_TRACE(len);
    dev_.log.clear();
    ASSERT_EQ(f->Write(AsBytes(std::string(len, 'n'))), static_cast<std::int64_t>(len));
    EXPECT_EQ(dev_.Count(Op::kRead), 0u);  // a fresh block is never read back
    // Data (the whole block), then one sector each of bitmap, indirect block
    // and inode table, in that order.
    ASSERT_EQ(dev_.log.size(), 4u);
    EXPECT_EQ(dev_.log[0].count, kSectorsPerBlock);
    EXPECT_EQ(OnBlock(Op::kWrite, DiskImage::kBitmapBlock), 1u);
    EXPECT_EQ(dev_.log[1].sector / kSectorsPerBlock, DiskImage::kBitmapBlock);
    EXPECT_EQ(dev_.log[2].sector / kSectorsPerBlock, indirect);
    EXPECT_EQ(dev_.Count(Op::kWrite, DiskImage::kInodeStart * kSectorsPerBlock,
                         DiskImage::kDataStart * kSectorsPerBlock),
              1u);
    EXPECT_EQ(dev_.log[3].sector / kSectorsPerBlock, DiskImage::kInodeStart);
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(dev_.log[i].count, 1u);
    }
  };
  append_fresh(100);
  ASSERT_EQ(f->Write(AsBytes(std::string(4096 - 100, 'f'))), 4096 - 100);
  append_fresh(4096);
}

// ---- blockfs crash consistency: power cut at every device write ----------------

struct FsOp {
  enum Kind { kCreate, kWrite, kTruncate, kUnlink } kind;
  const char* file;
  std::uint64_t at = 0;   // write offset, or the truncate size
  std::size_t len = 0;
  char byte = 0;
};
using FsModel = std::map<std::string, std::string>;

void ApplyToModel(const FsOp& op, FsModel* m) {
  std::string& data = (*m)[op.file];
  switch (op.kind) {
    case FsOp::kCreate:
      break;
    case FsOp::kWrite:
      if (data.size() < op.at + op.len) {
        data.resize(op.at + op.len, '\0');
      }
      std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(op.at), op.len, op.byte);
      break;
    case FsOp::kTruncate:
      data.resize(op.at, '\0');
      break;
    case FsOp::kUnlink:
      m->erase(op.file);
      break;
  }
}

void ApplyToFs(const FsOp& op, vfscore::Vfs* vfs) {
  const std::string path = std::string("/persist/") + op.file;
  std::shared_ptr<vfscore::File> f;
  switch (op.kind) {
    case FsOp::kCreate:
      ASSERT_TRUE(Ok(vfs->Open(path, vfscore::kWrite | vfscore::kCreate, &f)));
      break;
    case FsOp::kWrite:
      ASSERT_TRUE(Ok(vfs->Open(path, vfscore::kWrite, &f)));
      ASSERT_EQ(f->WriteAt(op.at, AsBytes(std::string(op.len, op.byte))),
                static_cast<std::int64_t>(op.len));
      break;
    case FsOp::kTruncate:
      ASSERT_TRUE(Ok(vfs->Open(path, vfscore::kWrite, &f)));
      ASSERT_TRUE(Ok(f->node().Truncate(op.at)));
      break;
    case FsOp::kUnlink:
      ASSERT_TRUE(Ok(vfs->Unlink(path)));
      break;
  }
}

// Every byte a file holds after the cut is the one it held before the
// interrupted operation or the one that operation was writing (a truncate
// writes zeros past its new size), so no byte can come from another file or
// from a freed block; and the image is structurally sound: every referenced
// block is in the data area, allocated, and referenced once.
TEST_F(BlockFsTest, PowerCutAtEveryWriteLeavesOldOrNewBytesAndNoDanglingPointer) {
  using blockharness::DiskImage;
  const std::vector<FsOp> script = {
      {FsOp::kCreate, "a"},
      {FsOp::kCreate, "b"},
      {FsOp::kWrite, "b", 0, 3000, 'B'},
      {FsOp::kWrite, "a", 0, 11000, '1'},
      {FsOp::kWrite, "a", 11000, 11000, '2'},
      {FsOp::kWrite, "a", 22000, 11000, '3'},
      {FsOp::kWrite, "a", 33000, 11000, '4'},
      {FsOp::kWrite, "a", 44000, 11000, '5'},  // crosses the 12 direct pointers
      {FsOp::kWrite, "a", 55000, 64 * 1024, 'S'},  // a snapshot turn
      {FsOp::kWrite, "a", 5000, 700, 'o'},      // in place, partial sectors
      {FsOp::kTruncate, "a", 30000},            // frees the indirect block
      {FsOp::kWrite, "a", 30100, 50, 'e'},      // past the end, same block
      {FsOp::kUnlink, "b"},
  };
  const std::vector<std::uint8_t> blank(disk_.backing().size(), 0);
  bool completed = false;
  for (std::uint64_t cut = 0; !completed && cut < 1000; ++cut) {
    SCOPED_TRACE("cut after write " + std::to_string(cut));
    disk_.backing() = blank;
    {
      vfscore::BlockFs formatter(&disk_, &mem_);
      ASSERT_TRUE(Ok(formatter.Format()));
    }
    blockharness::RecordingBlockDev dev(&disk_);
    dev.cut_after = cut;
    FsModel before;
    FsModel after;
    std::size_t cut_step = script.size();
    {
      vfscore::BlockFs fs(&dev, &mem_);
      vfscore::Vfs vfs;
      std::shared_ptr<vfscore::Node> root;
      ASSERT_TRUE(Ok(fs.Mount(&root)));
      ASSERT_TRUE(Ok(vfs.Mount("/persist", &fs)));
      for (std::size_t i = 0; i < script.size(); ++i) {
        ASSERT_NO_FATAL_FAILURE(ApplyToFs(script[i], &vfs));
        if (cut_step == script.size()) {
          after = before;
          ApplyToModel(script[i], &after);
          if (dev.cut()) {
            cut_step = i;
          } else {
            before = after;
          }
        }
      }
    }
    completed = !dev.cut();

    // Reboot onto whatever reached the medium.
    vfscore::BlockFs fs(&disk_, &mem_);
    vfscore::Vfs vfs;
    std::shared_ptr<vfscore::Node> root;
    ASSERT_TRUE(Ok(fs.Mount(&root)));
    ASSERT_TRUE(Ok(vfs.Mount("/persist", &fs)));
    const bool zeros = cut_step < script.size() && script[cut_step].kind == FsOp::kTruncate;
    std::set<std::string> names;
    for (const FsModel* m : {&before, &after}) {
      for (const auto& entry : *m) {
        names.insert(entry.first);
      }
    }
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      const auto b = before.find(name);
      const auto a = after.find(name);
      std::shared_ptr<vfscore::File> f;
      if (!Ok(vfs.Open("/persist/" + name, vfscore::kRead, &f))) {
        EXPECT_TRUE(b == before.end() || a == after.end());
        continue;
      }
      ASSERT_TRUE(b != before.end() || a != after.end());
      const std::string* old_bytes = b != before.end() ? &b->second : nullptr;
      const std::string* new_bytes = a != after.end() ? &a->second : nullptr;
      const std::uint64_t size = f->node().Stat().size;
      EXPECT_TRUE((old_bytes != nullptr && size == old_bytes->size()) ||
                  (new_bytes != nullptr && size == new_bytes->size()))
          << "size " << size;
      std::string got(size, '\0');
      ASSERT_EQ(f->Read(std::as_writable_bytes(std::span(got.data(), got.size()))),
                static_cast<std::int64_t>(size));
      for (std::size_t i = 0; i < size; ++i) {
        const char c = got[i];
        const bool ok = (old_bytes != nullptr && i < old_bytes->size() && (*old_bytes)[i] == c) ||
                        (new_bytes != nullptr && i < new_bytes->size() && (*new_bytes)[i] == c) ||
                        (zeros && c == '\0');
        if (!ok) {
          ADD_FAILURE() << "byte " << i << " reads " << static_cast<int>(c);
          break;
        }
      }
      if (completed) {
        EXPECT_EQ(got, *new_bytes);
      }
    }

    const DiskImage img(disk_.backing());
    std::set<std::uint32_t> seen;
    for (const std::uint32_t block : img.Referenced()) {
      EXPECT_GE(block, DiskImage::kDataStart);
      EXPECT_LT(block, img.total_blocks());
      EXPECT_TRUE(block < img.total_blocks() && img.allocated(block))
          << "block " << block << " is referenced but free";
      EXPECT_TRUE(seen.insert(block).second) << "block " << block << " referenced twice";
    }
  }
  EXPECT_TRUE(completed);
}

// ---- Fsync plumbing: vfscore::File::Fsync -> ukblockdev flush op ---------------

TEST_F(BlockFsTest, FsyncIssuesFlushOnRamdisk) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/f", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  const std::uint64_t flushes_before = disk_.flushes();
  EXPECT_TRUE(Ok(f->Fsync()));
  // Ramdisk has no volatile cache: the flush is a counted no-op, proving the
  // File -> Node -> BlockFs -> Request::Op::kFlush chain end to end.
  EXPECT_EQ(disk_.flushes(), flushes_before + 1);
}

TEST_F(BlockFsTest, FsyncOnReadOnlyFdIsEbadf) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/f", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  std::shared_ptr<vfscore::File> r;
  ASSERT_TRUE(Ok(vfs.Open("/persist/f", vfscore::kRead, &r)));
  const std::uint64_t flushes_before = disk_.flushes();
  EXPECT_EQ(r->Fsync(), ukarch::Status::kBadF);  // POSIX EBADF contract
  EXPECT_EQ(disk_.flushes(), flushes_before);    // and no barrier was issued
}

TEST_F(BlockFsTest, VfsPathFsyncReachesDevice) {
  vfscore::Vfs vfs;
  auto fs = MountFresh(&vfs);
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/f", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  const std::uint64_t flushes_before = disk_.flushes();
  EXPECT_TRUE(Ok(vfs.Fsync("/persist/f")));
  EXPECT_EQ(disk_.flushes(), flushes_before + 1);
  EXPECT_EQ(vfs.Fsync("/persist/missing"), ukarch::Status::kNoEnt);
}

TEST_F(BlockFsTest, RamfsFsyncIsNoOp) {
  // Memory-backed filesystems inherit the no-op: fsync succeeds, nothing to
  // flush below them.
  auto heap = std::make_unique<std::byte[]>(1 << 20);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, heap.get(), 1 << 20);
  vfscore::RamFs ramfs(alloc.get());
  vfscore::Vfs vfs;
  ASSERT_TRUE(Ok(vfs.Mount("/", &ramfs)));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/m", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  EXPECT_TRUE(Ok(f->Fsync()));
}

TEST_F(BlockFsTest, FsyncOverVirtioBlkIsARealBarrier) {
  std::uint16_t qsize = 8;
  std::uint64_t ring = mem_.Carve(VirtioBlk::FootprintBytes(qsize), 16);
  VirtioBlk vdisk(&mem_, &clock_, ring, qsize, /*sectors=*/4096);
  vfscore::BlockFs fs(&vdisk, &mem_);
  ASSERT_TRUE(Ok(fs.EnsureFormatted()));
  vfscore::Vfs vfs;
  ASSERT_TRUE(Ok(vfs.Mount("/persist", &fs)));
  std::shared_ptr<vfscore::File> f;
  ASSERT_TRUE(Ok(vfs.Open("/persist/f", vfscore::kWrite | vfscore::kCreate, &f)));
  f->Write(AsBytes("x"));
  const std::uint64_t flushes_before = vdisk.flushes();
  const std::uint64_t cycles_before = clock_.cycles();
  EXPECT_TRUE(Ok(f->Fsync()));
  EXPECT_EQ(vdisk.flushes(), flushes_before + 1);
  // On virtio-blk a flush is a modeled write-cache barrier, not free.
  EXPECT_GE(clock_.cycles() - cycles_before, VirtioBlk::kFlushBarrierCycles);
}

}  // namespace
