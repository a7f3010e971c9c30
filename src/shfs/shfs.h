// shfs/shfs.h - SHFS, the specialized hash filesystem from MiniCache (§6.3).
//
// SHFS replaces path resolution with a single hash lookup: file names map to
// buckets of a fixed hash table laid out in one volume; opening a file is a
// hash + bucket probe, no per-component directory walk and no VFS object
// allocation. Fig 22 measures exactly this against vfscore and a Linux VM.
//
// The volume is immutable after Build() (a web cache loads its content up
// front), which is also what lets open() stay allocation-free.
#ifndef SHFS_SHFS_H_
#define SHFS_SHFS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ukarch/status.h"
#include "vfscore/node.h"

namespace shfs {

// An open file: a view into the volume. Cheap to copy; no cleanup needed
// (the "file descriptor" of the specialized stack).
struct FileHandle {
  std::span<const std::uint8_t> data;
  std::uint64_t hash = 0;
};

class Shfs {
 public:
  class Builder {
   public:
    explicit Builder(std::size_t bucket_count = 1024) : bucket_count_(bucket_count) {}
    Builder& Add(std::string name, std::vector<std::uint8_t> content);
    std::unique_ptr<Shfs> Build();

   private:
    struct Pending {
      std::string name;
      std::vector<std::uint8_t> content;
    };
    std::size_t bucket_count_;
    std::vector<Pending> files_;
  };

  // O(1) open-by-name: hash, probe the bucket chain. nullopt when missing.
  std::optional<FileHandle> Open(std::string_view name) const;

  // Reads |out.size()| bytes at |offset| from an open handle; returns bytes
  // read (short at EOF).
  static std::size_t Read(const FileHandle& h, std::uint64_t offset,
                          std::span<std::uint8_t> out);

  std::size_t file_count() const { return entries_.size(); }
  std::size_t bucket_count() const { return buckets_.size(); }

  // Largest collision chain, for the hash-quality tests.
  std::size_t MaxChainLength() const;

 private:
  friend class Builder;
  struct Entry {
    std::uint64_t hash;
    std::string name;           // kept for exactness check on collision
    std::uint64_t offset;       // into volume_
    std::uint64_t length;
    std::int32_t next = -1;     // collision chain
  };

  std::vector<std::int32_t> buckets_;  // head entry index or -1
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> volume_;
};

// Adapter mounting an SHFS volume read-only through vfscore, so Fig 22 can
// compare "same content, specialized API" vs "same content, via VFS".
class ShfsVfsDriver final : public vfscore::FsDriver {
 public:
  explicit ShfsVfsDriver(const Shfs* volume) : volume_(volume) {}
  const char* fs_name() const override { return "shfs"; }
  ukarch::Status Mount(std::shared_ptr<vfscore::Node>* root) override;

  const Shfs* volume() const { return volume_; }

  // The adapter needs the name list for ReadDir; built lazily by Mount from
  // the builder-recorded names.
  void SetNameIndex(std::vector<std::string> names) { names_ = std::move(names); }

 private:
  const Shfs* volume_;
  std::vector<std::string> names_;
};

}  // namespace shfs

#endif  // SHFS_SHFS_H_
