#include "shfs/shfs.h"

#include <cstring>

#include "ukarch/hash.h"

namespace shfs {

Shfs::Builder& Shfs::Builder::Add(std::string name, std::vector<std::uint8_t> content) {
  files_.push_back(Pending{std::move(name), std::move(content)});
  return *this;
}

std::unique_ptr<Shfs> Shfs::Builder::Build() {
  auto fs = std::unique_ptr<Shfs>(new Shfs());
  fs->buckets_.assign(bucket_count_, -1);
  for (Pending& f : files_) {
    Entry e;
    e.hash = ukarch::Fnv1a64(f.name);
    e.name = f.name;
    e.offset = fs->volume_.size();
    e.length = f.content.size();
    fs->volume_.insert(fs->volume_.end(), f.content.begin(), f.content.end());
    std::size_t bucket = e.hash % bucket_count_;
    e.next = fs->buckets_[bucket];
    fs->buckets_[bucket] = static_cast<std::int32_t>(fs->entries_.size());
    fs->entries_.push_back(std::move(e));
  }
  return fs;
}

std::optional<FileHandle> Shfs::Open(std::string_view name) const {
  std::uint64_t hash = ukarch::Fnv1a64(name);
  std::int32_t idx = buckets_[hash % buckets_.size()];
  while (idx >= 0) {
    const Entry& e = entries_[static_cast<std::size_t>(idx)];
    if (e.hash == hash && e.name == name) {
      return FileHandle{
          std::span(volume_).subspan(static_cast<std::size_t>(e.offset),
                                     static_cast<std::size_t>(e.length)),
          hash};
    }
    idx = e.next;
  }
  return std::nullopt;
}

std::size_t Shfs::Read(const FileHandle& h, std::uint64_t offset,
                       std::span<std::uint8_t> out) {
  if (offset >= h.data.size()) {
    return 0;
  }
  std::size_t n = h.data.size() - static_cast<std::size_t>(offset);
  if (n > out.size()) {
    n = out.size();
  }
  std::memcpy(out.data(), h.data.data() + offset, n);
  return n;
}

std::size_t Shfs::MaxChainLength() const {
  std::size_t max_len = 0;
  for (std::int32_t head : buckets_) {
    std::size_t len = 0;
    for (std::int32_t idx = head; idx >= 0;
         idx = entries_[static_cast<std::size_t>(idx)].next) {
      ++len;
    }
    if (len > max_len) {
      max_len = len;
    }
  }
  return max_len;
}

namespace {

// Read-only file node over a FileHandle.
class ShfsFileNode final : public vfscore::Node {
 public:
  explicit ShfsFileNode(FileHandle handle) : handle_(handle) {}

  vfscore::NodeType type() const override { return vfscore::NodeType::kRegular; }
  vfscore::NodeStat Stat() const override {
    return vfscore::NodeStat{vfscore::NodeType::kRegular, handle_.data.size(),
                             handle_.hash};
  }
  std::int64_t Read(std::uint64_t offset, std::span<std::byte> out) override {
    return static_cast<std::int64_t>(Shfs::Read(
        handle_, offset,
        std::span(reinterpret_cast<std::uint8_t*>(out.data()), out.size())));
  }
  std::int64_t Write(std::uint64_t, std::span<const std::byte>) override {
    return ukarch::Raw(ukarch::Status::kPerm);  // read-only volume
  }
  ukarch::Status Truncate(std::uint64_t) override { return ukarch::Status::kPerm; }

 private:
  FileHandle handle_;
};

class ShfsRootNode final : public vfscore::Node {
 public:
  ShfsRootNode(const Shfs* volume, std::vector<std::string> names)
      : volume_(volume), names_(std::move(names)) {}

  vfscore::NodeType type() const override { return vfscore::NodeType::kDirectory; }
  vfscore::NodeStat Stat() const override {
    return vfscore::NodeStat{vfscore::NodeType::kDirectory, volume_->file_count(), 0};
  }
  ukarch::Status Lookup(std::string_view name,
                        std::shared_ptr<vfscore::Node>* out) override {
    auto handle = volume_->Open(name);
    if (!handle.has_value()) {
      return ukarch::Status::kNoEnt;
    }
    *out = std::make_shared<ShfsFileNode>(*handle);
    return ukarch::Status::kOk;
  }
  ukarch::Status Create(std::string_view, vfscore::NodeType,
                        std::shared_ptr<vfscore::Node>*) override {
    return ukarch::Status::kPerm;
  }
  ukarch::Status Remove(std::string_view) override { return ukarch::Status::kPerm; }
  ukarch::Status ReadDir(std::vector<vfscore::DirEntry>* out) override {
    out->clear();
    for (const std::string& n : names_) {
      out->push_back(vfscore::DirEntry{n, vfscore::NodeType::kRegular});
    }
    return ukarch::Status::kOk;
  }

 private:
  const Shfs* volume_;
  std::vector<std::string> names_;
};

}  // namespace

ukarch::Status ShfsVfsDriver::Mount(std::shared_ptr<vfscore::Node>* root) {
  *root = std::make_shared<ShfsRootNode>(volume_, names_);
  return ukarch::Status::kOk;
}

}  // namespace shfs
