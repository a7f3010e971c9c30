// uk9p/server.h - host-side 9P file server.
//
// Plays the role of QEMU's virtfs/9p device backend: it owns a host directory
// tree (in-memory here — the paper's host share was a 1 GB directory of
// random data, which the Fig 20 bench recreates) and answers one 9P T-message
// at a time with the matching R-message.
#ifndef UK9P_SERVER_H_
#define UK9P_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uk9p/proto.h"

namespace uk9p {

// Host-side filesystem tree the server exports.
struct HostNode {
  std::string name;
  bool is_dir = false;
  std::vector<std::uint8_t> data;
  std::map<std::string, std::unique_ptr<HostNode>> children;
  std::uint64_t qid_path = 0;

  HostNode* AddDir(const std::string& child_name);
  HostNode* AddFile(const std::string& child_name, std::vector<std::uint8_t> content);
};

class Server {
 public:
  Server();

  // The exported share; populate before serving.
  HostNode& root() { return *root_; }

  // Handles one complete T-message, returns the R-message bytes.
  std::vector<std::uint8_t> Handle(std::span<const std::uint8_t> request);

  std::uint32_t msize() const { return msize_; }
  std::uint64_t requests_served() const { return requests_served_; }

 private:
  struct Fid {
    HostNode* node;
    bool open = false;
  };

  std::vector<std::uint8_t> Error(std::uint16_t tag, std::string_view ename);
  Qid QidOf(const HostNode& n) const;

  std::vector<std::uint8_t> Version(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Attach(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Walk(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Open(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Create(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Read(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Write(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Clunk(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Remove(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> StatMsg(std::uint16_t tag, Reader& r);
  std::vector<std::uint8_t> Wstat(std::uint16_t tag, Reader& r);

  std::unique_ptr<HostNode> root_;
  std::map<std::uint32_t, Fid> fids_;
  std::uint32_t msize_ = 64 * 1024;
  std::uint64_t requests_served_ = 0;
  friend struct HostNode;
};

}  // namespace uk9p

#endif  // UK9P_SERVER_H_
