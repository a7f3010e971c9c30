// perfbench/reference.h - the host-speed reference the host-time metrics are
// normalized by.
//
// The benchmark runs on a few cores of a shared host whose speed drifts by
// up to ~1.5x over minutes as other tenants come and go (cache, memory and
// core contention; the process is never descheduled for long, so CPU time
// does not help). A host-time figure taken at one moment and the same figure
// taken minutes later then differ by more than any change to the program
// would. ReferenceWork is a fixed piece of work of the server's own kind --
// RESP-framed GET/SET requests parsed and applied to a string hash map with
// 64 B values -- that the harness runs between slices of the real load. It
// depends on nothing under src/, so a change to the program does not move it;
// only the host does. Its working set is kept small enough for the core's
// own caches: with 16K keys (a few MiB, in the shared cache) it swung up to
// 3x within a run where the server swung 1.5x, while with 128 keys its speed
// followed the server's from run to run (correlation 0.84-0.98 on
// resp-pipelined, resp-pingpong and durable-restart). The harness scales the
// window's and the set-ups' host time by kNominalNs / (the reference's ns per
// op measured right after each slice or set-up): the figures read as they
// would on a host where the reference takes kNominalNs per op.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace.h"

namespace perfbench {

class ReferenceWork {
 public:
  // The reference host speed the normalized metrics are quoted at.
  static constexpr double kNominalNs = 100.0;

  ReferenceWork() {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: the same work every run
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int k = 0; k < kKeys; ++k) {
      map_["key:" + std::to_string(k)] = std::string(64, static_cast<char>('a' + k % 26));
    }
    for (int i = 0; i < kRequests; ++i) {
      const std::string key = "key:" + std::to_string(next() % kKeys);
      const bool set = next() % 10 == 0;
      std::string r = set ? "*3\r\n$3\r\nSET\r\n$" : "*2\r\n$3\r\nGET\r\n$";
      r += std::to_string(key.size()) + "\r\n" + key + "\r\n";
      if (set) {
        r += "$64\r\n" + std::string(64, static_cast<char>('z' - i % 26)) + "\r\n";
      }
      requests_.push_back(std::move(r));
    }
  }

  // Serves |ops| requests and returns the host ns per request. One untimed
  // pass over the request set comes first, so the figure is the reference's
  // warm speed, not how much of it the program evicted from the caches.
  double NsPerOp(int ops) {
    Serve(kRequests);
    const std::int64_t t0 = NowNs();
    Serve(ops);
    return static_cast<double>(NowNs() - t0) / static_cast<double>(ops);
  }

  // Sum over every reply served so far: keeps the work observable, and lets
  // a test check that the work is the same from run to run.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr int kKeys = 128;
  static constexpr int kRequests = 4096;

  void Serve(int ops) {
    std::string reply;
    std::vector<std::string_view> args;
    for (int i = 0; i < ops; ++i) {
      const std::string& r = requests_[static_cast<std::size_t>(next_++ % kRequests)];
      const char* p = r.data();
      const char* const end = p + r.size();
      args.clear();
      const long argc = std::strtol(p + 1, nullptr, 10);
      p = static_cast<const char*>(std::memchr(p, '\n', end - p)) + 1;
      for (long a = 0; a < argc; ++a) {
        const long len = std::strtol(p + 1, nullptr, 10);
        p = static_cast<const char*>(std::memchr(p, '\n', end - p)) + 1;
        args.emplace_back(p, static_cast<std::size_t>(len));
        p += len + 2;
      }
      const std::string key(args[1]);
      if (args[0] == "SET") {
        map_[key].assign(args[2]);
        reply = "+OK\r\n";
      } else {
        reply = "$64\r\n";
        reply += map_.find(key)->second;
        reply += "\r\n";
      }
      checksum_ += reply.size() + static_cast<unsigned char>(reply[5]);
    }
  }

  std::unordered_map<std::string, std::string> map_;
  std::vector<std::string> requests_;
  std::uint64_t next_ = 0;
  std::uint64_t checksum_ = 0;
};

// A kill is mostly the wipe of the guest's RAM (ukplat::MemRegion::Reset),
// which runs at the host's memory speed, not its core speed: ReferenceWork
// does not follow it. WipeReference times a wipe of a buffer of the same size
// instead; restart_ms scales each restart's kill part by kNominalMs / (that
// time measured next to it).
class WipeReference {
 public:
  // The reference memory speed the normalized kill time is quoted at.
  static constexpr double kNominalMs = 3.5;

  explicit WipeReference(std::size_t bytes) : buf_(new std::byte[bytes]), bytes_(bytes) {
    std::memset(buf_.get(), 0, bytes_);  // fault every page in before timing
  }

  // One wipe of the buffer, in host ms.
  double Ms() {
    const std::int64_t t0 = NowNs();
    std::memset(buf_.get(), static_cast<int>(++pattern_), bytes_);
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

 private:
  std::unique_ptr<std::byte[]> buf_;
  std::size_t bytes_;
  unsigned char pattern_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
