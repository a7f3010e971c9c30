// ukblockdev/blockdev.h - the ukblock API (scenario 8 in Fig 4).
//
// Asynchronous, queue-oriented block API in the style of uknetdev: the
// application owns request lifetimes, submissions are non-blocking, and
// completions are reaped in batches — the design that lets disk-bound apps
// "optimize throughput by coding against the ukblock API" instead of going
// through the VFS.
#ifndef UKBLOCKDEV_BLOCKDEV_H_
#define UKBLOCKDEV_BLOCKDEV_H_

#include <cstdint>
#include <functional>

#include "ukarch/status.h"

namespace ukblockdev {

struct Geometry {
  std::uint64_t sectors = 0;
  std::uint32_t sector_bytes = 512;
  std::uint64_t TotalBytes() const { return sectors * sector_bytes; }
};

struct Request {
  enum class Op : std::uint8_t { kRead, kWrite, kFlush };
  static constexpr std::int32_t kPending = INT32_MIN;

  Op op = Op::kRead;
  std::uint64_t sector = 0;
  std::uint32_t count = 0;        // sectors
  std::uint64_t data_gpa = 0;     // guest-physical buffer address
  std::int32_t result = kPending; // 0 or negative errno once complete
  void* cookie = nullptr;

  bool done() const { return result != kPending; }
};

class BlockDev {
 public:
  virtual ~BlockDev() = default;

  virtual const char* name() const = 0;
  virtual Geometry geometry() const = 0;

  // Non-blocking submit; false when the queue is full (caller retries after
  // reaping completions). The request must stay alive until completed.
  virtual bool Submit(Request* req) = 0;

  // Processes device work and completes up to |max| requests, invoking the
  // completion handler for each. Returns the number completed.
  virtual std::size_t ProcessCompletions(std::size_t max) = 0;

  void SetCompletionHandler(std::function<void(Request*)> handler) {
    handler_ = std::move(handler);
  }

 protected:
  void Complete(Request* req, std::int32_t result) {
    req->result = result;
    if (handler_) {
      handler_(req);
    }
  }

 private:
  std::function<void(Request*)> handler_;
};

// Convenience synchronous wrapper used by filesystems: submits and spins on
// completions. Returns the request result. The result is reset to kPending
// first, so a request that already completed can be submitted again.
std::int32_t SubmitAndWait(BlockDev& dev, Request* req);

}  // namespace ukblockdev

#endif  // UKBLOCKDEV_BLOCKDEV_H_
