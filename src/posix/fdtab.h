// posix/fdtab.h - the posix-fdtab micro-library: integer descriptors over
// VFS files and network sockets, plus the readiness-interest bookkeeping the
// poll/epoll layer builds on.
//
// The table is the single uknet::SocketEventSink for every watched socket
// (token = fd): edges accumulate per descriptor, and a per-slot generation
// counter — bumped on Close — lets epoll interest lists detect that a
// descriptor number was reused for a different socket and drop the stale
// registration instead of delivering the old socket's events.
#ifndef POSIX_FDTAB_H_
#define POSIX_FDTAB_H_

#include <atomic>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "ukarch/status.h"
#include "uknet/stack.h"
#include "vfscore/vfs.h"

namespace posix {

// A socket created but not yet connected/listening (the state between
// socket() and connect()/listen() in the BSD API).
struct PendingSocket {
  bool is_stream = false;
  std::uint16_t bound_port = 0;
};

// One epoll interest-list entry: the subscribed event mask, the user cookie
// returned with each event, and the fd-slot generation at registration time
// (a mismatch means the fd was closed and reused — the entry is stale).
struct EpollInterest {
  uknet::EventMask events = 0;
  std::uint64_t data = 0;
  std::uint32_t gen = 0;
};

// An epoll instance, itself installed in the fd table (epoll_create returns
// a descriptor). |rotor| rotates the scan start across EpollWait calls so
// ready descriptors are reported fairly when the caller's event array is
// smaller than the ready set.
struct EpollInstance {
  std::map<int, EpollInterest> interest;
  int rotor = -1;
};

// One open description. monostate marks a free slot.
using FdEntry = std::variant<std::monostate, std::shared_ptr<vfscore::File>,
                             std::shared_ptr<uknet::UdpSocket>,
                             std::shared_ptr<uknet::TcpSocket>,
                             std::shared_ptr<uknet::TcpListener>,
                             std::shared_ptr<PendingSocket>,
                             std::shared_ptr<EpollInstance>>;

class FdTable : public uknet::SocketEventSink {
 public:
  explicit FdTable(int max_fds = 1024)
      : entries_(static_cast<std::size_t>(max_fds)),
        edges_(static_cast<std::size_t>(max_fds)),
        gens_(static_cast<std::size_t>(max_fds), 0),
        watched_(static_cast<std::size_t>(max_fds)) {}
  // Sockets can outlive the table (shared_ptrs held by the stack or the
  // app); detach every sink so no socket raises into freed memory.
  ~FdTable() override;

  // Installs |entry| at the lowest free descriptor >= 3 (0-2 reserved for
  // std streams). Returns -EMFILE when the table is full.
  int Install(FdEntry entry);

  // dup2 semantics: places a copy of |oldfd| at |newfd| (closing an in-use
  // target first; equal descriptors are a no-op). Table-level operation:
  // PosixApi-layer per-fd state (the blocking flag) is owned by the api and
  // cleared only by its close syscall — callers mixing direct Dup2 with
  // PosixApi blocking flags must clear them via PosixApi::Close.
  int Dup2(int oldfd, int newfd);

  // Replaces the entry at |fd| in place (socket state transitions:
  // pending -> bound/listening/connected keep their descriptor — same open
  // description, so the generation does NOT change and an existing watch
  // transfers to the new object).
  bool Replace(int fd, FdEntry entry);

  // Clears the slot, detaches the socket's event sink, drops accumulated
  // edges and the blocking/watch state, and bumps the slot generation so
  // stale epoll interest never matches a reused descriptor.
  ukarch::Status Close(int fd);

  template <typename T>
  std::shared_ptr<T> Get(int fd) const {
    if (fd < 0 || static_cast<std::size_t>(fd) >= entries_.size()) {
      return nullptr;
    }
    const auto* p = std::get_if<std::shared_ptr<T>>(&entries_[static_cast<std::size_t>(fd)]);
    return p == nullptr ? nullptr : *p;
  }

  bool InUse(int fd) const {
    return fd >= 0 && static_cast<std::size_t>(fd) < entries_.size() &&
           !std::holds_alternative<std::monostate>(entries_[static_cast<std::size_t>(fd)]);
  }

  std::size_t open_count() const;
  std::size_t capacity() const { return entries_.size(); }

  // ---- readiness interest ---------------------------------------------------
  // Subscribes |fd|'s socket to this table's sink (idempotent; files and
  // pending sockets have nothing to subscribe but still count as watched).
  // Returns false for descriptors not in use. Watches are sticky for the
  // descriptor's lifetime (cleared at Close): the layer serves persistent
  // multiplexers, so a one-shot poll() leaves the socket subscribed — its
  // later edges cost spurious (correctness-neutral) sleeper wakeups, never
  // lost ones.
  bool Watch(int fd);
  bool watched(int fd) const {
    return fd >= 0 && static_cast<std::size_t>(fd) < watched_.size() &&
           watched_[static_cast<std::size_t>(fd)].load(
               std::memory_order_acquire) != 0;
  }
  // Accumulated readiness edges since the last TakeEdges (level state lives
  // on the sockets; the edge mask is for wake bookkeeping and tests).
  uknet::EventMask edges(int fd) const {
    return fd >= 0 && static_cast<std::size_t>(fd) < edges_.size()
               ? edges_[static_cast<std::size_t>(fd)].load(
                     std::memory_order_acquire)
               : 0;
  }
  uknet::EventMask TakeEdges(int fd);
  // Device-queue affinity of |fd|'s socket: the RSS queue a TCP connection's
  // flow is pinned to (fixed at connect/accept). kNoQueueAffinity for
  // listeners (SYNs can land on any queue), UDP sockets, files, and free
  // slots. This is what lets a per-queue event loop prove its whole interest
  // set lives on one queue and sleep in PollWait(queue) instead of kAllQueues.
  static constexpr int kNoQueueAffinity = -1;
  int FdQueue(int fd) const;
  // Slot generation: bumped at Close so interest lists can detect fd reuse.
  std::uint32_t generation(int fd) const {
    return fd >= 0 && static_cast<std::size_t>(fd) < gens_.size()
               ? gens_[static_cast<std::size_t>(fd)]
               : 0;
  }

  // uknet::SocketEventSink: |token| is the watched fd.
  void OnSocketEvent(std::uint64_t token, uknet::EventMask events) override;

 private:
  // (De)registers this table as |fd|'s socket sink.
  uknet::SocketEventSource* EventSourceOf(int fd) const;
  void Subscribe(int fd);
  void DetachSink(int fd);

  std::vector<FdEntry> entries_;
  // Edge accumulation is the one FdTable path a FOREIGN loop touches: a
  // socket's OnSocketEvent can fire from whichever queue's loop dispatched
  // the packet, concurrent with the owner loop draining TakeEdges. The mask
  // and watch flag are atomics (fetch_or vs exchange); everything else in the
  // table (install/close/dup) stays owner-loop-only by contract.
  std::vector<std::atomic<uknet::EventMask>> edges_;  // accumulated edges
  std::vector<std::uint32_t> gens_;  // slot generation (fd-reuse guard)
  std::vector<std::atomic<std::uint8_t>> watched_;  // live readiness watch
};

}  // namespace posix

#endif  // POSIX_FDTAB_H_
