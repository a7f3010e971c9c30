// posix/api.h - the POSIX-compatibility layer: libc-level calls marshalled
// through the syscall shim into VFS and network stack operations.
//
// Every operation goes through SyscallShim::Call with real argument
// marshalling (pointers and lengths in registers, like the ABI), so switching
// DispatchMode turns the same application into a "Linux guest" (trap costs),
// a binary-compat unikernel, or a natively linked Unikraft image — which is
// how the environment baselines of Figs 12/13/17 and Table 4 are built.
//
// Non-blocking by design: unikernel applications in the paper run
// run-to-completion event loops; -EAGAIN means "pump the stack and retry".
//
// Readiness multiplexing: Poll/EpollCreate/EpollCtl/EpollWait expose the
// uknet readiness-event API at the descriptor level. Levels are *derived*
// from current socket state on every scan (readable/writable/acceptable/
// hup/err), so reports stay level-triggered and -EAGAIN consumer loops are
// always correct; the accumulated edges only drive wakeups. EpollWait (and
// Poll with a timeout) sleep in NetStack::PollWait — the interrupt-driven
// idle path — and wake on frames, TCP timers, or a registered socket edge.
//
// Sockets can still opt into blocking one-fd calls (SetBlocking, the inverse
// of O_NONBLOCK): recv*/accept on a blocking fd are one-descriptor waits on
// the same readiness machinery, provided the stack has a scheduler attached
// and the call runs on a scheduler thread (otherwise the flag is ignored and
// -EAGAIN comes back).
#ifndef POSIX_API_H_
#define POSIX_API_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "posix/fdtab.h"
#include "posix/shim.h"

namespace posix {

enum class SockType { kDgram, kStream };

// Scatter element for the batched (sendmmsg/recvmmsg) calls of Table 4.
// The send element IS the stack's batched-TX view, so the sendmmsg handler
// passes the caller's array straight to UdpSocket::SendToBatch.
using MmsgVec = uknet::UdpSocket::DatagramVec;
struct MmsgRecv {
  std::uint8_t* data = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;  // filled in
  uknet::Ip4Addr src_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t rx_queue = 0;  // device queue the datagram arrived on
};

// ---- readiness multiplexing types ----
// Event bits are uknet's (kEvtReadable/kEvtWritable/kEvtAcceptable/kEvtHup/
// kEvtErr); err and hup are always reported, registered or not, like POSIX.

struct PollFd {
  int fd = -1;
  uknet::EventMask events = 0;   // interest
  uknet::EventMask revents = 0;  // filled by Poll
};

enum class EpollOp { kAdd, kMod, kDel };

struct EpollEvent {
  int fd = -1;
  uknet::EventMask events = 0;  // ready mask (level)
  std::uint64_t data = 0;       // user cookie from EpollCtl
};

class PosixApi {
 public:
  PosixApi(ukplat::Clock* clock, vfscore::Vfs* vfs, uknet::NetStack* net,
           DispatchMode mode, uksched::Scheduler* sched = nullptr);

  // ---- files (through vfscore) ----
  int Open(std::string_view path, std::uint32_t flags);
  std::int64_t Read(int fd, std::span<std::byte> out);
  std::int64_t Write(int fd, std::span<const std::byte> in);
  std::int64_t Pread(int fd, std::uint64_t off, std::span<std::byte> out);
  std::int64_t Lseek(int fd, std::int64_t off, int whence);  // 0 SET 1 CUR 2 END
  int Close(int fd);
  int Stat(std::string_view path, vfscore::NodeStat* out);
  int Unlink(std::string_view path);
  int Mkdir(std::string_view path);
  int Fsync(int fd);

  // ---- sockets (through uknet) ----
  int Socket(SockType type);
  int Bind(int fd, std::uint16_t port);
  int Listen(int fd);
  int Accept(int fd);  // returns new fd or -EAGAIN
  int Connect(int fd, uknet::Ip4Addr ip, std::uint16_t port);
  std::int64_t Send(int fd, std::span<const std::uint8_t> data);
  std::int64_t Recv(int fd, std::span<std::uint8_t> out);
  std::int64_t SendTo(int fd, uknet::Ip4Addr ip, std::uint16_t port,
                      std::span<const std::uint8_t> data);
  std::int64_t RecvFrom(int fd, std::span<std::uint8_t> out, uknet::Ip4Addr* src_ip,
                        std::uint16_t* src_port);
  // Batched datagram I/O: one syscall entry for the whole batch.
  std::int64_t SendMmsg(int fd, uknet::Ip4Addr ip, std::uint16_t port,
                        std::span<const MmsgVec> msgs);
  std::int64_t RecvMmsg(int fd, std::span<MmsgRecv> msgs);

  // ---- readiness multiplexing ----
  // Timeouts are virtual cycles: 0 = non-blocking scan, kNoTimeout = sleep
  // until an event. Blocking requires the stack scheduler (CanBlock);
  // otherwise both degrade to one poll pass + scan.
  static constexpr std::uint64_t kNoTimeout = ~0ull;

  // Scans |fds| (subscribing each to the readiness sinks) and fills revents
  // with the level mask; blocks up to |timeout_cycles| for the first event.
  // Returns the number of descriptors with non-zero revents (0 on timeout).
  int Poll(std::span<PollFd> fds, std::uint64_t timeout_cycles = 0);

  // epoll work-alikes. EpollCreate installs an epoll instance as an fd.
  // EpollCtl manages the interest list (kAdd: -EEXIST if present, kMod/kDel:
  // -ENOENT if absent); interest records the fd-slot generation, so entries
  // that survive a Close never match — a reused descriptor number delivers
  // nothing until it is re-added. EpollWait fills |out| with level-ready
  // descriptors (rotating the scan start for multi-fd fairness) and returns
  // the count, 0 on timeout.
  int EpollCreate();
  int EpollCtl(int epfd, EpollOp op, int fd, uknet::EventMask events,
               std::uint64_t data = 0);
  int EpollWait(int epfd, std::span<EpollEvent> out,
                std::uint64_t timeout_cycles = 0);

  // Level-triggered readiness of one descriptor, derived from current socket
  // state (files are always readable+writable).
  uknet::EventMask ReadyMask(int fd) const;

  // Marks |fd| blocking/non-blocking (default: non-blocking). On a blocking
  // fd, Recv/RecvFrom/RecvMmsg/Accept become one-descriptor waits on the
  // readiness machinery: they sleep in NetStack::PollWait until the level
  // shows readable/acceptable (or hup/err), then retry. Returns 0 or -EBADF.
  // The flag clears on Close.
  int SetBlocking(int fd, bool blocking);
  bool IsBlocking(int fd) const;

  // ---- misc ----
  std::int64_t GetPid() { return shim_.Call(SyscallNumber("getpid")); }

  SyscallShim& shim() { return shim_; }
  FdTable& fdtab() { return fdtab_; }
  uknet::NetStack* net() { return net_; }

 private:
  void RegisterHandlers();
  // True when a blocking call may actually sleep for |fd|.
  bool ShouldBlock(int fd) const;
  // The one-descriptor wait every blocking recv*/accept is built on: watches
  // |fd| and sleeps in PollWait until its level intersects |want| (hup/err
  // always end the wait). The shared core under Poll/EpollWait's sleeps.
  void WaitFdReady(int fd, uknet::EventMask want);
  // Scan bodies (no blocking): return ready count.
  int ScanPoll(std::span<PollFd> fds);
  int ScanEpoll(EpollInstance& inst, std::span<EpollEvent> out);
  // Turns a relative timeout into an absolute deadline (kNoTimeout passes).
  std::uint64_t DeadlineFor(std::uint64_t timeout_cycles) const;

  ukplat::Clock* clock_;
  SyscallShim shim_;
  FdTable fdtab_;
  vfscore::Vfs* vfs_;
  uknet::NetStack* net_;
  std::vector<std::uint8_t> blocking_;  // per-fd blocking flag (index = fd)
};

}  // namespace posix

#endif  // POSIX_API_H_
