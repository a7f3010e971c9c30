// apps/event_loop.h - the shared epoll-backed event loop the socket servers
// are built on: one thread multiplexes every listener and connection from a
// single EpollWait (and, under a scheduler, a single PollWait sleep) — the
// run-to-completion loop the paper's unmodified POSIX servers (redis, nginx)
// expect from the OS.
#ifndef APPS_EVENT_LOOP_H_
#define APPS_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "posix/api.h"

namespace apps {

class EventLoop {
 public:
  // |events| is the level-triggered ready mask the dispatch observed.
  using Handler = std::function<void(int fd, uknet::EventMask events)>;

  static constexpr std::uint64_t kNoTimeout = posix::PosixApi::kNoTimeout;

  explicit EventLoop(posix::PosixApi* api);
  ~EventLoop();

  bool ok() const { return epfd_ >= 0; }

  // Registers |fd| with |interest| and a dispatch handler. Handlers may Add/
  // Mod/Del (including their own fd) from inside a dispatch.
  bool Add(int fd, uknet::EventMask interest, Handler handler);
  bool Mod(int fd, uknet::EventMask interest);
  void Del(int fd);

  // One loop turn: waits up to |timeout_cycles| for readiness (0 = scan
  // without sleeping; kNoTimeout = block until an event), then dispatches
  // every ready descriptor's handler once. Returns handlers dispatched. From
  // the wait's return until the turn-end hooks have run, the turn holds the
  // stack's TX (uknet::TxHold): its frames leave together afterwards.
  std::size_t PumpOnce(std::uint64_t timeout_cycles = 0);

  // Registers a callback that runs at the END of every PumpOnce turn, after
  // all ready handlers dispatched. This is the persistence tier's batching
  // point: per-command work appends into memory, the turn hook does the one
  // file write (+ optional fsync) and advances the background-snapshot cursor
  // by its per-turn budget — so durability costs are amortized per turn, and
  // pause bounds are enforced at turn granularity. Hooks run in registration
  // order and cannot be removed (lifetime: owner outlives the loop's use).
  void AddTurnEndHook(std::function<void()> hook) {
    turn_hooks_.push_back(std::move(hook));
  }

  std::size_t watched() const { return handlers_.size(); }
  std::uint64_t turns() const { return turns_; }
  std::uint64_t dispatches() const { return dispatches_; }
  posix::PosixApi* api() { return api_; }

 private:
  // |added_turn| guards same-turn fd reuse: a handler registered DURING a
  // dispatch turn (a handler closed some fd, an accept reused its number)
  // must not receive a stale ready_ entry that was scanned for the old
  // socket — it waits for the next turn's scan of its own level.
  struct Registration {
    Handler handler;
    std::uint64_t added_turn = 0;
  };

  posix::PosixApi* api_;
  int epfd_ = -1;
  std::map<int, Registration> handlers_;
  std::vector<posix::EpollEvent> ready_;  // reused across turns (no per-turn alloc)
  std::vector<std::function<void()>> turn_hooks_;
  std::uint64_t turns_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace apps

#endif  // APPS_EVENT_LOOP_H_
