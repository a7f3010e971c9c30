#include "apps/event_loop.h"

namespace apps {

EventLoop::EventLoop(posix::PosixApi* api) : api_(api) {
  epfd_ = api_->EpollCreate();
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) {
    api_->Close(epfd_);
  }
}

bool EventLoop::Add(int fd, uknet::EventMask interest, Handler handler) {
  if (epfd_ < 0 || api_->EpollCtl(epfd_, posix::EpollOp::kAdd, fd, interest) != 0) {
    return false;
  }
  handlers_[fd] = Registration{std::move(handler), turns_};
  if (ready_.size() < handlers_.size()) {
    ready_.resize(handlers_.size());  // grows with the connection count only
  }
  return true;
}

bool EventLoop::Mod(int fd, uknet::EventMask interest) {
  return epfd_ >= 0 &&
         api_->EpollCtl(epfd_, posix::EpollOp::kMod, fd, interest) == 0;
}

void EventLoop::Del(int fd) {
  if (epfd_ >= 0) {
    api_->EpollCtl(epfd_, posix::EpollOp::kDel, fd, 0);
  }
  handlers_.erase(fd);
}

std::size_t EventLoop::PumpOnce(std::uint64_t timeout_cycles) {
  if (epfd_ < 0 || handlers_.empty()) {
    // Even an idle loop finishes its turn: batched persistence work (AOF
    // buffers, snapshot chunks) must drain whether or not a socket was ready.
    for (const auto& hook : turn_hooks_) {
      hook();
    }
    return 0;
  }
  ++turns_;
  int n = api_->EpollWait(epfd_, std::span(ready_.data(), ready_.size()),
                          timeout_cycles);
  // The turn's replies share one doorbell per TX queue, and leave only after
  // the turn-end hooks (the AOF write and fsync), as Redis's beforeSleep.
  uknet::TxHold hold(api_->net());
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const posix::EpollEvent& ev = ready_[static_cast<std::size_t>(i)];
    // Look the handler up per event: an earlier dispatch this turn may have
    // removed (or replaced) it. A registration added DURING this turn (fd
    // closed and its number reused by an accept) never receives the entry
    // that was scanned for the old socket — it waits for the next scan.
    auto it = handlers_.find(ev.fd);
    if (it == handlers_.end() || it->second.added_turn == turns_) {
      continue;
    }
    // Invoke a copy: the handler may Del its own fd, and erasing the map
    // node mid-call would destroy the std::function while it executes.
    Handler handler = it->second.handler;
    handler(ev.fd, ev.events);
    ++dispatched;
    ++dispatches_;
  }
  for (const auto& hook : turn_hooks_) {
    hook();
  }
  return dispatched;
}

}  // namespace apps
