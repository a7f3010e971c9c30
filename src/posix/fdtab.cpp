#include "posix/fdtab.h"

#include <type_traits>

namespace posix {

FdTable::~FdTable() {
  for (std::size_t fd = 0; fd < entries_.size(); ++fd) {
    if (watched_[fd].load(std::memory_order_acquire) != 0) {
      DetachSink(static_cast<int>(fd));
    }
  }
}

int FdTable::Install(FdEntry entry) {
  for (std::size_t fd = 3; fd < entries_.size(); ++fd) {
    if (std::holds_alternative<std::monostate>(entries_[fd])) {
      entries_[fd] = std::move(entry);
      edges_[fd].store(0, std::memory_order_relaxed);
      watched_[fd].store(0, std::memory_order_relaxed);
      return static_cast<int>(fd);
    }
  }
  return ukarch::Raw(ukarch::Status::kMFile);
}

int FdTable::Dup2(int oldfd, int newfd) {
  if (!InUse(oldfd) || newfd < 0 ||
      static_cast<std::size_t>(newfd) >= entries_.size()) {
    return ukarch::Raw(ukarch::Status::kBadF);
  }
  if (oldfd == newfd) {
    return newfd;  // POSIX: equal descriptors are a no-op, never a close
  }
  if (InUse(newfd)) {
    Close(newfd);  // dup2 implicitly closes the target description
  }
  entries_[static_cast<std::size_t>(newfd)] = entries_[static_cast<std::size_t>(oldfd)];
  return newfd;
}

bool FdTable::Replace(int fd, FdEntry entry) {
  if (!InUse(fd)) {
    return false;
  }
  const auto slot = static_cast<std::size_t>(fd);
  const bool was_watched = watched_[slot].load(std::memory_order_acquire) != 0;
  if (was_watched) {
    DetachSink(fd);
  }
  entries_[slot] = std::move(entry);
  edges_[slot].store(0, std::memory_order_relaxed);
  if (was_watched) {
    // Same descriptor, same open description (pending -> bound/connected):
    // the watch carries over to the materialized socket.
    Subscribe(fd);
  }
  return true;
}

ukarch::Status FdTable::Close(int fd) {
  if (!InUse(fd)) {
    return ukarch::Status::kBadF;
  }
  const auto slot = static_cast<std::size_t>(fd);
  // The socket may outlive this descriptor (other shared_ptr holders): stop
  // it from raising edges under a token that now means something else.
  uknet::SocketEventSource* src = EventSourceOf(fd);
  DetachSink(fd);
  // Dup2 sharing check, gated so the common close stays O(1): a socket held
  // only by this slot plus the stack's own registry has use_count 2 — more
  // implies a possible sibling descriptor, and only then is the table scan
  // worth paying. (A stack-unregistered dup'd socket can slip the gate; it
  // is already dead, so neither the FIN skip nor the sink matter for it.)
  int sharer = -1;
  int watched_sharer = -1;
  const long uses = std::visit(
      [](const auto& p) -> long {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>, std::monostate>) {
          return 0;
        } else {
          return p.use_count();
        }
      },
      entries_[slot]);
  if (src != nullptr && uses > 2) {
    for (std::size_t other = 0; other < entries_.size(); ++other) {
      if (other == slot || EventSourceOf(static_cast<int>(other)) != src) {
        continue;
      }
      sharer = static_cast<int>(other);
      if (watched_[other].load(std::memory_order_acquire) != 0) {
        watched_sharer = sharer;
        break;
      }
    }
  }
  // Graceful TCP teardown on close, like the socket layer does — but only
  // when the LAST descriptor goes (POSIX: dup'd descriptors share one open
  // description; closing one must not FIN the survivor's connection).
  if (sharer < 0) {
    if (auto tcp = Get<uknet::TcpSocket>(fd)) {
      tcp->Close();
    }
  }
  entries_[slot] = std::monostate{};
  edges_[slot].store(0, std::memory_order_relaxed);
  watched_[slot].store(0, std::memory_order_relaxed);
  ++gens_[slot];  // stale epoll interest for this number stops matching here
  // A socket has ONE sink slot. If a dup'd descriptor still watches this
  // socket, re-home the sink to the survivor so its edge delivery (and with
  // it the lost-wakeup defence) does not die with the closed number.
  if (watched_sharer >= 0) {
    Subscribe(watched_sharer);
  }
  return ukarch::Status::kOk;
}

std::size_t FdTable::open_count() const {
  std::size_t n = 0;
  for (const FdEntry& e : entries_) {
    if (!std::holds_alternative<std::monostate>(e)) {
      ++n;
    }
  }
  return n;
}

bool FdTable::Watch(int fd) {
  if (!InUse(fd)) {
    return false;
  }
  watched_[static_cast<std::size_t>(fd)].store(1, std::memory_order_release);
  Subscribe(fd);
  return true;
}

uknet::EventMask FdTable::TakeEdges(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= edges_.size()) {
    return 0;
  }
  // Exchange, not load+store: a foreign loop's fetch_or landing between the
  // two would be erased — the classic lost-edge race this PR closes.
  return edges_[static_cast<std::size_t>(fd)].exchange(
      0, std::memory_order_acquire);
}

int FdTable::FdQueue(int fd) const {
  if (auto tcp = Get<uknet::TcpSocket>(fd)) {
    return static_cast<int>(tcp->tx_queue());
  }
  return kNoQueueAffinity;
}

void FdTable::OnSocketEvent(std::uint64_t token, uknet::EventMask events) {
  // Wakeup-grade work only (raised from inside stack dispatch): accumulate
  // the edge; level scanning happens on the consumer's side of the wake.
  if (token >= edges_.size()) {
    return;
  }
  // May run on a foreign loop's thread (the queue that dispatched the
  // packet); release pairs with the owner's acquire exchange in TakeEdges.
  edges_[static_cast<std::size_t>(token)].fetch_or(events,
                                                   std::memory_order_release);
}

uknet::SocketEventSource* FdTable::EventSourceOf(int fd) const {
  // Files and pending sockets have no edges; their levels are constant.
  if (auto udp = Get<uknet::UdpSocket>(fd)) {
    return udp.get();
  }
  if (auto tcp = Get<uknet::TcpSocket>(fd)) {
    return tcp.get();
  }
  if (auto lst = Get<uknet::TcpListener>(fd)) {
    return lst.get();
  }
  return nullptr;
}

void FdTable::Subscribe(int fd) {
  if (auto* src = EventSourceOf(fd)) {
    src->SetEventSink(this, static_cast<std::uint64_t>(fd));
  }
}

void FdTable::DetachSink(int fd) {
  if (auto* src = EventSourceOf(fd)) {
    src->SetEventSink(nullptr, 0);
  }
}

}  // namespace posix
