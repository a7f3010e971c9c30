#include "posix/api.h"

#include <cstring>

namespace posix {

namespace {

constexpr std::int64_t Err(ukarch::Status s) { return ukarch::Raw(s); }

std::uint64_t Ptr(const void* p) { return reinterpret_cast<std::uint64_t>(p); }

template <typename T>
T* AsPtr(std::uint64_t v) {
  return reinterpret_cast<T*>(v);
}

}  // namespace

PosixApi::PosixApi(ukplat::Clock* clock, vfscore::Vfs* vfs, uknet::NetStack* net,
                   DispatchMode mode, uksched::Scheduler* sched)
    : clock_(clock), shim_(clock, mode, sched), vfs_(vfs), net_(net) {
  RegisterHandlers();
}

int PosixApi::SetBlocking(int fd, bool blocking) {
  if (!fdtab_.InUse(fd)) {
    return static_cast<int>(Err(ukarch::Status::kBadF));
  }
  if (blocking_.size() < fdtab_.capacity()) {
    blocking_.resize(fdtab_.capacity(), 0);
  }
  blocking_[static_cast<std::size_t>(fd)] = blocking ? 1 : 0;
  return 0;
}

bool PosixApi::IsBlocking(int fd) const {
  return fd >= 0 && static_cast<std::size_t>(fd) < blocking_.size() &&
         blocking_[static_cast<std::size_t>(fd)] != 0;
}

bool PosixApi::ShouldBlock(int fd) const {
  return IsBlocking(fd) && net_ != nullptr && net_->CanBlock();
}

// ---- readiness multiplexing --------------------------------------------------------

uknet::EventMask PosixApi::ReadyMask(int fd) const {
  if (auto tcp = fdtab_.Get<uknet::TcpSocket>(fd)) {
    uknet::EventMask m = 0;
    if (tcp->failed()) {
      m |= uknet::kEvtErr | uknet::kEvtHup;
    }
    if (tcp->readable()) {
      m |= uknet::kEvtReadable;
    }
    if (tcp->peer_closed()) {
      m |= uknet::kEvtHup;  // drained data stays readable alongside the hup
    }
    const uknet::TcpState st = tcp->state();
    if (!tcp->failed() && tcp->send_space() > 0 &&
        (st == uknet::TcpState::kEstablished || st == uknet::TcpState::kCloseWait)) {
      m |= uknet::kEvtWritable;
    }
    return m;
  }
  if (auto udp = fdtab_.Get<uknet::UdpSocket>(fd)) {
    // Datagram sends go straight to a TX netbuf (or fail transiently); treat
    // the socket as always writable, like the kernel does for UDP.
    uknet::EventMask m = uknet::kEvtWritable;
    if (udp->readable()) {
      m |= uknet::kEvtReadable;
    }
    return m;
  }
  if (auto lst = fdtab_.Get<uknet::TcpListener>(fd)) {
    return lst->backlog() > 0 ? (uknet::kEvtAcceptable | uknet::kEvtReadable) : 0;
  }
  if (fdtab_.Get<vfscore::File>(fd) != nullptr) {
    return uknet::kEvtReadable | uknet::kEvtWritable;  // RAM-backed: never blocks
  }
  return 0;  // pending sockets, epoll instances, free slots
}

std::uint64_t PosixApi::DeadlineFor(std::uint64_t timeout_cycles) const {
  if (timeout_cycles == kNoTimeout) {
    return kNoTimeout;
  }
  const std::uint64_t now = clock_->cycles();
  return timeout_cycles >= kNoTimeout - now ? kNoTimeout : now + timeout_cycles;
}

void PosixApi::WaitFdReady(int fd, uknet::EventMask want) {
  fdtab_.Watch(fd);
  const std::uint32_t gen = fdtab_.generation(fd);
  want |= uknet::kEvtErr | uknet::kEvtHup;  // teardown always ends a wait
  while ((ReadyMask(fd) & want) == 0) {
    if (!fdtab_.InUse(fd) || fdtab_.generation(fd) != gen) {
      // Closed under the sleeper (possibly reused for a different socket):
      // stop waiting — the caller retries and reports on the fd's NEW state
      // instead of hanging on the old socket's readiness.
      return;
    }
    // Frames, registered-socket edges and TCP timers all end this sleep; the
    // level is re-derived on every wake, so spurious wakeups are harmless.
    net_->PollWait();
  }
}

int PosixApi::ScanPoll(std::span<PollFd> fds) {
  int ready = 0;
  for (PollFd& p : fds) {
    if (p.fd < 0) {
      p.revents = 0;  // POSIX: negative fds mark ignored entries
      continue;
    }
    if (!fdtab_.InUse(p.fd)) {
      p.revents = uknet::kEvtErr;  // POLLNVAL-equivalent: report, never hang
      ++ready;
      continue;
    }
    fdtab_.Watch(p.fd);
    fdtab_.TakeEdges(p.fd);  // consumed: the level below carries the report
    p.revents = ReadyMask(p.fd) & (p.events | uknet::kEvtErr | uknet::kEvtHup);
    if (p.revents != 0) {
      ++ready;
    }
  }
  return ready;
}

int PosixApi::ScanEpoll(EpollInstance& inst, std::span<EpollEvent> out) {
  if (out.empty() || inst.interest.empty()) {
    return 0;
  }
  // Rotate the scan start across calls: when more descriptors are ready than
  // |out| holds, successive waits cycle through them instead of starving the
  // high-numbered fds (the multi-fd fairness rule).
  int n = 0;
  int last_reported = inst.rotor;
  auto it = inst.interest.upper_bound(inst.rotor);
  std::size_t steps = inst.interest.size();
  while (steps-- > 0 && n < static_cast<int>(out.size()) && !inst.interest.empty()) {
    if (it == inst.interest.end()) {
      it = inst.interest.begin();
    }
    const int fd = it->first;
    const EpollInterest& interest = it->second;
    if (!fdtab_.InUse(fd) || fdtab_.generation(fd) != interest.gen) {
      // The descriptor was closed (and possibly reused for a different
      // socket): the registration is stale — prune it, deliver nothing.
      it = inst.interest.erase(it);
      continue;
    }
    fdtab_.TakeEdges(fd);
    uknet::EventMask m =
        ReadyMask(fd) & (interest.events | uknet::kEvtErr | uknet::kEvtHup);
    if (m != 0) {
      out[n].fd = fd;
      out[n].events = m;
      out[n].data = interest.data;
      ++n;
      last_reported = fd;
    }
    ++it;
  }
  if (n > 0) {
    inst.rotor = last_reported;
  }
  return n;
}

void PosixApi::RegisterHandlers() {
  // ---- file handlers ----
  shim_.Register(SyscallNumber("open"), [this](const SyscallArgs& a) -> std::int64_t {
    auto* path = AsPtr<const char>(a.a0);
    std::shared_ptr<vfscore::File> file;
    ukarch::Status st = vfs_->Open(std::string_view(path, a.a1),
                                   static_cast<std::uint32_t>(a.a2), &file);
    if (!Ok(st)) {
      return Err(st);
    }
    return fdtab_.Install(std::move(file));
  });
  shim_.Register(SyscallNumber("read"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    return file->Read(std::span(AsPtr<std::byte>(a.a1), a.a2));
  });
  shim_.Register(SyscallNumber("write"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    return file->Write(std::span(AsPtr<const std::byte>(a.a1), a.a2));
  });
  shim_.Register(SyscallNumber("pread64"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    return file->ReadAt(a.a3, std::span(AsPtr<std::byte>(a.a1), a.a2));
  });
  shim_.Register(SyscallNumber("pwrite64"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    return file->WriteAt(a.a3, std::span(AsPtr<const std::byte>(a.a1), a.a2));
  });
  shim_.Register(SyscallNumber("lseek"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    auto whence = static_cast<vfscore::File::Whence>(a.a2);
    return file->Seek(static_cast<std::int64_t>(a.a1), whence);
  });
  shim_.Register(SyscallNumber("close"), [this](const SyscallArgs& a) -> std::int64_t {
    const int fd = static_cast<int>(a.a0);
    if (fd >= 0 && static_cast<std::size_t>(fd) < blocking_.size()) {
      blocking_[static_cast<std::size_t>(fd)] = 0;  // flags never survive reuse
    }
    return Err(fdtab_.Close(fd));
  });
  shim_.Register(SyscallNumber("stat"), [this](const SyscallArgs& a) -> std::int64_t {
    auto* path = AsPtr<const char>(a.a0);
    return Err(vfs_->Stat(std::string_view(path, a.a1),
                          AsPtr<vfscore::NodeStat>(a.a2)));
  });
  shim_.Register(SyscallNumber("unlink"), [this](const SyscallArgs& a) -> std::int64_t {
    auto* path = AsPtr<const char>(a.a0);
    return Err(vfs_->Unlink(std::string_view(path, a.a1)));
  });
  shim_.Register(SyscallNumber("mkdir"), [this](const SyscallArgs& a) -> std::int64_t {
    auto* path = AsPtr<const char>(a.a0);
    return Err(vfs_->Mkdir(std::string_view(path, a.a1)));
  });
  shim_.Register(SyscallNumber("fsync"), [this](const SyscallArgs& a) -> std::int64_t {
    auto file = fdtab_.Get<vfscore::File>(static_cast<int>(a.a0));
    if (file == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    // File::Fsync enforces the write-mode check (EBADF on a read-only fd)
    // and forwards to the node — a ukblockdev flush barrier on block-backed
    // filesystems, a no-op on memory-backed ones.
    return Err(file->Fsync());
  });
  shim_.Register(SyscallNumber("getpid"), [](const SyscallArgs&) -> std::int64_t {
    return 1;  // single-application domain: PID 1, always
  });

  // ---- socket handlers ----
  shim_.Register(SyscallNumber("socket"), [this](const SyscallArgs& a) -> std::int64_t {
    auto pending = std::make_shared<PendingSocket>();
    pending->is_stream = a.a0 == static_cast<std::uint64_t>(SockType::kStream);
    return fdtab_.Install(std::move(pending));
  });
  shim_.Register(SyscallNumber("bind"), [this](const SyscallArgs& a) -> std::int64_t {
    int fd = static_cast<int>(a.a0);
    auto pending = fdtab_.Get<PendingSocket>(fd);
    if (pending == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    auto port = static_cast<std::uint16_t>(a.a1);
    if (!pending->is_stream) {
      // Datagram sockets materialize at bind time.
      auto udp = net_->UdpOpen();
      ukarch::Status st = udp->Bind(port);
      if (!Ok(st)) {
        return Err(st);
      }
      fdtab_.Replace(fd, std::move(udp));
      return 0;
    }
    pending->bound_port = port;
    return 0;
  });
  shim_.Register(SyscallNumber("listen"), [this](const SyscallArgs& a) -> std::int64_t {
    int fd = static_cast<int>(a.a0);
    auto pending = fdtab_.Get<PendingSocket>(fd);
    if (pending == nullptr || !pending->is_stream || pending->bound_port == 0) {
      return Err(ukarch::Status::kBadF);
    }
    auto listener = net_->TcpListen(pending->bound_port);
    if (listener == nullptr) {
      return Err(ukarch::Status::kAddrInUse);
    }
    fdtab_.Replace(fd, std::move(listener));
    return 0;
  });
  shim_.Register(SyscallNumber("accept"), [this](const SyscallArgs& a) -> std::int64_t {
    const int fd = static_cast<int>(a.a0);
    auto listener = fdtab_.Get<uknet::TcpListener>(fd);
    if (listener == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    net_->Poll();
    for (;;) {
      auto conn = listener->Accept();
      if (conn != nullptr) {
        return fdtab_.Install(std::move(conn));
      }
      if (!ShouldBlock(fd)) {
        return Err(ukarch::Status::kAgain);
      }
      // Blocking accept is a one-descriptor wait on the readiness machinery:
      // sleep until the listener's level shows kEvtAcceptable, then retry.
      WaitFdReady(fd, uknet::kEvtAcceptable);
    }
  });
  shim_.Register(SyscallNumber("connect"), [this](const SyscallArgs& a) -> std::int64_t {
    int fd = static_cast<int>(a.a0);
    auto pending = fdtab_.Get<PendingSocket>(fd);
    if (pending == nullptr || !pending->is_stream) {
      return Err(ukarch::Status::kBadF);
    }
    auto conn = net_->TcpConnect(static_cast<uknet::Ip4Addr>(a.a1),
                                 static_cast<std::uint16_t>(a.a2));
    if (conn == nullptr) {
      return Err(ukarch::Status::kNetUnreach);
    }
    fdtab_.Replace(fd, std::move(conn));
    return Err(ukarch::Status::kInProgress);  // non-blocking connect
  });
  shim_.Register(SyscallNumber("sendto"), [this](const SyscallArgs& a) -> std::int64_t {
    auto udp = fdtab_.Get<uknet::UdpSocket>(static_cast<int>(a.a0));
    if (udp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    return udp->SendTo(static_cast<uknet::Ip4Addr>(a.a4),
                       static_cast<std::uint16_t>(a.a5),
                       std::span(AsPtr<const std::uint8_t>(a.a1), a.a2));
  });
  shim_.Register(SyscallNumber("recvfrom"), [this](const SyscallArgs& a) -> std::int64_t {
    const int fd = static_cast<int>(a.a0);
    auto udp = fdtab_.Get<uknet::UdpSocket>(fd);
    if (udp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    net_->Poll();
    // Zero-allocation receive: the payload is copied once, straight from the
    // driver netbuf into the caller's buffer (the syscall-boundary copy).
    for (;;) {
      std::int64_t n = udp->RecvInto(std::span(AsPtr<std::uint8_t>(a.a1), a.a2),
                                     a.a4 != 0 ? AsPtr<uknet::Ip4Addr>(a.a4) : nullptr,
                                     a.a5 != 0 ? AsPtr<std::uint16_t>(a.a5) : nullptr);
      if (n != Err(ukarch::Status::kAgain) || !ShouldBlock(fd)) {
        return n;
      }
      WaitFdReady(fd, uknet::kEvtReadable);  // one-fd wait: halt until a datagram
    }
  });
  shim_.Register(SyscallNumber("sendmmsg"), [this](const SyscallArgs& a) -> std::int64_t {
    auto udp = fdtab_.Get<uknet::UdpSocket>(static_cast<int>(a.a0));
    if (udp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    // Batched TX all the way down: the caller's scatter array is the stack's
    // own view type, and the whole batch rides UdpSocket::SendToBatch — one
    // netbuf per datagram, one TxBurst per chunk instead of one per packet.
    std::int64_t sent = udp->SendToBatch(
        static_cast<uknet::Ip4Addr>(a.a4), static_cast<std::uint16_t>(a.a5),
        std::span(AsPtr<const MmsgVec>(a.a1), a.a2));
    return sent < 0 ? 0 : sent;  // nothing accepted reports an empty batch
  });
  shim_.Register(SyscallNumber("recvmmsg"), [this](const SyscallArgs& a) -> std::int64_t {
    const int fd = static_cast<int>(a.a0);
    auto udp = fdtab_.Get<uknet::UdpSocket>(fd);
    if (udp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    net_->Poll();
    // Batched receive: one stack poll for the whole batch, then each datagram
    // copied once from its netbuf into the caller's scatter array. Blocking
    // mode sleeps until at least one datagram is in, then takes the batch.
    if (!udp->readable() && ShouldBlock(fd)) {
      WaitFdReady(fd, uknet::kEvtReadable);
    }
    auto* msgs = AsPtr<MmsgRecv>(a.a1);
    std::int64_t got = 0;
    for (std::uint64_t i = 0; i < a.a2; ++i) {
      std::int64_t n = udp->RecvInto(std::span(msgs[i].data, msgs[i].cap),
                                     &msgs[i].src_ip, &msgs[i].src_port,
                                     &msgs[i].rx_queue);
      if (n < 0) {
        break;
      }
      msgs[i].len = static_cast<std::size_t>(n);
      ++got;
    }
    return got == 0 ? Err(ukarch::Status::kAgain) : got;
  });
  auto tcp_send = [this](const SyscallArgs& a) -> std::int64_t {
    auto tcp = fdtab_.Get<uknet::TcpSocket>(static_cast<int>(a.a0));
    if (tcp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    std::int64_t n = tcp->Send(std::span(AsPtr<const std::uint8_t>(a.a1), a.a2));
    if (n == 0 && a.a2 > 0) {
      // Send accepted nothing: the retransmission queue is at capacity or
      // the TX netbuf pool ran dry. Both are transient backpressure — ACKs
      // release retained buffers back to the pool — so both map to EAGAIN.
      return Err(ukarch::Status::kAgain);
    }
    return n;
  };
  auto tcp_recv = [this](const SyscallArgs& a) -> std::int64_t {
    const int fd = static_cast<int>(a.a0);
    auto tcp = fdtab_.Get<uknet::TcpSocket>(fd);
    if (tcp == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    // No stack pass here: a non-blocking reader's frames arrive through its
    // multiplexer's pass (epoll_wait/poll), and a blocking reader drives the
    // stack from WaitFdReady's PollWait only when the socket is empty.
    for (;;) {
      std::int64_t n = tcp->Recv(std::span(AsPtr<std::uint8_t>(a.a1), a.a2));
      if (n != Err(ukarch::Status::kAgain) || !ShouldBlock(fd)) {
        return n;  // data, FIN (0) and errors all end a blocking recv
      }
      // One-fd wait; PollWait's deadline folds in this connection's RTO, so
      // a blocked reader still drives its own retransmissions.
      WaitFdReady(fd, uknet::kEvtReadable);
    }
  };
  shim_.Register(SyscallNumber("sendmsg"), tcp_send);
  shim_.Register(SyscallNumber("recvmsg"), tcp_recv);

  // ---- readiness multiplexing handlers ----
  shim_.Register(SyscallNumber("poll"), [this](const SyscallArgs& a) -> std::int64_t {
    std::span<PollFd> fds(AsPtr<PollFd>(a.a1), a.a2);
    const std::uint64_t timeout = a.a3;
    const std::uint64_t deadline = DeadlineFor(timeout);
    if (net_ != nullptr) {
      net_->Poll();
    }
    for (;;) {
      int ready = ScanPoll(fds);
      if (ready > 0 || timeout == 0 || net_ == nullptr || !net_->CanBlock()) {
        return ready;  // without a scheduler this degrades to one scan pass
      }
      const std::uint64_t now = clock_->cycles();
      if (deadline != kNoTimeout && now >= deadline) {
        return 0;
      }
      net_->PollWait(uknet::NetStack::kAllQueues,
                     deadline == kNoTimeout ? uknet::NetStack::kNoDeadline
                                            : deadline - now);
    }
  });
  shim_.Register(SyscallNumber("epoll_create1"),
                 [this](const SyscallArgs&) -> std::int64_t {
                   return fdtab_.Install(std::make_shared<EpollInstance>());
                 });
  shim_.Register(SyscallNumber("epoll_ctl"), [this](const SyscallArgs& a) -> std::int64_t {
    auto inst = fdtab_.Get<EpollInstance>(static_cast<int>(a.a0));
    if (inst == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    const auto op = static_cast<EpollOp>(a.a1);
    const int fd = static_cast<int>(a.a2);
    auto it = inst->interest.find(fd);
    // An entry that survived a Close of its descriptor is stale even if the
    // number is in use again: it never matches and never delivers.
    const bool present = it != inst->interest.end() && fdtab_.InUse(fd) &&
                         fdtab_.generation(fd) == it->second.gen;
    switch (op) {
      case EpollOp::kAdd: {
        if (present) {
          return Err(ukarch::Status::kExist);
        }
        if (!fdtab_.Watch(fd)) {
          return Err(ukarch::Status::kBadF);
        }
        inst->interest[fd] =
            EpollInterest{static_cast<uknet::EventMask>(a.a3), a.a4,
                          fdtab_.generation(fd)};
        return 0;
      }
      case EpollOp::kMod:
        if (!present) {
          return Err(ukarch::Status::kNoEnt);
        }
        it->second.events = static_cast<uknet::EventMask>(a.a3);
        it->second.data = a.a4;
        return 0;
      case EpollOp::kDel:
        if (it == inst->interest.end()) {
          return Err(ukarch::Status::kNoEnt);
        }
        inst->interest.erase(it);
        return 0;
    }
    return Err(ukarch::Status::kInval);
  });
  shim_.Register(SyscallNumber("epoll_wait"), [this](const SyscallArgs& a) -> std::int64_t {
    auto inst = fdtab_.Get<EpollInstance>(static_cast<int>(a.a0));
    if (inst == nullptr) {
      return Err(ukarch::Status::kBadF);
    }
    std::span<EpollEvent> out(AsPtr<EpollEvent>(a.a1), a.a2);
    if (out.empty()) {
      return Err(ukarch::Status::kInval);  // a 0-slot wait could never end
    }
    const std::uint64_t timeout = a.a3;
    const std::uint64_t deadline = DeadlineFor(timeout);
    // Queue affinity: when every live interest entry is a TCP connection
    // pinned to the same RSS queue, this loop owns that queue outright and
    // can sleep on its private wait line instead of the shared any-queue one
    // (no thundering herd across per-queue loops; socket edges and ring
    // doorbells still end a pinned sleep). One non-affine fd — a listener,
    // a UDP socket, a file — forces kAllQueues: its events can originate on
    // any queue.
    std::uint16_t wait_queue = uknet::NetStack::kAllQueues;
    bool affine = true;
    for (const auto& [ifd, interest] : inst->interest) {
      if (!fdtab_.InUse(ifd) || fdtab_.generation(ifd) != interest.gen) {
        continue;  // stale entry: delivers nothing, constrains nothing
      }
      const int q = fdtab_.FdQueue(ifd);
      if (q == FdTable::kNoQueueAffinity ||
          (wait_queue != uknet::NetStack::kAllQueues &&
           wait_queue != static_cast<std::uint16_t>(q))) {
        affine = false;
        break;
      }
      wait_queue = static_cast<std::uint16_t>(q);
    }
    if (!affine) {
      wait_queue = uknet::NetStack::kAllQueues;
    }
    if (net_ != nullptr) {
      net_->Poll();
    }
    for (;;) {
      int n = ScanEpoll(*inst, out);
      if (n > 0 || timeout == 0 || net_ == nullptr || !net_->CanBlock()) {
        return n;
      }
      const std::uint64_t now = clock_->cycles();
      if (deadline != kNoTimeout && now >= deadline) {
        return 0;
      }
      // The multiplexed sleep of the whole design: one thread, any number of
      // watched descriptors, parked in PollWait until a frame, a TCP timer,
      // or a registered socket edge ends it.
      net_->PollWait(wait_queue,
                     deadline == kNoTimeout ? uknet::NetStack::kNoDeadline
                                            : deadline - now);
    }
  });
}

// ---- public wrappers: marshal into the register ABI ------------------------------

int PosixApi::Open(std::string_view path, std::uint32_t flags) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("open"), SyscallArgs{Ptr(path.data()), path.size(), flags}));
}

std::int64_t PosixApi::Read(int fd, std::span<std::byte> out) {
  return shim_.Call(SyscallNumber("read"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(out.data()),
                                out.size()});
}

std::int64_t PosixApi::Write(int fd, std::span<const std::byte> in) {
  return shim_.Call(SyscallNumber("write"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(in.data()),
                                in.size()});
}

std::int64_t PosixApi::Pread(int fd, std::uint64_t off, std::span<std::byte> out) {
  return shim_.Call(SyscallNumber("pread64"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(out.data()),
                                out.size(), off});
}

std::int64_t PosixApi::Lseek(int fd, std::int64_t off, int whence) {
  return shim_.Call(SyscallNumber("lseek"),
                    SyscallArgs{static_cast<std::uint64_t>(fd),
                                static_cast<std::uint64_t>(off),
                                static_cast<std::uint64_t>(whence)});
}

int PosixApi::Close(int fd) {
  return static_cast<int>(
      shim_.Call(SyscallNumber("close"), SyscallArgs{static_cast<std::uint64_t>(fd)}));
}

int PosixApi::Stat(std::string_view path, vfscore::NodeStat* out) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("stat"), SyscallArgs{Ptr(path.data()), path.size(), Ptr(out)}));
}

int PosixApi::Unlink(std::string_view path) {
  return static_cast<int>(shim_.Call(SyscallNumber("unlink"),
                                     SyscallArgs{Ptr(path.data()), path.size()}));
}

int PosixApi::Mkdir(std::string_view path) {
  return static_cast<int>(shim_.Call(SyscallNumber("mkdir"),
                                     SyscallArgs{Ptr(path.data()), path.size()}));
}

int PosixApi::Fsync(int fd) {
  return static_cast<int>(
      shim_.Call(SyscallNumber("fsync"), SyscallArgs{static_cast<std::uint64_t>(fd)}));
}

int PosixApi::Socket(SockType type) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("socket"), SyscallArgs{static_cast<std::uint64_t>(type)}));
}

int PosixApi::Bind(int fd, std::uint16_t port) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("bind"), SyscallArgs{static_cast<std::uint64_t>(fd), port}));
}

int PosixApi::Listen(int fd) {
  return static_cast<int>(
      shim_.Call(SyscallNumber("listen"), SyscallArgs{static_cast<std::uint64_t>(fd)}));
}

int PosixApi::Accept(int fd) {
  return static_cast<int>(
      shim_.Call(SyscallNumber("accept"), SyscallArgs{static_cast<std::uint64_t>(fd)}));
}

int PosixApi::Connect(int fd, uknet::Ip4Addr ip, std::uint16_t port) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("connect"),
      SyscallArgs{static_cast<std::uint64_t>(fd), ip, port}));
}

std::int64_t PosixApi::Send(int fd, std::span<const std::uint8_t> data) {
  return shim_.Call(SyscallNumber("sendmsg"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(data.data()),
                                data.size()});
}

std::int64_t PosixApi::Recv(int fd, std::span<std::uint8_t> out) {
  return shim_.Call(SyscallNumber("recvmsg"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(out.data()),
                                out.size()});
}

std::int64_t PosixApi::SendTo(int fd, uknet::Ip4Addr ip, std::uint16_t port,
                              std::span<const std::uint8_t> data) {
  return shim_.Call(SyscallNumber("sendto"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(data.data()),
                                data.size(), 0, ip, port});
}

std::int64_t PosixApi::RecvFrom(int fd, std::span<std::uint8_t> out,
                                uknet::Ip4Addr* src_ip, std::uint16_t* src_port) {
  return shim_.Call(SyscallNumber("recvfrom"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(out.data()),
                                out.size(), 0, Ptr(src_ip), Ptr(src_port)});
}

std::int64_t PosixApi::SendMmsg(int fd, uknet::Ip4Addr ip, std::uint16_t port,
                                std::span<const MmsgVec> msgs) {
  return shim_.Call(SyscallNumber("sendmmsg"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(msgs.data()),
                                msgs.size(), 0, ip, port});
}

std::int64_t PosixApi::RecvMmsg(int fd, std::span<MmsgRecv> msgs) {
  return shim_.Call(SyscallNumber("recvmmsg"),
                    SyscallArgs{static_cast<std::uint64_t>(fd), Ptr(msgs.data()),
                                msgs.size()});
}

int PosixApi::Poll(std::span<PollFd> fds, std::uint64_t timeout_cycles) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("poll"),
      SyscallArgs{0, Ptr(fds.data()), fds.size(), timeout_cycles}));
}

int PosixApi::EpollCreate() {
  return static_cast<int>(shim_.Call(SyscallNumber("epoll_create1")));
}

int PosixApi::EpollCtl(int epfd, EpollOp op, int fd, uknet::EventMask events,
                       std::uint64_t data) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("epoll_ctl"),
      SyscallArgs{static_cast<std::uint64_t>(epfd), static_cast<std::uint64_t>(op),
                  static_cast<std::uint64_t>(fd), events, data}));
}

int PosixApi::EpollWait(int epfd, std::span<EpollEvent> out,
                        std::uint64_t timeout_cycles) {
  return static_cast<int>(shim_.Call(
      SyscallNumber("epoll_wait"),
      SyscallArgs{static_cast<std::uint64_t>(epfd), Ptr(out.data()), out.size(),
                  timeout_cycles}));
}

}  // namespace posix
