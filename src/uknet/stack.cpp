#include "uknet/stack.h"

#include <algorithm>
#include <cstring>

#include "ukarch/hash.h"

namespace uknet {

bool NetStack::SendTcpHeaderOnly(NetIf* netif, Ip4Addr dst, const TcpHeader& hdr,
                                 std::uint16_t queue) {
  // Sized to the header the caller built: SYN/SYN|ACK segments carry the
  // MSS/wscale/SACK-permitted offers, ACKs may carry SACK blocks — the data
  // offset and checksum come out of Serialize either way.
  const std::uint32_t hdr_bytes = static_cast<std::uint32_t>(hdr.HeaderBytes());
  uknetdev::NetBuf* nb = netif->AllocTxBuf(hdr_bytes, queue);
  if (nb == nullptr) {
    return false;
  }
  std::uint8_t* at = nb->PrependHeader(*mem_, hdr_bytes);
  if (at == nullptr) {
    netif->FreeTxBuf(nb);
    return false;
  }
  hdr.Serialize(at, netif->ip(), dst, {});
  return netif->SendIpBuf(dst, kIpProtoTcp, nb, queue);
}

// The wscale shift to offer for a receive buffer of |recv_cap| bytes: the
// smallest shift whose scaled 16-bit field can still advertise the whole
// buffer (RFC 7323 caps the shift at 14). A 64KB default buffer yields
// shift 0 — the option is still sent (it enables the peer's side), and the
// window values stay bit-identical to the unscaled stack.
static std::int8_t WscaleFor(std::size_t recv_cap) {
  std::int8_t s = 0;
  while (s < 14 && ((recv_cap - 1) >> s) > 0xffff) {
    ++s;
  }
  return s;
}

// ---- readiness events -------------------------------------------------------------
//
// Every socket kind funnels its edges through the same two steps: deliver to
// the registered sink (wakeup-grade work only), then bump the stack's event
// sequence so PollWait sleepers rescan.

void SocketEventSource::Raise(NetStack* stack, EventMask events) {
  if (sink_ == nullptr) {
    return;
  }
  sink_->OnSocketEvent(sink_token_, events);
  stack->NotifySocketEvent();
}

void NetStack::NotifySocketEvent() {
  // Release: the socket-state change behind the edge happens-before any
  // waiter that observes the bumped sequence (acquire) and rescans.
  event_seq_.fetch_add(1, std::memory_order_release);
  // Wake every sleeper: the socket an edge belongs to is not tied to the
  // queue a waiter picked (a server socket fans in flows from all queues).
  // Spurious wakes are resolved by the waiters' own readiness rescans.
  for (auto& wq : rx_waits_) {
    if (wq != nullptr) {
      wq->Wake();
    }
  }
  if (any_wait_ != nullptr) {
    any_wait_->Wake();
  }
}

// ---- UDP socket -------------------------------------------------------------------

UdpSocket::~UdpSocket() {
  // Queued datagram views still own driver netbufs.
  for (DatagramView& view : rx_) {
    if (view.nb != nullptr && view.nb->pool != nullptr) {
      view.nb->pool->Free(view.nb);
    }
  }
}

ukarch::Status UdpSocket::Bind(std::uint16_t port) {
  if (explicitly_bound_) {
    return ukarch::Status::kInval;  // one explicit bind per socket
  }
  if (stack_->udp_ports_.Read()->contains(port)) {
    return ukarch::Status::kAddrInUse;
  }
  // Re-register under the requested port (the stack holds the shared_ptr):
  // one copy-on-write pass unlinks the old key and publishes the new one.
  ukarch::Status result = ukarch::Status::kBadF;
  stack_->udp_ports_.Update([&](auto& ports) {
    for (auto it = ports.begin(); it != ports.end(); ++it) {
      if (it->second.get() == this) {
        auto self = it->second;
        ports.erase(it);
        port_ = port;
        explicitly_bound_ = true;
        ports[port] = std::move(self);
        result = ukarch::Status::kOk;
        return;
      }
    }
  });
  return result;
}

std::int64_t UdpSocket::SendTo(Ip4Addr dst, std::uint16_t dst_port,
                               std::span<const std::uint8_t> payload) {
  NetIf* netif = stack_->RouteTo(dst);
  if (netif == nullptr) {
    return ukarch::Raw(ukarch::Status::kNetUnreach);
  }
  // Zero-copy TX: the payload is written once, straight into the netbuf that
  // goes to the device; the UDP header (and below it IP + Ethernet) is
  // prepended in place in the buffer's headroom reservation. The flow hash
  // steers the datagram onto its queue — the same queue the peer's replies
  // will arrive on.
  const std::uint16_t queue = netif->TxQueueFor(dst, port_, dst_port);
  uknetdev::NetBuf* nb = netif->AllocTxBuf(kUdpHdrBytes, queue);
  if (nb == nullptr) {
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  std::uint8_t* body =
      nb->Append(*stack_->mem(), static_cast<std::uint32_t>(payload.size()));
  if (body == nullptr) {
    netif->FreeTxBuf(nb);
    return ukarch::Raw(ukarch::Status::kInval);
  }
  if (!payload.empty()) {
    std::memcpy(body, payload.data(), payload.size());
  }
  UdpHeader hdr;
  hdr.src_port = port_;
  hdr.dst_port = dst_port;
  std::uint8_t* hdr_at = nb->PrependHeader(*stack_->mem(), kUdpHdrBytes);
  if (hdr_at == nullptr) {
    netif->FreeTxBuf(nb);
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  hdr.Serialize(hdr_at, netif->ip(), dst, std::span(body, payload.size()));
  stack_->stats_.Add(&NetStack::StackStats::udp_tx);
  if (!netif->SendIpBuf(dst, kIpProtoUdp, nb, queue)) {
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  return static_cast<std::int64_t>(payload.size());
}

std::int64_t UdpSocket::SendToBatch(Ip4Addr dst, std::uint16_t dst_port,
                                    std::span<const DatagramVec> msgs) {
  NetIf* netif = stack_->RouteTo(dst);
  if (netif == nullptr) {
    return ukarch::Raw(ukarch::Status::kNetUnreach);
  }
  const std::uint16_t queue = netif->TxQueueFor(dst, port_, dst_port);
  constexpr std::size_t kChunk = 64;
  uknetdev::NetBuf* pkts[kChunk];
  std::int64_t accepted = 0;
  std::size_t i = 0;
  while (i < msgs.size()) {
    // Build up to one chunk of UDP datagrams (payload written once, headers
    // prepended in place), then burst the chunk in a single TxBurst.
    std::uint16_t built = 0;
    while (built < kChunk && i < msgs.size()) {
      const DatagramVec& msg = msgs[i];
      uknetdev::NetBuf* nb = netif->AllocTxBuf(kUdpHdrBytes, queue);
      if (nb == nullptr) {
        break;  // pool dry: burst what we have, report the partial batch
      }
      std::uint8_t* body =
          nb->Append(*stack_->mem(), static_cast<std::uint32_t>(msg.len));
      std::uint8_t* hdr_at =
          body != nullptr ? nb->PrependHeader(*stack_->mem(), kUdpHdrBytes) : nullptr;
      if (hdr_at == nullptr) {
        netif->FreeTxBuf(nb);
        break;
      }
      if (msg.len > 0) {
        std::memcpy(body, msg.data, msg.len);
      }
      UdpHeader hdr;
      hdr.src_port = port_;
      hdr.dst_port = dst_port;
      hdr.Serialize(hdr_at, netif->ip(), dst, std::span(body, msg.len));
      pkts[built++] = nb;
      ++i;
    }
    if (built == 0) {
      break;
    }
    std::uint16_t sent = netif->SendIpBatch(dst, kIpProtoUdp, pkts, built, queue);
    stack_->stats_.Add(&NetStack::StackStats::udp_tx, sent);
    accepted += sent;
    if (sent < built) {
      break;
    }
  }
  if (accepted == 0 && !msgs.empty()) {
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  return accepted;
}

std::int64_t UdpSocket::RecvInto(std::span<std::uint8_t> out, Ip4Addr* src_ip,
                                 std::uint16_t* src_port, std::uint16_t* rx_queue) {
  if (rx_.empty()) {
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  DatagramView& view = rx_.front();
  std::size_t n = view.len < out.size() ? view.len : out.size();
  if (n > 0) {
    std::memcpy(out.data(), view.data, n);
  }
  if (src_ip != nullptr) {
    *src_ip = view.src_ip;
  }
  if (src_port != nullptr) {
    *src_port = view.src_port;
  }
  if (rx_queue != nullptr) {
    *rx_queue = view.rx_queue;
  }
  if (view.nb != nullptr && view.nb->pool != nullptr) {
    view.nb->pool->Free(view.nb);
  }
  rx_.pop_front();
  return static_cast<std::int64_t>(n);
}

std::size_t UdpSocket::PeekBatch(const DatagramView** out, std::size_t max) const {
  std::size_t n = 0;
  for (const DatagramView& view : rx_) {
    if (n >= max) {
      break;
    }
    out[n++] = &view;
  }
  return n;
}

void UdpSocket::ReleaseFront(std::size_t n) {
  for (std::size_t i = 0; i < n && !rx_.empty(); ++i) {
    DatagramView& view = rx_.front();
    if (view.nb != nullptr && view.nb->pool != nullptr) {
      view.nb->pool->Free(view.nb);
    }
    rx_.pop_front();
  }
}

std::optional<Datagram> UdpSocket::RecvFrom() {
  if (rx_.empty()) {
    return std::nullopt;
  }
  DatagramView& view = rx_.front();
  Datagram d;
  d.src_ip = view.src_ip;
  d.src_port = view.src_port;
  d.payload.assign(view.data, view.data + view.len);
  if (view.nb != nullptr && view.nb->pool != nullptr) {
    view.nb->pool->Free(view.nb);
  }
  rx_.pop_front();
  return d;
}

// ---- listener ----------------------------------------------------------------------

std::shared_ptr<TcpSocket> TcpListener::Accept() {
  if (accept_queue_.empty()) {
    return nullptr;
  }
  auto sock = accept_queue_.front();
  accept_queue_.pop_front();
  return sock;
}

// ---- NetStack ----------------------------------------------------------------------

NetStack::~NetStack() {
  // Application code may hold socket shared_ptrs beyond the stack's life.
  // Release their retained TX netbufs now, while the NetIf pools still
  // exist; the eventual ~TcpSocket then has nothing to free.
  for (const auto& [key, conn] : *tcp_conns_.Read()) {
    conn->ReleaseAllSegments();
  }
  // No loop can be mid-turn here (destruction is single-threaded under the
  // run-to-block contract): drain every retired registry version now, while
  // the sockets they reference still have live pools underneath them.
  rcu_.Synchronize();
}

NetIf* NetStack::AddInterface(uknetdev::NetDev* dev, NetIf::Config config) {
  auto netif = std::make_unique<NetIf>(this, dev, mem_, alloc_, config);
  if (!Ok(netif->Init())) {
    return nullptr;
  }
  netifs_.push_back(std::move(netif));
  EnsureWaitQueues();
  return netifs_.back().get();
}

NetIf* NetStack::RouteTo(Ip4Addr dst) {
  for (auto& netif : netifs_) {
    if (netif->RouteMatches(dst)) {
      return netif.get();
    }
  }
  // Default route: first interface with a gateway.
  for (auto& netif : netifs_) {
    if (netif->config_.gateway != 0) {
      return netif.get();
    }
  }
  return netifs_.empty() ? nullptr : netifs_.front().get();
}

std::shared_ptr<UdpSocket> NetStack::UdpOpen() {
  auto sock = std::shared_ptr<UdpSocket>(new UdpSocket(this));
  std::uint16_t port = AllocEphemeralPort();
  sock->port_ = port;
  udp_ports_.Insert(port, sock);
  return sock;
}

std::shared_ptr<TcpListener> NetStack::TcpListen(std::uint16_t port) {
  if (tcp_listeners_.Read()->contains(port)) {
    return nullptr;
  }
  auto listener = std::shared_ptr<TcpListener>(new TcpListener(this, port));
  tcp_listeners_.Insert(port, listener);
  return listener;
}

std::shared_ptr<TcpSocket> NetStack::TcpConnect(Ip4Addr dst, std::uint16_t port) {
  NetIf* netif = RouteTo(dst);
  if (netif == nullptr) {
    return nullptr;
  }
  auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(this, netif));
  sock->remote_ip_ = dst;
  sock->remote_port_ = port;
  sock->local_port_ = AllocEphemeralPort();
  sock->tx_queue_ = netif->TxQueueFor(dst, sock->local_port_, port);
  std::uint32_t iss = NewIss();
  sock->snd_una_ = iss;
  sock->snd_nxt_ = iss + 1;  // SYN consumes one
  sock->EnterState(TcpState::kSynSent);
  tcp_conns_.Insert(ConnKey{sock->local_port_, dst, port}, sock);
  // SYN segment. The modern stack offers its options here; negotiation
  // completes when the SYN|ACK arrives (TcpSocket::OnSegment). The window
  // field of a SYN is always unscaled — rcv_wscale_ is still 0 here, so
  // AdvertisedWindow() is the raw clamped space.
  TcpHeader hdr;
  hdr.src_port = sock->local_port_;
  hdr.dst_port = port;
  hdr.seq = iss;
  hdr.flags = kTcpSyn;
  hdr.window = sock->AdvertisedWindow();
  if (tcp_modern) {
    hdr.mss = static_cast<std::uint16_t>(TcpSocket::kMss);
    hdr.wscale = WscaleFor(sock->recv_cap_);
    hdr.sack_permitted = true;
    sock->rcv_wscale_offer_ = hdr.wscale;
    sock->sack_offered_ = true;
  }
  ++sock->tcp_stats_.segments_sent;
  SendTcpHeaderOnly(netif, dst, hdr, sock->tx_queue_);
  sock->rtx_epoch_cycles_ = clock_->cycles();
  return sock;
}

bool NetStack::Ping(Ip4Addr dst, std::uint16_t seq) {
  NetIf* netif = RouteTo(dst);
  if (netif == nullptr) {
    return false;
  }
  IcmpEcho echo;
  echo.is_reply = false;
  echo.id = 0x77;
  echo.seq = seq;
  echo.payload = {'u', 'k', 'r', 'a', 'f', 't'};
  return netif->SendIp(dst, kIpProtoIcmp, echo.Serialize());
}

void NetStack::Poll() {
  for (auto& netif : netifs_) {
    netif->Poll();
  }
  RunTcpTimers();
  // Turn boundary: this caller holds no registry snapshot anymore.
  rcu_.Quiescent(kAllQueuesSlot);
}

void NetStack::RunTcpTimers() {
  // Timers, plus TIME_WAIT reaping: a connection lingers registered for a
  // 2MSL-equivalent number of poll cycles so retransmitted FINs are re-ACKed
  // instead of RST; afterwards the key is reclaimed.
  // Iterate the published snapshot (safe even if CheckTimer unlinks a
  // connection — that publishes a NEW version, the one under our feet is
  // immutable) and reap in a single copy-on-write pass.
  std::vector<ConnKey> reap;
  for (const auto& [key, connp] : *tcp_conns_.Read()) {
    TcpSocket& conn = *connp;
    conn.CheckTimer();
    if (conn.state() == TcpState::kTimeWait &&
        (conn.time_wait_polls_left_ == 0 || --conn.time_wait_polls_left_ == 0)) {
      // A zero budget (entry value or counted down) reaps on the next poll,
      // so the knob's minimum means "shortest linger", never "forever".
      reap.push_back(key);
    }
  }
  if (!reap.empty()) {
    tcp_conns_.Update([&](auto& conns) {
      for (const ConnKey& k : reap) {
        conns.erase(k);
      }
    });
  }
}

void NetStack::FlushDelayedAcks(std::uint16_t queue) {
  for (const auto& [key, conn] : *tcp_conns_.Read()) {
    if (queue == kAllQueues || conn->tx_queue_ == queue) {
      conn->FlushDelayedAck();
    }
  }
}

// ---- interrupt-driven idle ---------------------------------------------------------

void NetStack::SetScheduler(uksched::Scheduler* sched) {
  sched_ = sched;
  EnsureWaitQueues();
}

void NetStack::EnsureWaitQueues() {
  if (sched_ == nullptr) {
    return;
  }
  std::uint16_t max_queues = 1;
  for (const auto& netif : netifs_) {
    max_queues = std::max(max_queues, netif->queue_count());
  }
  while (rx_waits_.size() < max_queues) {
    rx_waits_.push_back(std::make_unique<uksched::WaitQueue>(sched_));
  }
  if (any_wait_ == nullptr) {
    any_wait_ = std::make_unique<uksched::WaitQueue>(sched_);
  }
}

void NetStack::WakeRxWaiters(std::uint16_t queue) {
  if (queue < rx_waits_.size() && rx_waits_[queue] != nullptr) {
    rx_waits_[queue]->Wake();
  }
  if (any_wait_ != nullptr) {
    any_wait_->Wake();
  }
}

void NetStack::OnTxPoolRefill(NetIf* netif, std::uint16_t queue) {
  bool raised = false;
  for (const auto& [key, conn] : *tcp_conns_.Read()) {
    if (conn->netif_ == netif && conn->tx_queue_ == queue &&
        conn->tx_pool_starved_) {
      conn->tx_pool_starved_ = false;
      conn->RaiseEvent(kEvtWritable);
      raised = true;
    }
  }
  if (raised) {
    // The kEvtWritable edges above already woke every PollWait sleeper via
    // NotifySocketEvent; nothing more to do.
    return;
  }
  // No starved connection registered (raw netdev apps, UDP senders): ring the
  // queue doorbell so a loop parked on this queue re-runs its TX backlog.
  RaiseQueueEvent(queue);
}

void NetStack::RaiseQueueEvent(std::uint16_t queue) {
  EnsureWaitQueues();
  // Release on both sequences: the producer's work (ring push, fd steer) was
  // published before the ring — a waiter that observes the bump (acquire)
  // sees the work. The arrays are fixed-size, so a producer on a foreign
  // loop never races a resize.
  queue_event_seq_[QueueSlot(queue)].fetch_add(1, std::memory_order_release);
  queue_event_total_.fetch_add(1, std::memory_order_release);
  // Targeted wake: one doorbell, one consumer. The queue's pinned loop is the
  // intended recipient; a single kAllQueues waiter also qualifies (a
  // single-loop deployment parks there). Anything else keeps sleeping.
  if (queue < rx_waits_.size() && rx_waits_[queue] != nullptr) {
    rx_waits_[queue]->WakeOne();
  }
  if (any_wait_ != nullptr) {
    any_wait_->WakeOne();
  }
}

std::uint64_t NetStack::NextTimerDeadline() const {
  std::uint64_t earliest = kNoDeadline;
  for (const auto& [key, conn] : *tcp_conns_.Read()) {
    std::uint64_t d = kNoDeadline;
    if (SeqLt(conn->snd_una_, conn->snd_nxt_)) {
      // RTO of in-flight data, at the connection's current backoff.
      d = conn->rtx_epoch_cycles_ + rto_cycles * conn->rto_backoff_;
      if (tcp_modern && conn->sack_enabled_ && !conn->tlp_probe_sent_ &&
          conn->rto_backoff_ == 1) {
        // Tail-loss probe fires at a quarter RTO; a blocked loop has to wake
        // for it or the probe degenerates back into the full RTO stall it
        // exists to avoid.
        d = std::min(d, conn->rtx_epoch_cycles_ + rto_cycles / 4);
      }
    } else if (conn->state() == TcpState::kTimeWait) {
      // TIME_WAIT reaping counts poll passes, not cycles; bound the sleep so
      // a blocking loop still retires the connection in finite virtual time.
      d = clock_->cycles() + rto_cycles;
    }
    if (conn->delack_pending_ && conn->delack_deadline_ < d) {
      // An owed ACK bounds the sleep too. PollWait flushes its loop's owed
      // ACKs before it parks, so this only bounds sleeps that hold one: a
      // pinned loop parked while another loop's connection owes an ACK, or
      // a caller that blocks outside PollWait.
      d = conn->delack_deadline_;
    }
    earliest = std::min(earliest, d);
  }
  return earliest;
}

std::size_t NetStack::PollWait(std::uint16_t queue, std::uint64_t timeout_cycles) {
  const bool all = queue == kAllQueues;
  // This loop's slot: a pinned waiter owns its queue's, a kAllQueues waiter
  // the shared extra one. It indexes the per-loop wait counters (one writer
  // each) and the RCU slot announced quiescent at every point where the turn
  // provably holds no registry snapshot (before parking, and on return).
  const std::size_t slot = PollSlot(queue);
  ukarch::Counters<WaitStats>& ws = waits_.At(slot);
  auto drain = [&]() -> std::size_t {
    ws.Add(&WaitStats::poll_iterations);
    std::size_t n = 0;
    for (auto& netif : netifs_) {
      n += all ? netif->Poll() : netif->Poll(queue);
    }
    RunTcpTimers();
    return n;
  };
  auto for_each_queue = [&](auto&& fn) {
    const std::uint16_t lo = all ? 0 : queue;
    const std::uint16_t hi =
        all ? static_cast<std::uint16_t>(rx_waits_.size())
            : static_cast<std::uint16_t>(queue + 1);
    for (std::uint16_t q = lo; q < hi; ++q) {
      fn(q);
    }
  };
  auto arm = [&] {
    for (auto& netif : netifs_) {
      for_each_queue([&](std::uint16_t q) { netif->ArmRx(q); });
    }
  };

  std::size_t handled = drain();
  if (handled > 0 || !CanBlock()) {
    rcu_.Quiescent(slot);
    return handled;  // degrades to one Poll-equivalent pass
  }
  uksched::WaitQueue* wq = all ? any_wait_.get()
                               : (queue < rx_waits_.size() ? rx_waits_[queue].get()
                                                           : nullptr);
  if (wq == nullptr) {
    return handled;
  }
  // This sleeper holds the affected lines armed for the whole blocking phase;
  // the matching release on return only disarms lines nobody else holds.
  for_each_queue([&](std::uint16_t q) {
    rx_arm_counts_[QueueSlot(q)].fetch_add(1, std::memory_order_acq_rel);
  });
  // Readiness edges delivered to registered sinks also end this wait: a
  // sibling loop may consume the frames, but the *event* (readable/writable/
  // acceptable) still belongs to this caller's sockets — return so it can
  // rescan instead of sleeping through its own readiness.
  const std::uint64_t events_at_entry =
      event_seq_.load(std::memory_order_acquire);
  // Soft per-queue doorbells (RaiseQueueEvent) end this wait the same way: a
  // pinned waiter watches its own queue's sequence, a kAllQueues waiter the
  // stack-wide sum. Acquire pairs with the producer's release so the woken
  // consumer sees the pushed work.
  auto soft_seq = [&]() -> std::uint64_t {
    if (all) {
      return queue_event_total_.load(std::memory_order_acquire);
    }
    return queue_event_seq_[QueueSlot(queue)].load(std::memory_order_acquire);
  };
  const std::uint64_t soft_at_entry = soft_seq();
  const std::uint64_t now = clock_->cycles();
  const std::uint64_t caller_deadline =
      timeout_cycles >= kNoDeadline - now ? kNoDeadline : now + timeout_cycles;
  for (;;) {
    // Arm-THEN-check: the interrupt line goes live before the verifying
    // drain, so a frame arriving in between either lands in this drain or
    // fires the armed line — it can never be missed (netdev.h rule 3).
    arm();
    handled = drain();
    if (handled > 0) {
      break;
    }
    // A sleeping loop holds no owed ACK: the app had its turn and did not
    // answer, so the ACK goes out bare before the park.
    FlushDelayedAcks(queue);
    const std::uint64_t deadline = std::min(caller_deadline, NextTimerDeadline());
    ws.Add(&WaitStats::blocked_waits);
    // Parking is a quiescent state: every snapshot this turn read is done.
    rcu_.Quiescent(slot);
    const bool woken = wq->WaitTimeout(deadline);
    if (woken) {
      ws.Add(&WaitStats::frame_wakeups);
      handled = drain();  // this RxBurst also re-arms drained lines
      if (soft_seq() != soft_at_entry) {
        ws.Add(&WaitStats::queue_event_wakeups);
        break;  // a doorbell rang for this queue: caller drains its rings
      }
      if (handled > 0 ||
          event_seq_.load(std::memory_order_acquire) != events_at_entry) {
        break;  // frames in hand, or a registered socket has pending events
      }
      // Spurious (another loop drained the frames first): sleep again.
    } else {
      ws.Add(&WaitStats::timer_wakeups);
      handled = drain();  // run the due timer work (RTO retransmit, 2MSL)
      break;  // a deadline fired: hand control back to the caller
    }
  }
  // Interrupts are live only while someone sleeps: disarm each line this
  // caller held once its count drops to zero. A still-blocked sibling
  // (per-queue waiter vs a kAllQueues waiter) keeps its line armed.
  for_each_queue([&](std::uint16_t q) {
    auto& holders = rx_arm_counts_[QueueSlot(q)];
    if (holders.load(std::memory_order_acquire) > 0 &&
        holders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (auto& netif : netifs_) {
        netif->DisarmRx(q);
      }
    }
  });
  rcu_.Quiescent(slot);
  return handled;
}

std::uint16_t NetStack::AllocEphemeralPort() {
  for (int tries = 0; tries < 20000; ++tries) {
    std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65534 ? 49152 : next_ephemeral_ + 1;
    bool used = udp_ports_.Read()->contains(port) ||
                tcp_listeners_.Read()->contains(port);
    for (const auto& [key, conn] : *tcp_conns_.Read()) {
      used = used || key.local_port == port;
    }
    if (!used) {
      return port;
    }
  }
  return 0;
}

std::uint32_t NetStack::NewIss() {
  return static_cast<std::uint32_t>(ukarch::Mix64(iss_counter_++));
}

bool NetStack::HandleIpPacket(NetIf* netif, std::uint16_t queue, uknetdev::NetBuf* nb,
                              const Ip4Header& ip,
                              std::span<const std::uint8_t> payload) {
  switch (ip.proto) {
    case kIpProtoUdp: return HandleUdp(netif, queue, nb, ip, payload);
    case kIpProtoTcp: HandleTcp(netif, queue, ip, payload); break;
    case kIpProtoIcmp: HandleIcmp(netif, queue, ip, payload); break;
    default: break;
  }
  return false;
}

bool NetStack::HandleUdp(NetIf* netif, std::uint16_t queue, uknetdev::NetBuf* nb,
                         const Ip4Header& ip,
                         std::span<const std::uint8_t> payload) {
  (void)netif;
  auto hdr = UdpHeader::Parse(payload, ip.src, ip.dst);
  if (!hdr.has_value()) {
    return false;
  }
  stats_.Add(&StackStats::udp_rx);
  const auto* udp_ports = udp_ports_.Read();  // lock-free demux
  auto it = udp_ports->find(hdr->dst_port);
  if (it == udp_ports->end()) {
    stats_.Add(&StackStats::no_socket_drops);
    return false;
  }
  UdpSocket& sock = *it->second;
  if (sock.rx_.size() >= UdpSocket::kMaxQueue) {
    stats_.Add(&StackStats::no_socket_drops);
    return false;
  }
  DatagramView view;
  view.src_ip = ip.src;
  view.src_port = hdr->src_port;
  view.len = hdr->length - kUdpHdrBytes;
  view.rx_queue = queue;
  sock.last_rx_queue_ = queue;
  // Zero-copy delivery: the socket queue takes ownership of the netbuf and
  // records a view of the payload bytes where they already are. Retaining is
  // only safe while the RX pool keeps enough buffers circulating — a slow
  // consumer must not park the whole pool and stall RX for the interface —
  // so below the low-water mark delivery degrades to copy-and-free.
  bool retain = nb != nullptr && nb->pool != nullptr &&
                nb->pool->available() >= nb->pool->capacity() / 4;
  if (retain) {
    view.data = payload.data() + kUdpHdrBytes;
    view.nb = nb;
  } else {
    view.owned.assign(payload.begin() + kUdpHdrBytes,
                      payload.begin() + hdr->length);
    view.data = view.owned.data();
    view.nb = nullptr;
  }
  sock.rx_.push_back(std::move(view));
  sock.RaiseEvent(kEvtReadable);  // demux push: the datagram is readable now
  return retain;
}

void NetStack::HandleIcmp(NetIf* netif, std::uint16_t queue, const Ip4Header& ip,
                          std::span<const std::uint8_t> payload) {
  auto echo = IcmpEcho::Parse(payload);
  if (!echo.has_value()) {
    return;
  }
  stats_.Add(&StackStats::icmp_rx);
  if (echo->is_reply) {
    ++pings_answered_;
    return;
  }
  IcmpEcho reply = *echo;
  reply.is_reply = true;
  netif->SendIp(ip.src, kIpProtoIcmp, reply.Serialize(), queue);
}

void NetStack::SendRst(NetIf* netif, const Ip4Header& ip, const TcpHeader& hdr,
                       std::size_t payload_len, std::uint16_t queue) {
  stats_.Add(&StackStats::rst_sent);
  TcpHeader rst;
  rst.src_port = hdr.dst_port;
  rst.dst_port = hdr.src_port;
  rst.flags = kTcpRst | kTcpAck;
  rst.seq = (hdr.flags & kTcpAck) != 0 ? hdr.ack : 0;
  rst.ack = hdr.seq + static_cast<std::uint32_t>(payload_len) +
            (((hdr.flags & kTcpSyn) != 0) ? 1 : 0);
  SendTcpHeaderOnly(netif, ip.src, rst, queue);
}

void NetStack::HandleTcp(NetIf* netif, std::uint16_t queue, const Ip4Header& ip,
                         std::span<const std::uint8_t> payload) {
  std::size_t header_len = 0;
  auto hdr = TcpHeader::Parse(payload, ip.src, ip.dst, &header_len);
  if (!hdr.has_value()) {
    return;
  }
  stats_.Add(&StackStats::tcp_rx);
  std::span<const std::uint8_t> data = payload.subspan(header_len);

  // Established-connection demux first.
  const auto* conns = tcp_conns_.Read();  // lock-free demux
  auto conn = conns->find(ConnKey{hdr->dst_port, ip.src, hdr->src_port});
  if (conn != conns->end()) {
    // Keep the socket alive through the callback even if it removes itself.
    auto sock = conn->second;
    sock->OnSegment(queue, *hdr, data);
    return;
  }

  // New connection for a listener?
  if ((hdr->flags & kTcpSyn) != 0 && (hdr->flags & kTcpAck) == 0) {
    const auto* listeners = tcp_listeners_.Read();
    auto listener = listeners->find(hdr->dst_port);
    if (listener != listeners->end()) {
      auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(this, netif));
      sock->remote_ip_ = ip.src;
      sock->remote_port_ = hdr->src_port;
      sock->local_port_ = hdr->dst_port;
      // Flow affinity: the accepted connection lives on the queue its SYN
      // arrived on (which the symmetric hash also steers its TX to).
      sock->tx_queue_ = netif->TxQueueFor(ip.src, hdr->dst_port, hdr->src_port);
      sock->last_rx_queue_ = queue;
      sock->rcv_nxt_ = hdr->seq + 1;
      // Buffer caps are inherited from the listener BEFORE the wscale offer
      // below is computed from recv_cap_.
      sock->SetBufferCaps(listener->second->accept_send_cap_,
                          listener->second->accept_recv_cap_);
      sock->UpdateSendWindow(*hdr);  // SYN window: never scaled
      std::uint32_t iss = NewIss();
      sock->snd_una_ = iss;
      sock->snd_nxt_ = iss + 1;
      sock->EnterState(TcpState::kSynRcvd);
      tcp_conns_.Insert(ConnKey{hdr->dst_port, ip.src, hdr->src_port}, sock);
      // SYN|ACK, echoing the extensions the client offered (each one is on
      // only when both SYNs carry it; a plain SYN gets a plain SYN|ACK).
      // Its window field is unscaled by definition — rcv_wscale_ is still 0
      // when AdvertisedWindow() is read here.
      TcpHeader synack;
      synack.src_port = hdr->dst_port;
      synack.dst_port = hdr->src_port;
      synack.seq = iss;
      synack.ack = sock->rcv_nxt_;
      synack.flags = kTcpSyn | kTcpAck;
      synack.window = sock->AdvertisedWindow();
      if (tcp_modern) {
        synack.mss = static_cast<std::uint16_t>(TcpSocket::kMss);
        if (hdr->mss != 0) {
          sock->peer_mss_ = hdr->mss;
        }
        if (hdr->wscale >= 0) {
          synack.wscale = WscaleFor(sock->recv_cap_);
          sock->snd_wscale_ = hdr->wscale;
          sock->rcv_wscale_ = synack.wscale;
        }
        if (hdr->sack_permitted) {
          synack.sack_permitted = true;
          sock->sack_enabled_ = true;
        }
      }
      ++sock->tcp_stats_.segments_sent;
      SendTcpHeaderOnly(netif, ip.src, synack, sock->tx_queue_);
      sock->rtx_epoch_cycles_ = clock_->cycles();
      return;
    }
  }
  // No socket: RST (unless the segment itself is a RST).
  if ((hdr->flags & kTcpRst) == 0) {
    SendRst(netif, ip, *hdr, data.size(), queue);
  }
  stats_.Add(&StackStats::no_socket_drops);
}

void NetStack::NotifyAccepted(TcpSocket* sock) {
  const auto* listeners = tcp_listeners_.Read();
  auto listener = listeners->find(sock->local_port_);
  if (listener == listeners->end()) {
    return;
  }
  // Find the shared_ptr for this socket.
  const auto* conns = tcp_conns_.Read();
  auto conn = conns->find(
      ConnKey{sock->local_port_, sock->remote_ip_, sock->remote_port_});
  if (conn != conns->end()) {
    listener->second->accept_queue_.push_back(conn->second);
    listener->second->RaiseEvent(kEvtAcceptable);  // handshake completed
  }
}

void NetStack::RemoveConnection(TcpSocket* sock) {
  tcp_conns_.Erase(
      ConnKey{sock->local_port_, sock->remote_ip_, sock->remote_port_});
}

}  // namespace uknet
