#include "apps/kvstore.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "ukarch/hash.h"

namespace apps {

const char* KvModeName(KvMode mode) {
  switch (mode) {
    case KvMode::kSocketSingle: return "socket-single";
    case KvMode::kSocketBatch: return "socket-batch";
    case KvMode::kUkNetdev: return "uknetdev";
    case KvMode::kDpdkStyle: return "dpdk";
  }
  return "?";
}

std::vector<std::uint8_t> EncodeKvRequest(const KvRequest& req) {
  std::vector<std::uint8_t> out;
  out.push_back(req.is_set ? 'S' : 'G');
  out.push_back(static_cast<std::uint8_t>(req.key));
  out.push_back(static_cast<std::uint8_t>(req.key >> 8));
  if (req.is_set) {
    out.push_back(static_cast<std::uint8_t>(req.value.size()));
    out.push_back(static_cast<std::uint8_t>(req.value.size() >> 8));
    out.insert(out.end(), req.value.begin(), req.value.end());
  }
  return out;
}

std::vector<std::uint8_t> EncodeKvMultiGet(std::span<const std::uint16_t> keys) {
  std::vector<std::uint8_t> out;
  out.push_back('M');
  out.push_back(static_cast<std::uint8_t>(keys.size()));
  for (std::uint16_t k : keys) {
    out.push_back(static_cast<std::uint8_t>(k));
    out.push_back(static_cast<std::uint8_t>(k >> 8));
  }
  return out;
}

std::uint16_t KvServer::ShardForKey(std::uint16_t key, std::uint16_t nshards) {
  if (nshards <= 1) {
    return 0;
  }
  // Same Toeplitz machinery that steers flows to queues: a client that picks
  // keys whose shard matches its flow's queue gets the all-local fast path.
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(key),
                                 static_cast<std::uint8_t>(key >> 8)};
  return static_cast<std::uint16_t>(ukarch::Toeplitz32(bytes, 2) % nshards);
}

KvServer::KvServer(posix::PosixApi* api, std::uint16_t port, KvMode mode)
    : mode_(mode), api_(api), port_(port) {}

KvServer::KvServer(uknetdev::NetDev* dev, ukplat::MemRegion* mem,
                   ukalloc::Allocator* alloc, uknet::Ip4Addr ip, std::uint16_t port,
                   KvMode mode, std::uint16_t queues)
    : mode_(mode), port_(port), dev_(dev), mem_(mem), alloc_(alloc), ip_(ip),
      queues_(queues == 0 ? 1 : queues) {}

bool KvServer::Start() {
  if (mode_ == KvMode::kSocketSingle || mode_ == KvMode::kSocketBatch) {
    // One queue, one shard: the sharding machinery degenerates to the old
    // single-store server (every key hashes to shard 0).
    shards_.assign(1, {});
    shard_accesses_ = std::vector<std::atomic<std::uint64_t>>(1);
    fd_ = api_->Socket(posix::SockType::kDgram);
    if (fd_ < 0 || api_->Bind(fd_, port_) != 0) {
      return false;
    }
    // Rebuilt on the shared event loop: the readable dispatch runs one pump
    // body (single: up to 32 recvfrom/sendto pairs; batch: one recvmmsg +
    // one sendmmsg). Level-triggered readiness re-reports leftovers.
    loop_ = std::make_unique<EventLoop>(api_);
    return loop_->Add(fd_, uknet::kEvtReadable, [this](int, uknet::EventMask) {
      if (mode_ == KvMode::kSocketSingle) {
        PumpSocketSingle();
      } else {
        PumpSocketBatch();
      }
    });
  }
  // Raw netdev: own the device completely (§6.4: "we remove the lwip stack
  // and scheduler altogether ... and code against the uknetdev API"). Each
  // queue pair gets private pools so per-queue loops never share state.
  const uknetdev::DevInfo info = dev_->Info();
  const std::uint16_t dev_max = std::min(info.max_rx_queues, info.max_tx_queues);
  if (queues_ > dev_max) {
    queues_ = dev_max == 0 ? 1 : dev_max;
  }
  const std::uint32_t bufs_per_q = std::max<std::uint32_t>(512 / queues_, 32);
  // Shared-nothing state: one shard per queue plus the full queues_^2 ring
  // mesh (the diagonal rings stay unused — a loop never messages itself).
  shards_.assign(queues_, {});
  shard_accesses_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(queues_) * queues_);
  rings_.clear();
  for (std::size_t i = 0; i < static_cast<std::size_t>(queues_) * queues_; ++i) {
    rings_.push_back(std::make_unique<ShardRing>());
  }
  outbox_.assign(static_cast<std::size_t>(queues_) * queues_, {});
  pending_.assign(queues_, {});
  next_req_id_.assign(queues_, 1);
  ring_doorbells_ = std::vector<std::atomic<std::uint64_t>>(queues_);
  uknetdev::DevConf conf;
  conf.nb_rx_queues = queues_;
  conf.nb_tx_queues = queues_;
  if (!Ok(dev_->Configure(conf))) {
    return false;
  }
  for (std::uint16_t q = 0; q < queues_; ++q) {
    tx_pools_.push_back(uknetdev::NetBufPool::Create(alloc_, mem_, bufs_per_q, 2048));
    rx_pools_.push_back(uknetdev::NetBufPool::Create(alloc_, mem_, bufs_per_q, 2048));
    if (tx_pools_.back() == nullptr || rx_pools_.back() == nullptr) {
      return false;
    }
    if (!Ok(dev_->TxQueueSetup(q, uknetdev::TxQueueConf{}))) {
      return false;
    }
    uknetdev::RxQueueConf rxc;
    rxc.buffer_pool = rx_pools_[q].get();
    if (sched_ != nullptr) {
      // EnableWait was called: each queue gets a private wait queue and the
      // driver's interrupt fire wakes exactly that queue's pump loop.
      rx_waits_.push_back(std::make_unique<uksched::WaitQueue>(sched_));
      rxc.intr_handler = [this](std::uint16_t rxq) {
        loops_.At(rxq).Add(&Stats::intr_fires);
        if (rxq < rx_waits_.size() && rx_waits_[rxq] != nullptr) {
          rx_waits_[rxq]->Wake();
        }
      };
    }
    if (!Ok(dev_->RxQueueSetup(q, rxc))) {
      return false;
    }
  }
  return Ok(dev_->Start());
}

void KvServer::EnableWait(uksched::Scheduler* sched) {
  sched_ = sched;
  // Socket modes sleep inside NetStack::PollWait, which only blocks once the
  // stack itself knows the scheduler — attach it here so PumpQueueWait does
  // not silently degrade to a spin.
  if (api_ != nullptr && api_->net() != nullptr) {
    api_->net()->SetScheduler(sched);
  }
}

std::size_t KvServer::PumpQueueWait(std::uint16_t queue,
                                    std::uint64_t timeout_cycles) {
  std::size_t handled = PumpQueue(queue);
  ukarch::Counters<Stats>& lc = loops_.At(queue);
  if (handled > 0) {
    return handled;
  }
  lc.Add(&Stats::empty_pumps);
  if (sched_ == nullptr || sched_->current() == nullptr) {
    return handled;  // no scheduler: stay a plain (spinning) pump
  }
  if (mode_ == KvMode::kSocketSingle || mode_ == KvMode::kSocketBatch) {
    lc.Add(&Stats::blocked_waits);
    if (queue != 0) {
      // The single server fd lives on queue 0's loop; the event loop is not
      // reentrant (one shared ready array), so sibling pump threads sleep on
      // the stack directly instead of entering it.
      if (api_->net()->PollWait(uknet::NetStack::kAllQueues, timeout_cycles) == 0) {
        // deadline wake; frames woke it otherwise
        lc.Add(&Stats::timeouts);
      }
      return 0;
    }
    // Queue 0 sleeps through the event loop: one EpollWait over the server
    // fd, parked in NetStack::PollWait (RTO deadlines included). The
    // kNoWaitDeadline sentinel is the same ~0 as EventLoop::kNoTimeout.
    handled = PumpSocket(timeout_cycles);
    if (handled == 0) {
      lc.Add(&Stats::timeouts);
    }
    return handled;
  }
  if (queue >= rx_waits_.size() || rx_waits_[queue] == nullptr) {
    return handled;
  }
  const std::uint64_t now = sched_->clock()->cycles();
  const std::uint64_t deadline = timeout_cycles >= kNoWaitDeadline - now
                                     ? kNoWaitDeadline
                                     : now + timeout_cycles;
  for (;;) {
    // Arm-then-check: the line goes live before the verifying pump, so a
    // request that lands in between either shows up here or fires the
    // interrupt we are about to sleep on. The ring doorbell follows the same
    // contract: capture the sequence before the pump, and a bump observed
    // after an empty pump means a sibling rang while we drained — spin once
    // more instead of sleeping through the (already-fired) WakeOne.
    dev_->RxIntrEnable(queue);
    const std::uint64_t bell =
        queue < ring_doorbells_.size()
            ? ring_doorbells_[queue].load(std::memory_order_acquire)
            : 0;
    handled = PumpQueue(queue);
    if (handled > 0) {
      break;
    }
    if (queue < ring_doorbells_.size() &&
        ring_doorbells_[queue].load(std::memory_order_acquire) != bell) {
      continue;
    }
    lc.Add(&Stats::empty_pumps);
    lc.Add(&Stats::blocked_waits);
    const bool woken = rx_waits_[queue]->WaitTimeout(deadline);
    handled = PumpQueue(queue);
    if (!woken) {
      lc.Add(&Stats::timeouts);
      break;
    }
    if (handled > 0) {
      break;
    }
    // Spurious wake (burst landed on a sibling consumer): sleep again.
  }
  dev_->RxIntrDisable(queue);
  return handled;
}

std::string* KvServer::StoreFind(std::uint16_t accessor, std::uint16_t shard,
                                 std::uint16_t key) {
  shard_accesses_[static_cast<std::size_t>(accessor) * queues_ + shard]
      .fetch_add(1, std::memory_order_relaxed);
  auto& map = shards_[shard];
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

void KvServer::StoreSet(std::uint16_t accessor, std::uint16_t shard,
                        std::uint16_t key, std::span<const std::uint8_t> value) {
  shard_accesses_[static_cast<std::size_t>(accessor) * queues_ + shard]
      .fetch_add(1, std::memory_order_relaxed);
  if (persist_ != nullptr) {
    // AOF choke point: keys canonicalize to decimal text, values pass as-is.
    // PreMutate first (the COW-lite pre-image), then log the post-image.
    char digits[8];
    auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), key);
    (void)ec;
    std::string_view key_text(digits, static_cast<std::size_t>(ptr - digits));
    persist_->PreMutate(shard, key_text);
    shards_[shard][key].assign(reinterpret_cast<const char*>(value.data()),
                               value.size());
    persist_->AppendSet(shard, key_text,
                        std::string_view(reinterpret_cast<const char*>(value.data()),
                                         value.size()));
    return;
  }
  shards_[shard][key].assign(reinterpret_cast<const char*>(value.data()),
                             value.size());
}

void KvServer::AttachPersist(Persist* persist) {
  persist_ = persist;
  persist_->SetSource(Persist::Source{
      .capture = [this](std::uint16_t shard, std::vector<std::string>* keys) {
        if (shard >= shards_.size()) {
          return;
        }
        keys->reserve(keys->size() + shards_[shard].size());
        for (const auto& [key, value] : shards_[shard]) {
          keys->push_back(std::to_string(key));
        }
      },
      .lookup = [this](std::uint16_t shard,
                       std::string_view key) -> std::optional<std::string_view> {
        std::uint16_t k = 0;
        auto [ptr, ec] = std::from_chars(key.data(), key.data() + key.size(), k);
        if (ec != std::errc{} || ptr != key.data() + key.size()) {
          return std::nullopt;
        }
        const std::string* v = StoreFind(shard, shard, k);
        if (v == nullptr) {
          return std::nullopt;
        }
        return std::string_view(*v);
      },
  });
}

Persist::RecoverStats KvServer::RecoverFromPersist() {
  if (persist_ == nullptr) {
    return {};
  }
  // Recovery writes shards directly (not through StoreSet): it runs before
  // traffic, and going through the choke point would re-log every replayed
  // command into the fresh AOF segment.
  auto parse_key = [](std::string_view key, std::uint16_t* out) {
    auto [ptr, ec] = std::from_chars(key.data(), key.data() + key.size(), *out);
    return ec == std::errc{} && ptr == key.data() + key.size();
  };
  return persist_->Recover(Persist::Applier{
      .set = [this, parse_key](std::uint16_t shard, std::string_view key,
                               std::string_view value) {
        std::uint16_t k = 0;
        if (shard < shards_.size() && parse_key(key, &k)) {
          shards_[shard][k].assign(value.data(), value.size());
        }
      },
      .del = [this, parse_key](std::uint16_t shard, std::string_view key) {
        std::uint16_t k = 0;
        if (shard < shards_.size() && parse_key(key, &k)) {
          shards_[shard].erase(k);
        }
      },
      .clear = [this](std::uint16_t shard) {
        if (shard < shards_.size()) {
          shards_[shard].clear();
        }
      },
  });
}

void KvServer::RingSend(std::uint16_t from, std::uint16_t to, const ShardMsg& msg) {
  loops_.At(from).Add(&Stats::ring_messages);
  if (!RingTo(from, to)->Push(msg)) {
    // Ring full: park in the outbox, retried at the head of every DrainRings
    // turn of |from|. Backpressure, never loss.
    outbox_[static_cast<std::size_t>(from) * queues_ + to].push_back(msg);
  }
}

void KvServer::WakeShard(std::uint16_t to) {
  if (to < ring_doorbells_.size()) {
    // Release: the ring Push above happens-before a consumer that observes
    // the bumped bell (acquire) and drains.
    ring_doorbells_[to].fetch_add(1, std::memory_order_release);
  }
  // WakeOne, not Wake: exactly one loop owns queue |to|, waking more sleepers
  // would be a thundering herd against consumers that find nothing.
  if (to < rx_waits_.size() && rx_waits_[to] != nullptr) {
    rx_waits_[to]->WakeOne();
  }
}

std::size_t KvServer::DrainRings(std::uint16_t queue) {
  if (queues_ <= 1 || rings_.empty()) {
    return 0;
  }
  // Retry backpressured sends first: slots may have freed since last turn.
  for (std::uint16_t to = 0; to < queues_; ++to) {
    if (to == queue) {
      continue;
    }
    auto& ob = outbox_[static_cast<std::size_t>(queue) * queues_ + to];
    bool flushed = false;
    while (!ob.empty() && RingTo(queue, to)->Push(ob.front())) {
      ob.pop_front();
      flushed = true;
    }
    if (flushed) {
      WakeShard(to);
    }
  }
  std::size_t processed = 0;
  for (std::uint16_t from = 0; from < queues_; ++from) {
    if (from == queue) {
      continue;
    }
    ShardRing* ring = RingTo(from, queue);
    ShardMsg m;
    while (ring->Pop(&m)) {
      ++processed;
      switch (m.type) {
        case ShardMsg::kGet: {
          // Foreign loop asks for one of OUR keys: the only store touch is
          // the diagonal (queue, queue) — shared-nothing holds.
          std::string* v = StoreFind(queue, queue, m.key);
          ShardMsg r;
          r.type = ShardMsg::kResp;
          r.from = queue;
          r.req_id = m.req_id;
          r.slot = m.slot;
          r.key = m.key;
          r.found = v != nullptr;
          if (v != nullptr) {
            r.vlen = static_cast<std::uint8_t>(std::min(v->size(), kMaxInlineValue));
            std::memcpy(r.val, v->data(), r.vlen);
          }
          RingSend(queue, m.from, r);
          WakeShard(m.from);
          break;
        }
        case ShardMsg::kSet: {
          StoreSet(queue, queue, m.key, std::span(m.val, m.vlen));
          ShardMsg r;
          r.type = ShardMsg::kResp;
          r.from = queue;
          r.req_id = m.req_id;
          r.slot = m.slot;
          r.key = m.key;
          r.found = true;
          RingSend(queue, m.from, r);
          WakeShard(m.from);
          break;
        }
        case ShardMsg::kResp: {
          auto& pend = pending_[queue];
          for (auto it = pend.begin(); it != pend.end(); ++it) {
            if (it->id != m.req_id) {
              continue;
            }
            auto& slot = it->slots[m.slot];
            slot.found = m.found;
            slot.vlen = m.vlen;
            std::memcpy(slot.val, m.val, m.vlen);
            if (--it->remaining == 0) {
              EmitDeferredReply(*it);
              pend.erase(it);
            }
            break;
          }
          break;
        }
      }
    }
  }
  return processed;
}

void KvServer::EmitDeferredReply(const PendingOp& op) {
  using namespace uknet;
  constexpr std::size_t kHdrs = kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes;
  uknetdev::NetBuf* out = tx_pools_[op.queue]->Alloc();
  if (out == nullptr) {
    return;  // TX pool dry: drop like a NIC would, the client retries
  }
  std::uint32_t cap = out->capacity - out->headroom;
  std::uint8_t* odata =
      reinterpret_cast<std::uint8_t*>(mem_->At(out->data_gpa(), cap));
  if (odata == nullptr || cap < kHdrs + 2 + kMaxMultiKeys * (2 + kMaxInlineValue)) {
    tx_pools_[op.queue]->Free(out);
    return;
  }
  std::uint8_t* p = odata + kHdrs;
  std::size_t reply_len = 0;
  if (op.op == 'G') {
    const PendingOp::Slot& s = op.slots[0];
    if (s.found) {
      std::memcpy(p, s.val, s.vlen);
      reply_len = s.vlen;
    } else {
      p[0] = 'E';
      reply_len = 1;
    }
  } else if (op.op == 'S') {
    p[0] = 'K';
    reply_len = 1;
  } else {  // 'M'
    p[0] = 'V';
    p[1] = op.nkeys;
    std::size_t w = 2;
    for (std::uint8_t i = 0; i < op.nkeys; ++i) {
      const PendingOp::Slot& s = op.slots[i];
      if (!s.found) {
        p[w++] = 0xff;
        p[w++] = 0xff;
        continue;
      }
      p[w++] = s.vlen;
      p[w++] = 0;
      std::memcpy(p + w, s.val, s.vlen);
      w += s.vlen;
    }
    reply_len = w;
  }
  const std::size_t total = kHdrs + reply_len;
  EthHeader oeth{op.dst_mac, dev_->mac(), kEthTypeIp4};
  oeth.Serialize(odata);
  Ip4Header oip;
  oip.total_len = static_cast<std::uint16_t>(total - kEthHdrBytes);
  oip.id = ip_id_++;
  oip.proto = kIpProtoUdp;
  oip.src = ip_;
  oip.dst = op.dst_ip;
  oip.Serialize(odata + kEthHdrBytes);
  UdpHeader oudp;
  oudp.src_port = port_;
  oudp.dst_port = op.dst_port;
  oudp.Serialize(odata + kEthHdrBytes + kIp4HdrBytes, ip_, op.dst_ip,
                 std::span(p, reply_len));
  out->len = static_cast<std::uint32_t>(total);
  // The reply bursts from the ARRIVAL queue's loop — flow affinity holds even
  // for cross-shard ops; foreign shards only ever touched the rings.
  std::uint16_t sent = 1;
  uknetdev::NetBuf* bufs[1] = {out};
  dev_->TxBurst(op.queue, bufs, &sent);
  if (sent == 0) {
    tx_pools_[op.queue]->Free(out);
    return;
  }
  loops_.At(op.queue).Add(&Stats::requests);
}

std::size_t KvServer::HandleInto(std::uint16_t queue,
                                 std::span<const std::uint8_t> payload,
                                 std::uint8_t* out, std::size_t cap,
                                 const ReplyTo* reply_to, bool* deferred) {
  if (deferred != nullptr) {
    *deferred = false;
  }
  if (cap < 1) {
    return 0;
  }
  // Health probe: the balancer's liveness check. Answered like any request
  // but callers tally it under probe_requests, not requests, so load stats
  // see only real client traffic.
  if (!payload.empty() && payload[0] == 'P') {
    out[0] = 'P';
    return 1;
  }
  if (payload.size() < 2) {
    out[0] = 'E';
    return 1;
  }
  // Deferral needs somewhere to send the eventual reply; socket modes pass
  // no reply_to but run queues_ == 1, where every key is local anyway.
  const bool can_defer = reply_to != nullptr && queues_ > 1;
  if (payload[0] == 'M') {
    const std::uint8_t n = payload[1];
    if (n == 0 || n > kMaxMultiKeys || payload.size() < 2u + 2u * n) {
      out[0] = 'E';
      return 1;
    }
    // Parse every key up front: the reply may be written in place over the
    // request buffer, which would clobber keys still unread.
    std::uint16_t keys[kMaxMultiKeys];
    for (std::uint8_t i = 0; i < n; ++i) {
      keys[i] = static_cast<std::uint16_t>(payload[2 + 2 * i] |
                                           (payload[3 + 2 * i] << 8));
    }
    PendingOp op;
    op.op = 'M';
    op.queue = queue;
    op.nkeys = n;
    for (std::uint8_t i = 0; i < n; ++i) {
      op.slots[i].key = keys[i];
      const std::uint16_t shard = ShardForKey(keys[i], queues_);
      if (shard == queue) {
        std::string* v = StoreFind(queue, shard, keys[i]);
        op.slots[i].found = v != nullptr;
        if (v != nullptr) {
          op.slots[i].vlen =
              static_cast<std::uint8_t>(std::min(v->size(), kMaxInlineValue));
          std::memcpy(op.slots[i].val, v->data(), op.slots[i].vlen);
        }
      } else {
        ++op.remaining;  // foreign key: resolved by the owner over the rings
      }
    }
    if (op.remaining == 0) {
      // All keys local: answer synchronously, no ring traffic.
      if (cap < 2 + n * (2 + kMaxInlineValue)) {
        return 0;
      }
      out[0] = 'V';
      out[1] = n;
      std::size_t w = 2;
      for (std::uint8_t i = 0; i < n; ++i) {
        const PendingOp::Slot& s = op.slots[i];
        if (!s.found) {
          out[w++] = 0xff;
          out[w++] = 0xff;
          continue;
        }
        out[w++] = s.vlen;
        out[w++] = 0;
        std::memcpy(out + w, s.val, s.vlen);
        w += s.vlen;
      }
      return w;
    }
    if (!can_defer) {
      out[0] = 'E';  // unreachable when queues_ == 1 (all keys hash local)
      return 1;
    }
    op.id = next_req_id_[queue]++;
    op.dst_mac = reply_to->mac;
    op.dst_ip = reply_to->ip;
    op.dst_port = reply_to->port;
    loops_.At(queue).Add(&Stats::cross_shard_ops);
    for (std::uint8_t i = 0; i < n; ++i) {
      const std::uint16_t shard = ShardForKey(keys[i], queues_);
      if (shard == queue) {
        continue;
      }
      ShardMsg m;
      m.type = ShardMsg::kGet;
      m.from = queue;
      m.req_id = op.id;
      m.slot = i;
      m.key = keys[i];
      RingSend(queue, shard, m);
      WakeShard(shard);
    }
    pending_[queue].push_back(op);
    *deferred = true;
    return 0;
  }
  if (payload.size() < 3) {
    out[0] = 'E';
    return 1;
  }
  std::uint16_t key = static_cast<std::uint16_t>(payload[1] | (payload[2] << 8));
  const std::uint16_t shard = ShardForKey(key, queues_);
  if (payload[0] == 'S') {
    if (payload.size() < 5) {
      out[0] = 'E';
      return 1;
    }
    std::uint16_t len = static_cast<std::uint16_t>(payload[3] | (payload[4] << 8));
    if (payload.size() < 5u + len) {
      out[0] = 'E';
      return 1;
    }
    if (shard == queue || !can_defer) {
      StoreSet(queue, shard, key, payload.subspan(5, len));
      out[0] = 'K';
      return 1;
    }
    if (len > kMaxInlineValue) {
      // Cross-shard values must fit a ring slot. Clients keep values this
      // large on their home flow (shard == queue), where there is no cap.
      out[0] = 'E';
      return 1;
    }
    PendingOp op;
    op.id = next_req_id_[queue]++;
    op.op = 'S';
    op.queue = queue;
    op.dst_mac = reply_to->mac;
    op.dst_ip = reply_to->ip;
    op.dst_port = reply_to->port;
    op.nkeys = 1;
    op.remaining = 1;
    op.slots[0].key = key;
    ShardMsg m;
    m.type = ShardMsg::kSet;
    m.from = queue;
    m.req_id = op.id;
    m.slot = 0;
    m.key = key;
    m.vlen = static_cast<std::uint8_t>(len);
    std::memcpy(m.val, payload.data() + 5, len);
    loops_.At(queue).Add(&Stats::cross_shard_ops);
    pending_[queue].push_back(op);
    RingSend(queue, shard, m);
    WakeShard(shard);
    *deferred = true;
    return 0;
  }
  if (payload[0] == 'G') {
    if (shard == queue || !can_defer) {
      std::string* v = StoreFind(queue, shard, key);
      if (v == nullptr) {
        out[0] = 'E';
        return 1;
      }
      if (v->size() > cap) {
        return 0;
      }
      // The value is copied straight into the wire buffer. |out| may overlap
      // the request payload; the key was already read above.
      std::memmove(out, v->data(), v->size());
      return v->size();
    }
    PendingOp op;
    op.id = next_req_id_[queue]++;
    op.op = 'G';
    op.queue = queue;
    op.dst_mac = reply_to->mac;
    op.dst_ip = reply_to->ip;
    op.dst_port = reply_to->port;
    op.nkeys = 1;
    op.remaining = 1;
    op.slots[0].key = key;
    ShardMsg m;
    m.type = ShardMsg::kGet;
    m.from = queue;
    m.req_id = op.id;
    m.slot = 0;
    m.key = key;
    loops_.At(queue).Add(&Stats::cross_shard_ops);
    pending_[queue].push_back(op);
    RingSend(queue, shard, m);
    WakeShard(shard);
    *deferred = true;
    return 0;
  }
  out[0] = 'E';
  return 1;
}

std::size_t KvServer::PumpSocketSingle() {
  std::size_t handled = 0;
  std::uint8_t buf[2048];
  std::uint8_t reply[2048];
  for (int i = 0; i < kBatch; ++i) {  // bounded work per turn, 1 syscall each
    uknet::Ip4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    std::int64_t n = api_->RecvFrom(fd_, buf, &src_ip, &src_port);
    if (n < 0) {
      break;
    }
    const bool probe = n > 0 && buf[0] == 'P';
    std::size_t len = HandleInto(0, std::span(buf, static_cast<std::size_t>(n)),
                                 reply, sizeof(reply), nullptr, nullptr);
    api_->SendTo(fd_, src_ip, src_port, std::span(reply, len));
    loops_.At(0).Add(probe ? &Stats::probe_requests : &Stats::requests);
    ++handled;
  }
  return handled;
}

std::size_t KvServer::PumpSocketBatch() {
  std::uint8_t storage[kBatch][2048];
  posix::MmsgRecv msgs[kBatch];
  for (int i = 0; i < kBatch; ++i) {
    msgs[i].data = storage[i];
    msgs[i].cap = sizeof(storage[i]);
  }
  std::int64_t got = api_->RecvMmsg(fd_, msgs);
  if (got <= 0) {
    return 0;
  }
  // One reply batch back (all to the same client in this workload). Replies
  // are written in place over the request buffers — no reply allocations.
  posix::MmsgVec vecs[kBatch];
  std::uint64_t probes = 0;
  for (std::int64_t i = 0; i < got; ++i) {
    probes += msgs[i].len > 0 && msgs[i].data[0] == 'P' ? 1 : 0;
    std::size_t len = HandleInto(0, std::span(msgs[i].data, msgs[i].len),
                                 msgs[i].data, msgs[i].cap, nullptr, nullptr);
    vecs[i] = posix::MmsgVec{msgs[i].data, len};
  }
  api_->SendMmsg(fd_, msgs[0].src_ip, msgs[0].src_port,
                 std::span(vecs, static_cast<std::size_t>(got)));
  loops_.At(0).Add(&Stats::requests, static_cast<std::uint64_t>(got) - probes);
  loops_.At(0).Add(&Stats::probe_requests, probes);
  return static_cast<std::size_t>(got);
}

std::size_t KvServer::PumpNetdev(std::uint16_t queue) {
  using namespace uknet;
  uknetdev::NetBuf* pkts[kBatch];
  std::uint16_t cnt = kBatch;
  dev_->RxBurst(queue, pkts, &cnt);
  if (cnt == 0) {
    return 0;
  }
  const bool dpdk_style = mode_ == KvMode::kDpdkStyle;
  uknetdev::NetBuf* replies[kBatch];
  std::uint16_t nreplies = 0;
  for (std::uint16_t i = 0; i < cnt; ++i) {
    uknetdev::NetBuf* nb = pkts[i];
    std::uint8_t* raw = nb->Bytes(*mem_);
    std::span<const std::uint8_t> frame(raw, nb->len);
    // Parse Ethernet/IP/UDP by hand (zero-copy views into the netbuf).
    bool replied = false;
    if (raw != nullptr &&
        frame.size() >= kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes) {
      EthHeader eth = EthHeader::Parse(frame);
      auto ip = Ip4Header::Parse(frame.subspan(kEthHdrBytes));
      if (ip.has_value() && ip->proto == kIpProtoUdp) {
        // Slice at the parsed header length so IP options never read as UDP.
        auto body = frame.subspan(kEthHdrBytes + ip->header_len,
                                  ip->total_len - ip->header_len);
        auto udp = UdpHeader::Parse(body, ip->src, ip->dst, false);
        if (udp.has_value() && udp->dst_port == port_) {
          auto request = body.subspan(kUdpHdrBytes, udp->length - kUdpHdrBytes);
          constexpr std::size_t kHdrs = kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes;
          // Reply addressing snapshot: if the request defers to a foreign
          // shard, the RX buffer goes back to its pool before the reply exists.
          const ReplyTo rt{eth.src, ip->src, udp->src_port};
          bool deferred = false;
          // Opcode snapshot: the in-place reply below overwrites the request.
          const bool probe = !request.empty() && request[0] == 'P';
          if (dpdk_style) {
            // DPDK-framework path: per-packet mbuf churn through the TX pool
            // plus the copy into the fresh mbuf — the framework overhead that
            // makes the kDpdkStyle rows differ from raw uknetdev.
            uknetdev::NetBuf* out = tx_pools_[queue]->Alloc();
            if (out != nullptr) {
              std::uint32_t cap = out->capacity - out->headroom;
              std::uint8_t* odata =
                  reinterpret_cast<std::uint8_t*>(mem_->At(out->data_gpa(), cap));
              std::size_t reply_len =
                  odata != nullptr
                      ? HandleInto(queue, request, odata + kHdrs, cap - kHdrs,
                                   &rt, &deferred)
                      : 0;
              if (reply_len > 0) {
                std::size_t total = kHdrs + reply_len;
                EthHeader oeth{eth.src, dev_->mac(), kEthTypeIp4};
                oeth.Serialize(odata);
                Ip4Header oip;
                oip.total_len = static_cast<std::uint16_t>(total - kEthHdrBytes);
                oip.id = ip_id_++;
                oip.proto = kIpProtoUdp;
                oip.src = ip_;
                oip.dst = ip->src;
                oip.Serialize(odata + kEthHdrBytes);
                UdpHeader oudp;
                oudp.src_port = port_;
                oudp.dst_port = udp->src_port;
                oudp.Serialize(odata + kEthHdrBytes + kIp4HdrBytes, ip_, ip->src,
                               std::span(odata + kHdrs, reply_len));
                out->len = static_cast<std::uint32_t>(total);
                replies[nreplies++] = out;
                loops_.At(queue).Add(probe ? &Stats::probe_requests
                                           : &Stats::requests);
                replied = true;
              } else {
                tx_pools_[queue]->Free(out);
              }
            }
          } else {
            // Specialized uknetdev path (§6.4): the reply is written in place
            // in the received buffer — headers rewritten around it, the same
            // netbuf handed straight back to TxBurst. Zero copies, zero
            // allocations, no buffer churn.
            std::uint32_t cap = nb->capacity - nb->headroom;
            std::uint8_t* payload_at = raw + kHdrs;
            std::size_t reply_len =
                HandleInto(queue, request, payload_at, cap - kHdrs, &rt,
                           &deferred);
            if (reply_len > 0) {
              std::size_t total = kHdrs + reply_len;
              EthHeader oeth{eth.src, dev_->mac(), kEthTypeIp4};
              oeth.Serialize(raw);
              Ip4Header oip;
              oip.total_len = static_cast<std::uint16_t>(total - kEthHdrBytes);
              oip.id = ip_id_++;
              oip.proto = kIpProtoUdp;
              oip.src = ip_;
              oip.dst = ip->src;
              oip.Serialize(raw + kEthHdrBytes);
              UdpHeader oudp;
              oudp.src_port = port_;
              oudp.dst_port = udp->src_port;
              oudp.Serialize(raw + kEthHdrBytes + kIp4HdrBytes, ip_, ip->src,
                             std::span(payload_at, reply_len));
              nb->len = static_cast<std::uint32_t>(total);
              replies[nreplies++] = nb;  // ownership rides to TxBurst
              loops_.At(queue).Add(probe ? &Stats::probe_requests
                                         : &Stats::requests);
              replied = true;
              continue;  // do not free: the RX buffer is the TX buffer now
            }
          }
        }
      }
    }
    (void)replied;
    nb->pool->Free(nb);
  }
  if (nreplies > 0) {
    // Replies burst on the queue the requests arrived on: flow affinity all
    // the way down, no cross-queue hand-off.
    std::uint16_t sent = nreplies;
    dev_->TxBurst(queue, replies, &sent);
    for (std::uint16_t i = sent; i < nreplies; ++i) {
      if (replies[i]->pool != nullptr) {
        replies[i]->pool->Free(replies[i]);  // unsent buffers return to the pool
      }
    }
  }
  return cnt;
}

std::size_t KvServer::PumpSocket(std::uint64_t timeout_cycles) {
  if (loop_ == nullptr) {
    return 0;  // Start() not run (or failed): degrade like the old fd_=-1 path
  }
  const std::uint64_t before = requests();
  loop_->PumpOnce(timeout_cycles);
  if (persist_ != nullptr) {
    persist_->FlushShard(0);  // socket modes are single-sharded
  }
  return static_cast<std::size_t>(requests() - before);
}

std::size_t KvServer::PumpQueue(std::uint16_t queue) {
  switch (mode_) {
    case KvMode::kSocketSingle:
    case KvMode::kSocketBatch:
      return queue == 0 ? PumpSocket(0) : 0;
    case KvMode::kUkNetdev:
    case KvMode::kDpdkStyle: {
      if (queue >= queues_) {
        return 0;
      }
      // Ring work counts as progress: a drained message keeps the loop from
      // sleeping while a response (or a foreign request) is in flight.
      const std::size_t handled = PumpNetdev(queue) + DrainRings(queue);
      if (persist_ != nullptr) {
        // Per-queue turn end: this loop's AOF shard writes out exactly once
        // per pump, whatever the batch size was.
        persist_->FlushShard(queue);
      }
      return handled;
    }
  }
  return 0;
}

std::size_t KvServer::PumpOnce() {
  switch (mode_) {
    case KvMode::kSocketSingle:
    case KvMode::kSocketBatch:
      return PumpSocket(0);
    case KvMode::kUkNetdev:
    case KvMode::kDpdkStyle: {
      std::size_t handled = 0;
      for (std::uint16_t q = 0; q < queues_; ++q) {
        handled += PumpQueue(q);
      }
      return handled;
    }
  }
  return 0;
}

}  // namespace apps
