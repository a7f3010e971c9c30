#include "apps/kvstore.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "ukarch/hash.h"

namespace apps {
namespace {

constexpr std::size_t kReplyHdrs =
    uknet::kEthHdrBytes + uknet::kIp4HdrBytes + uknet::kUdpHdrBytes;

// Longest reply EncodeReply writes for an op of |nkeys| keys.
constexpr std::size_t MaxReplyBytes(std::size_t nkeys) {
  return 2 + nkeys * (2 + KvServer::kMaxInlineValue);
}

std::uint16_t LoadU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

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
  if (SocketMode()) {
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
  if (SocketMode()) {
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
      if (m.type == ShardMsg::kResp) {
        auto& pend = pending_[queue];
        auto it = std::find_if(pend.begin(), pend.end(),
                               [&](const PendingOp& op) { return op.id == m.req_id; });
        if (it == pend.end()) {
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
        continue;
      }
      // A foreign loop's GET or SET on one of OUR keys: the only store touch
      // is the diagonal (queue, queue) — shared-nothing holds.
      ShardMsg r;
      r.type = ShardMsg::kResp;
      r.from = queue;
      r.req_id = m.req_id;
      r.slot = m.slot;
      r.key = m.key;
      if (m.type == ShardMsg::kSet) {
        StoreSet(queue, queue, m.key, std::span(m.val, m.vlen));
        r.found = true;
      } else if (std::string* v = StoreFind(queue, queue, m.key); v != nullptr) {
        r.found = true;
        r.vlen = static_cast<std::uint8_t>(std::min(v->size(), kMaxInlineValue));
        std::memcpy(r.val, v->data(), r.vlen);
      }
      RingSend(queue, m.from, r);
      WakeShard(m.from);
    }
  }
  return processed;
}

std::size_t KvServer::EncodeReply(const PendingOp& op, std::uint8_t* out) {
  if (op.op == 'S') {
    out[0] = 'K';
    return 1;
  }
  if (op.op == 'G') {
    const PendingOp::Slot& s = op.slots[0];
    if (!s.found) {
      out[0] = 'E';
      return 1;
    }
    std::memcpy(out, s.val, s.vlen);
    return s.vlen;
  }
  out[0] = 'V';
  out[1] = op.nkeys;
  std::size_t w = 2;
  for (std::uint8_t i = 0; i < op.nkeys; ++i) {
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

std::size_t KvServer::FrameReply(std::uint8_t* frame, const ReplyTo& to,
                                 std::size_t reply_len) const {
  using namespace uknet;
  const std::size_t total = kReplyHdrs + reply_len;
  EthHeader eth{to.mac, dev_->mac(), kEthTypeIp4};
  eth.Serialize(frame);
  // The ID stays at the header default: Serialize sets DF, and an atomic
  // datagram's ID carries no meaning (RFC 6864 §4.1).
  Ip4Header ip;
  ip.total_len = static_cast<std::uint16_t>(total - kEthHdrBytes);
  ip.proto = kIpProtoUdp;
  ip.src = ip_;
  ip.dst = to.ip;
  ip.Serialize(frame + kEthHdrBytes);
  UdpHeader udp;
  udp.src_port = port_;
  udp.dst_port = to.port;
  udp.Serialize(frame + kEthHdrBytes + kIp4HdrBytes, ip_, to.ip,
                std::span(frame + kReplyHdrs, reply_len));
  return total;
}

std::uint16_t KvServer::TxReplies(std::uint16_t queue, uknetdev::NetBuf** bufs,
                                  std::uint16_t n) {
  std::uint16_t sent = n;
  dev_->TxBurst(queue, bufs, &sent);
  for (std::uint16_t i = sent; i < n; ++i) {
    if (bufs[i]->pool != nullptr) {
      bufs[i]->pool->Free(bufs[i]);  // unsent buffers return to the pool
    }
  }
  return sent;
}

void KvServer::EmitDeferredReply(const PendingOp& op) {
  uknetdev::NetBuf* out = tx_pools_[op.queue]->Alloc();
  if (out == nullptr) {
    return;  // TX pool dry: drop like a NIC would, the client retries
  }
  const std::uint32_t cap = out->capacity - out->headroom;
  std::uint8_t* frame = reinterpret_cast<std::uint8_t*>(mem_->At(out->data_gpa(), cap));
  if (frame == nullptr || cap < kReplyHdrs + MaxReplyBytes(op.nkeys)) {
    out->pool->Free(out);
    return;
  }
  out->len = static_cast<std::uint32_t>(
      FrameReply(frame, op.reply_to, EncodeReply(op, frame + kReplyHdrs)));
  // The reply bursts from the ARRIVAL queue's loop — flow affinity holds even
  // for cross-shard ops; foreign shards only ever touched the rings.
  if (TxReplies(op.queue, &out, 1) == 1) {
    loops_.At(op.queue).Add(&Stats::requests);
  }
}

void KvServer::Defer(const PendingOp& op) {
  loops_.At(op.queue).Add(&Stats::cross_shard_ops);
  pending_[op.queue].push_back(op);
  for (std::uint8_t i = 0; i < op.nkeys; ++i) {
    const PendingOp::Slot& s = op.slots[i];
    const std::uint16_t shard = ShardForKey(s.key, queues_);
    if (shard == op.queue) {
      continue;
    }
    ShardMsg m;
    m.type = op.op == 'S' ? ShardMsg::kSet : ShardMsg::kGet;
    m.from = op.queue;
    m.req_id = op.id;
    m.slot = i;
    m.key = s.key;
    m.vlen = s.vlen;  // a SET's value; 0 for a key still to be read
    std::memcpy(m.val, s.val, s.vlen);
    RingSend(op.queue, shard, m);
    WakeShard(shard);
  }
}

std::size_t KvServer::HandleInto(std::uint16_t queue,
                                 std::span<const std::uint8_t> payload,
                                 std::uint8_t* out, std::size_t cap,
                                 const ReplyTo* reply_to) {
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
  const char opcode = static_cast<char>(payload[0]);
  std::uint8_t nkeys = 1;
  std::size_t keys_at = 1;  // offset of the first u16 key
  std::uint16_t set_len = 0;
  if (opcode == 'M') {
    nkeys = payload[1];
    keys_at = 2;
    if (nkeys == 0 || nkeys > kMaxMultiKeys || payload.size() < 2u + 2u * nkeys) {
      out[0] = 'E';
      return 1;
    }
  } else {
    if (payload.size() < 3) {
      out[0] = 'E';
      return 1;
    }
    const std::uint16_t key = LoadU16(&payload[1]);
    const std::uint16_t shard = ShardForKey(key, queues_);
    const bool local = shard == queue || !can_defer;
    if (opcode == 'S') {
      if (payload.size() < 5) {
        out[0] = 'E';
        return 1;
      }
      set_len = LoadU16(&payload[3]);
      if (payload.size() < 5u + set_len) {
        out[0] = 'E';
        return 1;
      }
      if (local) {
        StoreSet(queue, shard, key, payload.subspan(5, set_len));
        out[0] = 'K';
        return 1;
      }
      if (set_len > kMaxInlineValue) {
        // Cross-shard values must fit a ring slot. Clients keep values this
        // large on their home flow (shard == queue), where there is no cap.
        out[0] = 'E';
        return 1;
      }
    } else if (opcode != 'G') {
      out[0] = 'E';
      return 1;
    } else if (local) {
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
  }
  // A multi-get, or one key of a foreign shard. Every key (and a SET's value)
  // is read out of |payload| first: the reply may overwrite the request.
  PendingOp op;
  op.op = opcode;
  op.queue = queue;
  op.nkeys = nkeys;
  if (opcode == 'S') {
    op.slots[0].vlen = static_cast<std::uint8_t>(set_len);  // rides to the owner
    std::memcpy(op.slots[0].val, payload.data() + 5, set_len);
  }
  for (std::uint8_t i = 0; i < nkeys; ++i) {
    PendingOp::Slot& s = op.slots[i];
    s.key = LoadU16(&payload[keys_at + 2u * i]);
    const std::uint16_t shard = ShardForKey(s.key, queues_);
    if (shard != queue) {
      ++op.remaining;  // foreign key: resolved by the owner over the rings
      continue;
    }
    std::string* v = StoreFind(queue, shard, s.key);
    s.found = v != nullptr;
    if (v != nullptr) {
      s.vlen = static_cast<std::uint8_t>(std::min(v->size(), kMaxInlineValue));
      std::memcpy(s.val, v->data(), s.vlen);
    }
  }
  if (op.remaining == 0) {
    // All keys local: answer synchronously, no ring traffic.
    return cap < MaxReplyBytes(nkeys) ? 0 : EncodeReply(op, out);
  }
  if (!can_defer) {
    out[0] = 'E';  // unreachable when queues_ == 1 (all keys hash local)
    return 1;
  }
  op.id = next_req_id_[queue]++;
  op.reply_to = *reply_to;
  Defer(op);
  return 0;
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
                                 reply, sizeof(reply), nullptr);
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
  // Replies are written in place over the request buffers — no reply
  // allocations.
  posix::MmsgVec vecs[kBatch];
  std::uint64_t probes = 0;
  for (std::int64_t i = 0; i < got; ++i) {
    probes += msgs[i].len > 0 && msgs[i].data[0] == 'P' ? 1 : 0;
    std::size_t len = HandleInto(0, std::span(msgs[i].data, msgs[i].len),
                                 msgs[i].data, msgs[i].cap, nullptr);
    vecs[i] = posix::MmsgVec{msgs[i].data, len};
  }
  // One sendmmsg per run of consecutive datagrams from the same source: a
  // batch from one client goes back in a single call.
  for (std::int64_t run = 0, i = 1; i <= got; ++i) {
    if (i == got || msgs[i].src_ip != msgs[run].src_ip ||
        msgs[i].src_port != msgs[run].src_port) {
      api_->SendMmsg(fd_, msgs[run].src_ip, msgs[run].src_port,
                     std::span(vecs + run, static_cast<std::size_t>(i - run)));
      run = i;
    }
  }
  loops_.At(0).Add(&Stats::requests, static_cast<std::uint64_t>(got) - probes);
  loops_.At(0).Add(&Stats::probe_requests, probes);
  return static_cast<std::size_t>(got);
}

uknetdev::NetBuf* KvServer::AnswerFrame(std::uint16_t queue, uknetdev::NetBuf* nb) {
  using namespace uknet;
  // Parse Ethernet/IP/UDP by hand (zero-copy views into the netbuf).
  const std::uint8_t* raw = nb->Bytes(*mem_);
  if (raw == nullptr || nb->len < kReplyHdrs) {
    return nullptr;
  }
  std::span<const std::uint8_t> frame(raw, nb->len);
  EthHeader eth = EthHeader::Parse(frame);
  auto ip = Ip4Header::Parse(frame.subspan(kEthHdrBytes));
  if (!ip.has_value() || ip->proto != kIpProtoUdp) {
    return nullptr;
  }
  // Slice at the parsed header length so IP options never read as UDP.
  auto body = frame.subspan(kEthHdrBytes + ip->header_len,
                            ip->total_len - ip->header_len);
  auto udp = UdpHeader::Parse(body, ip->src, ip->dst, false);
  if (!udp.has_value() || udp->dst_port != port_) {
    return nullptr;
  }
  auto request = body.subspan(kUdpHdrBytes, udp->length - kUdpHdrBytes);
  // Reply addressing snapshot: if the request defers to a foreign shard, the
  // RX buffer goes back to its pool before the reply exists.
  const ReplyTo to{eth.src, ip->src, udp->src_port};
  // Opcode snapshot: an in-place reply overwrites the request.
  const bool probe = !request.empty() && request[0] == 'P';
  // The reply buffer. Specialized uknetdev (§6.4): the received netbuf
  // itself — headers rewritten around the reply, the same buffer handed back
  // to TxBurst, zero copies and zero allocations. kDpdkStyle: a fresh TX-pool
  // mbuf per packet plus the copy into it, the framework overhead that makes
  // the DPDK rows differ from raw uknetdev.
  uknetdev::NetBuf* out = mode_ == KvMode::kDpdkStyle ? tx_pools_[queue]->Alloc() : nb;
  if (out == nullptr) {
    return nullptr;
  }
  const std::uint32_t cap = out->capacity - out->headroom;
  std::uint8_t* reply = reinterpret_cast<std::uint8_t*>(mem_->At(out->data_gpa(), cap));
  const std::size_t reply_len =
      reply != nullptr
          ? HandleInto(queue, request, reply + kReplyHdrs, cap - kReplyHdrs, &to)
          : 0;
  if (reply_len == 0) {
    if (out != nb) {
      out->pool->Free(out);
    }
    return nullptr;
  }
  out->len = static_cast<std::uint32_t>(FrameReply(reply, to, reply_len));
  loops_.At(queue).Add(probe ? &Stats::probe_requests : &Stats::requests);
  return out;
}

std::size_t KvServer::PumpNetdev(std::uint16_t queue) {
  uknetdev::NetBuf* pkts[kBatch];
  std::uint16_t cnt = kBatch;
  dev_->RxBurst(queue, pkts, &cnt);
  if (cnt == 0) {
    return 0;
  }
  uknetdev::NetBuf* replies[kBatch];
  std::uint16_t nreplies = 0;
  for (std::uint16_t i = 0; i < cnt; ++i) {
    uknetdev::NetBuf* out = AnswerFrame(queue, pkts[i]);
    // The RX buffer is freed unless it carries its own in-place reply, whose
    // ownership rides to TxBurst.
    if (out != pkts[i]) {
      pkts[i]->pool->Free(pkts[i]);
    }
    if (out != nullptr) {
      replies[nreplies++] = out;
    }
  }
  if (nreplies > 0) {
    // Replies burst on the queue the requests arrived on: flow affinity all
    // the way down, no cross-queue hand-off.
    TxReplies(queue, replies, nreplies);
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
  if (SocketMode()) {
    return queue == 0 ? PumpSocket(0) : 0;
  }
  if (queue >= queues_) {
    return 0;
  }
  // Ring work counts as progress: a drained message keeps the loop from
  // sleeping while a response (or a foreign request) is in flight.
  const std::size_t handled = PumpNetdev(queue) + DrainRings(queue);
  if (persist_ != nullptr) {
    // Per-queue turn end: this loop's AOF shard writes out exactly once per
    // pump, whatever the batch size was.
    persist_->FlushShard(queue);
  }
  return handled;
}

std::size_t KvServer::PumpOnce() {
  // Socket modes run one queue, so this is one event-loop turn for them.
  std::size_t handled = 0;
  for (std::uint16_t q = 0; q < queues_; ++q) {
    handled += PumpQueue(q);
  }
  return handled;
}

}  // namespace apps
