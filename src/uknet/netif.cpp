#include <algorithm>
#include <cstring>

#include "ukarch/hash.h"
#include "uknet/stack.h"

namespace uknet {

namespace {
constexpr uknetdev::MacAddr kBroadcast{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
constexpr std::uint16_t kRxBurstSize = 32;
constexpr std::size_t kArpPendingCap = 8;
constexpr std::uint32_t kMinPoolBufsPerQueue = 8;
}  // namespace

NetIf::NetIf(NetStack* stack, uknetdev::NetDev* dev, ukplat::MemRegion* mem,
             ukalloc::Allocator* alloc, Config config)
    : stack_(stack), dev_(dev), mem_(mem), alloc_(alloc), config_(config) {}

NetIf::~NetIf() {
  // Netbufs parked behind unresolved ARP still belong to their TX pools.
  for (auto& [hop, pending] : arp_pending_) {
    for (PendingTx& p : pending) {
      FreeTxBuf(p.nb);
    }
  }
}

ukarch::Status NetIf::Init() {
  const uknetdev::DevInfo info = dev_->Info();
  dev_tx_headroom_ = info.tx_headroom;
  const std::uint16_t dev_max = std::min(info.max_rx_queues, info.max_tx_queues);
  nb_queues_ = std::clamp<std::uint16_t>(config_.queues, 1, std::max<std::uint16_t>(dev_max, 1));

  // Per-queue private pools: the total budget splits evenly so queue loops
  // never contend on a shared free list.
  const std::uint32_t tx_per_q =
      std::max(config_.tx_pool_bufs / nb_queues_, kMinPoolBufsPerQueue);
  const std::uint32_t rx_per_q =
      std::max(config_.rx_pool_bufs / nb_queues_, kMinPoolBufsPerQueue);
  tx_pools_.clear();
  rx_pools_.clear();
  for (std::uint16_t q = 0; q < nb_queues_; ++q) {
    tx_pools_.push_back(
        uknetdev::NetBufPool::Create(alloc_, mem_, tx_per_q, config_.buf_size));
    rx_pools_.push_back(
        uknetdev::NetBufPool::Create(alloc_, mem_, rx_per_q, config_.buf_size));
    if (tx_pools_.back() == nullptr || rx_pools_.back() == nullptr) {
      return ukarch::Status::kNoMem;
    }
    // TX writability interrupt: a dry pool regaining a buffer notifies the
    // stack, which turns it into kEvtWritable edges / a queue doorbell.
    tx_pools_.back()->SetRefillCallback(
        [this, q] { stack_->OnTxPoolRefill(this, q); });
  }

  uknetdev::DevConf conf;
  conf.nb_rx_queues = nb_queues_;
  conf.nb_tx_queues = nb_queues_;
  ukarch::Status st = dev_->Configure(conf);
  if (!Ok(st)) {
    return st;
  }
  for (auto& w : rx_wakeups_) {
    w.store(0, std::memory_order_relaxed);
  }
  for (std::uint16_t q = 0; q < nb_queues_; ++q) {
    st = dev_->TxQueueSetup(q, uknetdev::TxQueueConf{});
    if (!Ok(st)) {
      return st;
    }
    uknetdev::RxQueueConf rxc;
    rxc.buffer_pool = rx_pools_[q].get();
    // Wakeup hook: inert until a PollWait arms the line (RxIntrEnable).
    rxc.intr_handler = [this](std::uint16_t rxq) { OnRxInterrupt(rxq); };
    st = dev_->RxQueueSetup(q, rxc);
    if (!Ok(st)) {
      return st;
    }
  }
  return dev_->Start();
}

// ---- interrupt-driven idle ---------------------------------------------------------

void NetIf::ArmRx(std::uint16_t queue) {
  if (queue < nb_queues_) {
    dev_->RxIntrEnable(queue);
  }
}

void NetIf::DisarmRx(std::uint16_t queue) {
  if (queue < nb_queues_) {
    dev_->RxIntrDisable(queue);
  }
}

void NetIf::OnRxInterrupt(std::uint16_t queue) {
  // May fire on a foreign loop (device backend thread): the slot is atomic
  // and fixed-size, so no coordination with the owning loop is needed.
  rx_wakeups_[QueueSlot(queue)].fetch_add(1, std::memory_order_relaxed);
  stack_->WakeRxWaiters(queue);
}

std::uint16_t NetIf::TxQueueFor(Ip4Addr remote_ip, std::uint16_t local_port,
                                std::uint16_t remote_port) const {
  if (nb_queues_ <= 1) {
    return 0;
  }
  return static_cast<std::uint16_t>(
      ukarch::FlowHash4(config_.ip, local_port, remote_ip, remote_port) % nb_queues_);
}

// ---- zero-copy TX ------------------------------------------------------------------

uknetdev::NetBuf* NetIf::AllocTxBuf(std::uint32_t l4_header_bytes, std::uint16_t queue) {
  std::uint32_t reserve = dev_tx_headroom_ +
                          static_cast<std::uint32_t>(kEthHdrBytes + kIp4HdrBytes) +
                          l4_header_bytes;
  if (queue >= tx_pools_.size()) {
    return nullptr;
  }
  return tx_pools_[queue]->AllocWithHeadroom(reserve);
}

void NetIf::FreeTxBuf(uknetdev::NetBuf* nb) {
  if (nb != nullptr && nb->pool != nullptr) {
    nb->pool->Free(nb);
  }
}

bool NetIf::SendEthBuf(uknetdev::MacAddr dst, std::uint16_t ethertype,
                       uknetdev::NetBuf* nb, std::uint16_t queue) {
  std::uint8_t* hdr = nb->PrependHeader(*mem_, kEthHdrBytes);
  if (hdr == nullptr) {
    FreeTxBuf(nb);
    return false;
  }
  EthHeader eth{dst, dev_->mac(), ethertype};
  eth.Serialize(hdr);
  uknetdev::NetBuf* pkts[1] = {nb};
  std::uint16_t cnt = 1;
  dev_->TxBurst(queue, pkts, &cnt);
  if (cnt != 1) {
    FreeTxBuf(nb);
    return false;
  }
  return true;
}

std::uint16_t NetIf::SendEthBatch(uknetdev::MacAddr dst, std::uint16_t ethertype,
                                  uknetdev::NetBuf** pkts, std::uint16_t cnt,
                                  std::uint16_t queue) {
  EthHeader eth{dst, dev_->mac(), ethertype};
  std::uint16_t ready = 0;
  for (std::uint16_t i = 0; i < cnt; ++i) {
    std::uint8_t* hdr = pkts[i]->PrependHeader(*mem_, kEthHdrBytes);
    if (hdr == nullptr) {
      FreeTxBuf(pkts[i]);
      continue;
    }
    eth.Serialize(hdr);
    pkts[ready++] = pkts[i];
  }
  std::uint16_t sent = ready;
  if (ready > 0) {
    dev_->TxBurst(queue, pkts, &sent);
    for (std::uint16_t i = sent; i < ready; ++i) {
      FreeTxBuf(pkts[i]);
    }
  }
  return sent;
}

bool NetIf::SendIpBuf(Ip4Addr dst, std::uint8_t proto, uknetdev::NetBuf* nb,
                      std::uint16_t queue) {
  // The single-packet send is the batch of one: same header construction,
  // same ARP-miss parking policy (bounded per-hop queue; beyond that, drop —
  // TCP retransmits), one place to change either.
  uknetdev::NetBuf* pkts[1] = {nb};
  return SendIpBatch(dst, proto, pkts, 1, queue) == 1;
}

std::uint16_t NetIf::SendIpBatch(Ip4Addr dst, std::uint8_t proto,
                                 uknetdev::NetBuf** pkts, std::uint16_t cnt,
                                 std::uint16_t queue) {
  // One destination means one next hop: resolve it once for the whole batch
  // instead of per packet, then emit everything in a single TxBurst.
  std::uint16_t ready = 0;
  for (std::uint16_t i = 0; i < cnt; ++i) {
    Ip4Header ip;
    ip.total_len = static_cast<std::uint16_t>(kIp4HdrBytes + pkts[i]->len);
    ip.id = ip_id_++;
    ip.proto = proto;
    ip.src = config_.ip;
    ip.dst = dst;
    std::uint8_t* hdr = pkts[i]->PrependHeader(*mem_, kIp4HdrBytes);
    if (hdr == nullptr) {
      FreeTxBuf(pkts[i]);
      continue;
    }
    ip.Serialize(hdr);
    pkts[ready++] = pkts[i];
  }
  if (ready == 0) {
    return 0;
  }
  Ip4Addr hop = NextHop(dst);
  auto cached = arp_cache_.find(hop);
  if (cached == arp_cache_.end()) {
    // Unresolved next hop: park what the bounded per-hop queue accepts
    // behind ONE ARP request; overflow drops (UDP callers retry, TCP
    // retransmission recovers).
    auto& pending = arp_pending_[hop];
    std::uint16_t parked = 0;
    for (std::uint16_t i = 0; i < ready; ++i) {
      if (pending.size() >= kArpPendingCap) {
        if_stats_.Add(&IfStats::pending_dropped);
        FreeTxBuf(pkts[i]);
        continue;
      }
      pending.push_back(PendingTx{pkts[i], queue});
      ++parked;
    }
    if (parked > 0) {
      // A full pending queue means an earlier park already sent the request;
      // re-asking per dropped batch would just add ARP frames to congestion.
      SendArpRequest(hop, queue);
    }
    return parked;
  }
  std::uint16_t sent = SendEthBatch(cached->second, kEthTypeIp4, pkts, ready, queue);
  if_stats_.Add(&IfStats::ip_tx, sent);
  return sent;
}

bool NetIf::SendIp(Ip4Addr dst, std::uint8_t proto,
                   std::span<const std::uint8_t> payload, std::uint16_t queue) {
  uknetdev::NetBuf* nb = AllocTxBuf(0, queue);
  if (nb == nullptr) {
    return false;
  }
  std::uint8_t* body = nb->Append(*mem_, static_cast<std::uint32_t>(payload.size()));
  if (body == nullptr) {
    FreeTxBuf(nb);
    return false;
  }
  if (!payload.empty()) {
    std::memcpy(body, payload.data(), payload.size());
  }
  return SendIpBuf(dst, proto, nb, queue);
}

void NetIf::SendArpRequest(Ip4Addr target, std::uint16_t queue) {
  ArpPacket arp;
  arp.oper = 1;
  arp.sender_mac = dev_->mac();
  arp.sender_ip = config_.ip;
  arp.target_ip = target;
  uknetdev::NetBuf* nb = AllocTxBuf(0, queue);
  if (nb == nullptr) {
    return;
  }
  std::uint8_t* body = nb->Append(*mem_, kArpBytes);
  if (body == nullptr) {
    FreeTxBuf(nb);
    return;
  }
  arp.Serialize(body);
  if_stats_.Add(&IfStats::arp_requests);
  SendEthBuf(kBroadcast, kEthTypeArp, nb, queue);
}

// ---- batched RX --------------------------------------------------------------------

std::size_t NetIf::Poll() {
  std::size_t handled = 0;
  for (std::uint16_t q = 0; q < nb_queues_; ++q) {
    handled += Poll(q);
  }
  return handled;
}

std::size_t NetIf::Poll(std::uint16_t queue) {
  if (queue >= nb_queues_) {
    return 0;
  }
  uknetdev::NetBuf* pkts[kRxBurstSize];
  std::uint16_t cnt = kRxBurstSize;
  dev_->RxBurst(queue, pkts, &cnt);
  return ProcessRxBurst(queue, pkts, cnt);
}

std::size_t NetIf::ProcessRxBurst(std::uint16_t queue, uknetdev::NetBuf** pkts,
                                  std::uint16_t cnt) {
  for (std::uint16_t i = 0; i < cnt; ++i) {
    uknetdev::NetBuf* nb = pkts[i];
    const std::byte* data = nb->Data(*mem_);
    bool retained = false;
    if (data != nullptr) {
      retained = HandleFrame(
          queue, nb,
          std::span(reinterpret_cast<const std::uint8_t*>(data), nb->len));
    }
    if (!retained && nb->pool != nullptr) {
      nb->pool->Free(nb);
    }
  }
  return cnt;
}

bool NetIf::HandleFrame(std::uint16_t queue, uknetdev::NetBuf* nb,
                        std::span<const std::uint8_t> frame) {
  if (frame.size() < kEthHdrBytes) {
    return false;
  }
  EthHeader eth = EthHeader::Parse(frame);
  bool for_us = eth.dst == dev_->mac() || eth.dst == kBroadcast;
  if (!for_us) {
    return false;
  }
  std::span<const std::uint8_t> body = frame.subspan(kEthHdrBytes);
  if (eth.ethertype == kEthTypeArp) {
    HandleArp(queue, body);
    return false;
  }
  if (eth.ethertype == kEthTypeIp4) {
    return HandleIp(queue, nb, body);
  }
  return false;
}

void NetIf::HandleArp(std::uint16_t queue, std::span<const std::uint8_t> body) {
  auto arp = ArpPacket::Parse(body);
  if (!arp.has_value()) {
    return;
  }
  // Learn the sender either way (gratuitous + reply + request).
  arp_cache_[arp->sender_ip] = arp->sender_mac;

  // Flush netbufs parked behind this resolution: they already carry their IP
  // headers, so only the Ethernet header is prepended before they go out —
  // batched per TX queue so every packet stays on its flow's queue.
  auto pending = arp_pending_.find(arp->sender_ip);
  if (pending != arp_pending_.end()) {
    for (std::uint16_t q = 0; q < nb_queues_; ++q) {
      uknetdev::NetBuf* batch[kArpPendingCap];
      std::uint16_t n = 0;
      for (PendingTx& p : pending->second) {
        if (p.queue == q && n < kArpPendingCap) {
          batch[n++] = p.nb;
        }
      }
      if (n > 0) {
        if_stats_.Add(&IfStats::ip_tx,
                      SendEthBatch(arp->sender_mac, kEthTypeIp4, batch, n, q));
      }
    }
    arp_pending_.erase(pending);
  }

  if (arp->oper == 1 && arp->target_ip == config_.ip) {
    ArpPacket reply;
    reply.oper = 2;
    reply.sender_mac = dev_->mac();
    reply.sender_ip = config_.ip;
    reply.target_mac = arp->sender_mac;
    reply.target_ip = arp->sender_ip;
    uknetdev::NetBuf* nb = AllocTxBuf(0, queue);
    if (nb == nullptr) {
      return;
    }
    std::uint8_t* out = nb->Append(*mem_, kArpBytes);
    if (out == nullptr) {
      FreeTxBuf(nb);
      return;
    }
    reply.Serialize(out);
    if_stats_.Add(&IfStats::arp_replies);
    SendEthBuf(arp->sender_mac, kEthTypeArp, nb, queue);
  }
}

bool NetIf::HandleIp(std::uint16_t queue, uknetdev::NetBuf* nb,
                     std::span<const std::uint8_t> body) {
  auto ip = Ip4Header::Parse(body);
  if (!ip.has_value()) {
    if_stats_.Add(&IfStats::rx_checksum_drops);
    return false;
  }
  if (ip->dst != config_.ip) {
    return false;  // not routed; unikernels are endpoints
  }
  if_stats_.Add(&IfStats::ip_rx);
  // Slice the L4 payload at the parsed header length: packets carrying IP
  // options (IHL > 5) must not leak option bytes into the UDP/TCP payload.
  std::span<const std::uint8_t> payload =
      body.subspan(ip->header_len, ip->total_len - ip->header_len);
  return stack_->HandleIpPacket(this, queue, nb, *ip, payload);
}

}  // namespace uknet
