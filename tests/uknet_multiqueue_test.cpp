// Multi-queue datapath regression tests: RSS flow-hash properties, the
// same-flow-same-queue contract end to end, cross-queue demux isolation,
// per-queue pool exhaustion containment, and per-queue interrupt re-arm
// semantics. Fixtures come from net_harness.h.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "net_harness.h"
#include "ukalloc/registry.h"
#include "ukarch/hash.h"
#include "uknet/stack.h"
#include "uknetdev/loopback.h"
#include "uknetdev/rss.h"
#include "uknetdev/virtio_net.h"

namespace {

using namespace uknet;
using netharness::Host;
using netharness::ZeroAllocGuard;

// Builds a minimal-but-parseable Ethernet+IPv4+UDP frame (no checksums; the
// RSS classifier, like NIC hardware, never verifies them).
std::vector<std::uint8_t> UdpFrame(Ip4Addr src_ip, std::uint16_t src_port,
                                   Ip4Addr dst_ip, std::uint16_t dst_port,
                                   std::size_t payload_len = 4) {
  std::vector<std::uint8_t> f(14 + 20 + 8 + payload_len, 0);
  f[12] = 0x08;  // ethertype IPv4
  f[13] = 0x00;
  std::uint8_t* ip = f.data() + 14;
  ip[0] = 0x45;
  netharness::PutU16(ip + 2, static_cast<std::uint16_t>(f.size() - 14));
  ip[8] = 64;
  ip[9] = 17;  // UDP
  ip[12] = static_cast<std::uint8_t>(src_ip >> 24);
  ip[13] = static_cast<std::uint8_t>(src_ip >> 16);
  ip[14] = static_cast<std::uint8_t>(src_ip >> 8);
  ip[15] = static_cast<std::uint8_t>(src_ip);
  ip[16] = static_cast<std::uint8_t>(dst_ip >> 24);
  ip[17] = static_cast<std::uint8_t>(dst_ip >> 16);
  ip[18] = static_cast<std::uint8_t>(dst_ip >> 8);
  ip[19] = static_cast<std::uint8_t>(dst_ip);
  netharness::PutU16(ip + 20, src_port);
  netharness::PutU16(ip + 22, dst_port);
  netharness::PutU16(ip + 24, static_cast<std::uint16_t>(8 + payload_len));
  return f;
}

// ---- hash-level properties ----------------------------------------------------------

// The steering contract over 1000 pseudo-random 4-tuples: the flow hash is
// deterministic, direction-independent, agrees between the stack's TxQueueFor
// input (FlowHash4) and the device classifier (RssQueueForFrame), and does
// not degenerate onto a single queue.
TEST(RssFlowHash, SameFlowSameQueueUnder1000RandomTuples) {
  constexpr std::uint16_t kQueues = 4;
  std::size_t per_queue[kQueues] = {0};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t r1 = ukarch::Mix64(i * 2 + 1);
    const std::uint64_t r2 = ukarch::Mix64(i * 2 + 2);
    const Ip4Addr ip_a = static_cast<Ip4Addr>(r1);
    const Ip4Addr ip_b = static_cast<Ip4Addr>(r1 >> 32);
    const std::uint16_t port_a = static_cast<std::uint16_t>(r2);
    const std::uint16_t port_b = static_cast<std::uint16_t>(r2 >> 16);

    // Symmetric and deterministic.
    const std::uint32_t h = ukarch::FlowHash4(ip_a, port_a, ip_b, port_b);
    EXPECT_EQ(h, ukarch::FlowHash4(ip_b, port_b, ip_a, port_a));
    EXPECT_EQ(h, ukarch::FlowHash4(ip_a, port_a, ip_b, port_b));

    // The table-driven fast path matches the bit-serial Toeplitz reference
    // over the canonical tuple (linearity must never drift).
    {
      std::uint32_t ca = ip_a, cb = ip_b;
      std::uint16_t pa = port_a, pb = port_b;
      if (ca > cb || (ca == cb && pa > pb)) {
        std::swap(ca, cb);
        std::swap(pa, pb);
      }
      const std::uint8_t tuple[12] = {
          static_cast<std::uint8_t>(ca >> 24), static_cast<std::uint8_t>(ca >> 16),
          static_cast<std::uint8_t>(ca >> 8),  static_cast<std::uint8_t>(ca),
          static_cast<std::uint8_t>(cb >> 24), static_cast<std::uint8_t>(cb >> 16),
          static_cast<std::uint8_t>(cb >> 8),  static_cast<std::uint8_t>(cb),
          static_cast<std::uint8_t>(pa >> 8),  static_cast<std::uint8_t>(pa),
          static_cast<std::uint8_t>(pb >> 8),  static_cast<std::uint8_t>(pb),
      };
      EXPECT_EQ(h, ukarch::Toeplitz32(tuple, sizeof(tuple)));
    }

    // The device classifier sees the same flow in both directions and maps
    // every frame of it to the same queue the stack steers TX to.
    auto fwd = UdpFrame(ip_a, port_a, ip_b, port_b);
    auto rev = UdpFrame(ip_b, port_b, ip_a, port_a);
    const std::uint16_t q =
        uknetdev::RssQueueForFrame(fwd.data(), fwd.size(), kQueues);
    EXPECT_EQ(q, uknetdev::RssQueueForFrame(rev.data(), rev.size(), kQueues));
    EXPECT_EQ(q, static_cast<std::uint16_t>(h % kQueues));
    ++per_queue[q];
  }
  // Spread: no queue is starved or swallows everything (Toeplitz over random
  // tuples lands well within these generous bounds).
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    EXPECT_GT(per_queue[q], 100u) << "queue " << q << " starved";
    EXPECT_LT(per_queue[q], 500u) << "queue " << q << " overloaded";
  }
}

TEST(RssFlowHash, NonIpAndControlFramesLandOnQueueZero) {
  std::uint8_t arp[42] = {0};
  arp[12] = 0x08;
  arp[13] = 0x06;  // ethertype ARP
  EXPECT_EQ(uknetdev::RssQueueForFrame(arp, sizeof(arp), 4), 0);
  std::uint8_t runt[10] = {0};
  EXPECT_EQ(uknetdev::RssQueueForFrame(runt, sizeof(runt), 4), 0);
  EXPECT_EQ(uknetdev::RssQueueForFrame(nullptr, 0, 4), 0);
}

// ---- driver-level: loopback as the reference RSS device ----------------------------

class MultiQueueLoopbackTest : public ::testing::Test {
 protected:
  MultiQueueLoopbackTest() : mem_(32 << 20) {
    std::uint64_t heap_gpa = mem_.Carve(16 << 20, 4096);
    alloc_ = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                      mem_.At(heap_gpa, 16 << 20), 16 << 20);
  }

  // Builds a started 2-queue loopback with per-queue RX pools of |bufs| each.
  void Setup(std::uint32_t bufs = 16) {
    lo_ = std::make_unique<uknetdev::Loopback>(&mem_);
    uknetdev::DevConf conf;
    conf.nb_rx_queues = 2;
    conf.nb_tx_queues = 2;
    ASSERT_TRUE(Ok(lo_->Configure(conf)));
    for (std::uint16_t q = 0; q < 2; ++q) {
      rx_pools_.push_back(uknetdev::NetBufPool::Create(alloc_.get(), &mem_, bufs, 2048));
      ASSERT_NE(rx_pools_.back(), nullptr);
      ASSERT_TRUE(Ok(lo_->TxQueueSetup(q, uknetdev::TxQueueConf{})));
      uknetdev::RxQueueConf rxc;
      rxc.buffer_pool = rx_pools_.back().get();
      rxc.intr_handler = [this](std::uint16_t queue) { intr_log_.push_back(queue); };
      ASSERT_TRUE(Ok(lo_->RxQueueSetup(q, rxc)));
    }
    ASSERT_TRUE(Ok(lo_->Start()));
    tx_pool_ = uknetdev::NetBufPool::Create(alloc_.get(), &mem_, 64, 2048);
    ASSERT_NE(tx_pool_, nullptr);
  }

  // Finds a source port whose flow (10.0.0.2:port -> 10.0.0.1:7000) RSSes to
  // |queue| of 2.
  std::uint16_t PortForQueue(std::uint16_t queue) {
    for (std::uint16_t p = 20000;; ++p) {
      auto f = UdpFrame(MakeIp(10, 0, 0, 2), p, MakeIp(10, 0, 0, 1), 7000);
      if (uknetdev::RssQueueForFrame(f.data(), f.size(), 2) == queue) {
        return p;
      }
    }
  }

  // Transmits one crafted UDP frame through the loopback on TX queue 0.
  bool SendFlow(std::uint16_t src_port) {
    auto f = UdpFrame(MakeIp(10, 0, 0, 2), src_port, MakeIp(10, 0, 0, 1), 7000);
    uknetdev::NetBuf* nb = tx_pool_->Alloc();
    if (nb == nullptr) {
      return false;
    }
    std::byte* d = mem_.At(nb->data_gpa(), f.size());
    std::memcpy(d, f.data(), f.size());
    nb->len = static_cast<std::uint32_t>(f.size());
    std::uint16_t cnt = 1;
    lo_->TxBurst(0, &nb, &cnt);
    return cnt == 1;
  }

  std::uint16_t Drain(std::uint16_t queue) {
    uknetdev::NetBuf* rx[32];
    std::uint16_t got = 32;
    lo_->RxBurst(queue, rx, &got);
    for (std::uint16_t i = 0; i < got; ++i) {
      rx[i]->pool->Free(rx[i]);
    }
    return got;
  }

  ukplat::MemRegion mem_;
  std::unique_ptr<ukalloc::Allocator> alloc_;
  std::unique_ptr<uknetdev::Loopback> lo_;
  std::vector<std::unique_ptr<uknetdev::NetBufPool>> rx_pools_;
  std::unique_ptr<uknetdev::NetBufPool> tx_pool_;
  std::vector<std::uint16_t> intr_log_;
};

TEST_F(MultiQueueLoopbackTest, RssDemuxSteersFlowsToTheirQueues) {
  Setup();
  const std::uint16_t p0 = PortForQueue(0);
  const std::uint16_t p1 = PortForQueue(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SendFlow(p0));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(SendFlow(p1));
  }
  EXPECT_EQ(lo_->QueueStats(0).rx_packets, 0u);  // nothing drained yet
  EXPECT_EQ(Drain(0), 3);
  EXPECT_EQ(Drain(1), 5);
  EXPECT_EQ(lo_->QueueStats(0).rx_packets, 3u);
  EXPECT_EQ(lo_->QueueStats(1).rx_packets, 5u);
  EXPECT_EQ(lo_->stats().rx_packets, 8u);  // aggregate view still adds up
}

// Per-queue pool exhaustion: queue 0's pool runs dry, its overflow frames
// drop — and queue 1's flow keeps flowing with zero loss.
TEST_F(MultiQueueLoopbackTest, PoolExhaustionDoesNotStarveSiblingQueue) {
  Setup(/*bufs=*/4);
  const std::uint16_t p0 = PortForQueue(0);
  const std::uint16_t p1 = PortForQueue(1);
  for (int i = 0; i < 6; ++i) {
    SendFlow(p0);  // 4 land in q0's ring, 2 overflow the dry pool
  }
  EXPECT_EQ(lo_->QueueStats(0).rx_drops, 2u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(SendFlow(p1));  // sibling queue is untouched by q0's exhaustion
  }
  EXPECT_EQ(lo_->QueueStats(1).rx_drops, 0u);
  EXPECT_EQ(Drain(1), 4);
  EXPECT_EQ(Drain(0), 4);
  // After draining, q0's pool circulates again.
  ASSERT_TRUE(SendFlow(p0));
  EXPECT_EQ(Drain(0), 1);
  EXPECT_EQ(lo_->QueueStats(0).rx_drops, 2u);  // no further drops
}

// Interrupt storm-avoidance is per queue: each queue's line fires once on
// first delivery, stays silent while frames accumulate, and re-arms only
// when ITS ring drains — the sibling queue's state never interferes.
TEST_F(MultiQueueLoopbackTest, RxInterruptRearmIsPerQueue) {
  Setup();
  ASSERT_TRUE(Ok(lo_->RxIntrEnable(0)));
  ASSERT_TRUE(Ok(lo_->RxIntrEnable(1)));
  const std::uint16_t p0 = PortForQueue(0);
  const std::uint16_t p1 = PortForQueue(1);

  SendFlow(p0);
  ASSERT_EQ(intr_log_.size(), 1u);
  EXPECT_EQ(intr_log_[0], 0);
  SendFlow(p0);  // q0 not drained: no second interrupt (storm avoidance)
  EXPECT_EQ(intr_log_.size(), 1u);

  SendFlow(p1);  // q1 is independently armed: it fires
  ASSERT_EQ(intr_log_.size(), 2u);
  EXPECT_EQ(intr_log_[1], 1);

  EXPECT_EQ(Drain(0), 2);  // q0 drains -> re-arms
  SendFlow(p0);
  ASSERT_EQ(intr_log_.size(), 3u);
  EXPECT_EQ(intr_log_[2], 0);
  // q1 still holds an undrained frame: its line stays down.
  SendFlow(p1);
  EXPECT_EQ(intr_log_.size(), 3u);
  EXPECT_EQ(lo_->QueueStats(0).rx_interrupts, 2u);
  EXPECT_EQ(lo_->QueueStats(1).rx_interrupts, 1u);
}

// The loopback regression from ISSUE 3: RxIntrEnable silently accepted any
// queue index. Out-of-range queue operations must fail loudly on both
// drivers, and Configure must reject counts beyond the advertised maximum.
TEST_F(MultiQueueLoopbackTest, InvalidQueueIndicesRejected) {
  Setup();
  EXPECT_EQ(lo_->RxIntrEnable(2), ukarch::Status::kInval);
  EXPECT_EQ(lo_->RxIntrEnable(100), ukarch::Status::kInval);
  EXPECT_EQ(lo_->RxIntrDisable(2), ukarch::Status::kInval);
  EXPECT_EQ(lo_->TxQueueSetup(2, uknetdev::TxQueueConf{}), ukarch::Status::kInval);
  uknetdev::RxQueueConf rxc;
  rxc.buffer_pool = rx_pools_[0].get();
  EXPECT_EQ(lo_->RxQueueSetup(2, rxc), ukarch::Status::kInval);
  uknetdev::DevConf over;
  over.nb_rx_queues = uknetdev::Loopback::kMaxQueues + 1;
  uknetdev::Loopback fresh(&mem_);
  EXPECT_EQ(fresh.Configure(over), ukarch::Status::kInval);
}

TEST_F(MultiQueueLoopbackTest, VirtioRejectsInvalidQueueIndicesToo) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  uknetdev::VirtioNet::Config cfg;
  cfg.max_queue_pairs = 2;
  uknetdev::VirtioNet nic(&mem_, &clock, &wire, cfg);
  uknetdev::DevConf over;
  over.nb_rx_queues = 3;
  over.nb_tx_queues = 3;
  EXPECT_EQ(nic.Configure(over), ukarch::Status::kNotSup);
  uknetdev::DevConf two;
  two.nb_rx_queues = 2;
  two.nb_tx_queues = 2;
  ASSERT_TRUE(Ok(nic.Configure(two)));
  EXPECT_EQ(nic.RxIntrEnable(2), ukarch::Status::kInval);
  EXPECT_EQ(nic.TxQueueSetup(2, uknetdev::TxQueueConf{}), ukarch::Status::kInval);
  uknetdev::RxQueueConf rxc;
  EXPECT_EQ(nic.RxQueueSetup(0, rxc), ukarch::Status::kInval);  // still needs a pool
}

// stats() is the field-wise sum of QueueStats(q) over the device's queues.
void ExpectStatsAreQueueSum(const uknetdev::NetDev& dev, std::uint16_t queues) {
  uknetdev::NetDev::Stats sum;
  for (std::uint16_t q = 0; q < queues; ++q) {
    const uknetdev::NetDev::Stats s = dev.QueueStats(q);
    sum.tx_packets += s.tx_packets;
    sum.tx_bytes += s.tx_bytes;
    sum.tx_drops += s.tx_drops;
    sum.rx_packets += s.rx_packets;
    sum.rx_bytes += s.rx_bytes;
    sum.rx_drops += s.rx_drops;
    sum.rx_interrupts += s.rx_interrupts;
  }
  const uknetdev::NetDev::Stats agg = dev.stats();
  EXPECT_EQ(agg.tx_packets, sum.tx_packets);
  EXPECT_EQ(agg.tx_bytes, sum.tx_bytes);
  EXPECT_EQ(agg.tx_drops, sum.tx_drops);
  EXPECT_EQ(agg.rx_packets, sum.rx_packets);
  EXPECT_EQ(agg.rx_bytes, sum.rx_bytes);
  EXPECT_EQ(agg.rx_drops, sum.rx_drops);
  EXPECT_EQ(agg.rx_interrupts, sum.rx_interrupts);
}

// Both TX queues carry frames for both RX queues, with 4-buffer RX pools so
// each RX queue overflows: every Stats field is nonzero somewhere, and the
// aggregate still equals the per-queue sum.
TEST_F(MultiQueueLoopbackTest, AggregateStatsAreTheSumOfQueueStats) {
  Setup(/*bufs=*/4);
  ASSERT_TRUE(Ok(lo_->RxIntrEnable(0)));
  ASSERT_TRUE(Ok(lo_->RxIntrEnable(1)));
  const std::uint16_t ports[2] = {PortForQueue(0), PortForQueue(1)};
  for (std::uint16_t txq = 0; txq < 2; ++txq) {
    for (int i = 0; i < 6; ++i) {
      auto f = UdpFrame(MakeIp(10, 0, 0, 2), ports[i % 2], MakeIp(10, 0, 0, 1), 7000);
      uknetdev::NetBuf* nb = tx_pool_->Alloc();
      ASSERT_NE(nb, nullptr);
      std::memcpy(mem_.At(nb->data_gpa(), f.size()), f.data(), f.size());
      nb->len = static_cast<std::uint32_t>(f.size());
      std::uint16_t cnt = 1;
      lo_->TxBurst(txq, &nb, &cnt);
    }
  }
  EXPECT_EQ(Drain(0), 4);
  EXPECT_EQ(Drain(1), 4);
  for (std::uint16_t q = 0; q < 2; ++q) {
    EXPECT_GT(lo_->QueueStats(q).tx_packets, 0u);
    EXPECT_GT(lo_->QueueStats(q).rx_packets, 0u);
  }
  const uknetdev::NetDev::Stats agg = lo_->stats();
  EXPECT_EQ(agg.tx_packets, 8u);
  EXPECT_EQ(agg.tx_drops, 4u);
  EXPECT_EQ(agg.rx_packets, 8u);
  EXPECT_EQ(agg.rx_drops, 4u);
  EXPECT_EQ(agg.rx_interrupts, 2u);
  ExpectStatsAreQueueSum(*lo_, 2);
}

// ---- stack-level: a 2-queue NetIf end to end ---------------------------------------

class TwoQueueStackTest : public netharness::TwoHostTest {
 protected:
  TwoQueueStackTest() : TwoHostTest(/*queues=*/2, /*pool_bufs=*/768) {}
};

// The tentpole property on the wire: every datagram of a flow lands on the
// queue the symmetric hash names, on both hosts, in both directions — and a
// warm echo round shows flat churn on the unused queue's pools.
TEST_F(TwoQueueStackTest, SameFlowSameQueueEndToEnd) {
  ASSERT_EQ(a_.netif->queue_count(), 2);
  ASSERT_EQ(b_.netif->queue_count(), 2);
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7000)));

  // Warm ARP so queue steering (not resolution) decides the path.
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  ASSERT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));

  // Several client sockets; each flow must arrive wholly on its hash queue.
  bool queue_hit[2] = {false, false};
  std::vector<std::shared_ptr<UdpSocket>> clients;
  for (int c = 0; c < 6; ++c) {
    auto client = a_.stack->UdpOpen();
    const std::uint16_t expected_q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(MakeIp(10, 0, 0, 1), client->local_port(),
                          MakeIp(10, 0, 0, 2), 7000) %
        2);
    std::size_t before = server->queued();
    for (int i = 0; i < 4; ++i) {
      std::uint8_t msg[4] = {static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(i),
                             0, 0};
      ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 4);
    }
    ASSERT_TRUE(PumpUntil([&] { return server->queued() >= before + 4; }));
    // All four datagrams of the flow arrived on the predicted queue.
    const DatagramView* views[64];
    std::size_t n = server->PeekBatch(views, 64);
    for (std::size_t i = before; i < n; ++i) {
      EXPECT_EQ(views[i]->rx_queue, expected_q) << "flow " << c;
    }
    // Replies ride the same flow back: the client's RX queue matches its own
    // hash of the (symmetric) tuple.
    std::uint8_t reply[4] = {0x99, 0, 0, 0};
    ASSERT_EQ(server->SendTo(MakeIp(10, 0, 0, 1), client->local_port(), reply), 4);
    ASSERT_TRUE(PumpUntil([&] { return client->readable(); }));
    EXPECT_EQ(client->last_rx_queue(), expected_q) << "flow " << c;
    while (client->RecvFrom().has_value()) {
    }
    queue_hit[expected_q] = true;
    clients.push_back(std::move(client));
  }
  // Six ephemeral ports hit both queues (hash spread sanity).
  EXPECT_TRUE(queue_hit[0]);
  EXPECT_TRUE(queue_hit[1]);
  server->ReleaseFront(server->queued());

  // Steady state, single-queue flow: the sibling queue's pools stay flat.
  std::shared_ptr<UdpSocket> q1_client;
  for (auto& c : clients) {
    if (ukarch::FlowHash4(MakeIp(10, 0, 0, 1), c->local_port(),
                          MakeIp(10, 0, 0, 2), 7000) %
            2 ==
        1) {
      q1_client = c;
      break;
    }
  }
  ASSERT_NE(q1_client, nullptr);
  ZeroAllocGuard guard({b_.netif->tx_pool(0), b_.netif->rx_pool(0),
                        b_.netif->tx_pool(1), b_.netif->rx_pool(1)},
                       b_.alloc.get());
  constexpr std::size_t kRound = 8;
  for (std::size_t i = 0; i < kRound; ++i) {
    std::uint8_t msg[4] = {'q', '1', static_cast<std::uint8_t>(i), 0};
    ASSERT_EQ(q1_client->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 4);
  }
  ASSERT_TRUE(PumpUntil([&] { return server->queued() >= kRound; }));
  const DatagramView* views[kRound];
  ASSERT_EQ(server->PeekBatch(views, kRound), kRound);
  for (std::size_t i = 0; i < kRound; ++i) {
    ASSERT_EQ(server->SendTo(views[i]->src_ip, views[i]->src_port,
                             std::span(views[i]->data, views[i]->len)),
              4);
  }
  server->ReleaseFront(kRound);
  ASSERT_TRUE(PumpUntil([&] { return q1_client->queued() >= kRound; }));
  EXPECT_EQ(guard.pool_allocs(0), 0u) << "queue 0 TX pool churned for a queue-1 flow";
  EXPECT_EQ(guard.pool_allocs(1), 0u) << "queue 0 RX pool churned for a queue-1 flow";
  EXPECT_EQ(guard.pool_allocs(2), kRound);  // one TX buf per reply, exact
  EXPECT_EQ(guard.pool_allocs(3), kRound);  // one RX refill per datagram
  guard.ExpectHeapSteady("2-queue udp echo steady state");
}

// TCP flows pin to their hash queue at connect/accept and never leave it.
TEST_F(TwoQueueStackTest, TcpConnectionsKeepQueueAffinity) {
  auto listener = b_.stack->TcpListen(8080);
  ASSERT_NE(listener, nullptr);
  bool queue_hit[2] = {false, false};
  for (int c = 0; c < 6; ++c) {
    auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 8080);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(PumpUntil([&] { return client->connected(); }));
    auto server_sock = listener->Accept();
    ASSERT_NE(server_sock, nullptr);
    // Symmetric hash: both ends compute the same queue for the flow.
    EXPECT_EQ(client->tx_queue(), server_sock->tx_queue());
    queue_hit[client->tx_queue()] = true;

    std::uint8_t msg[] = {'m', 'q'};
    ASSERT_EQ(client->Send(msg), 2);
    ASSERT_TRUE(PumpUntil([&] { return server_sock->readable(); }));
    std::uint8_t buf[8];
    ASSERT_EQ(server_sock->Recv(buf), 2);
    server_sock->Send(std::span(buf, 2));
    ASSERT_TRUE(PumpUntil([&] { return client->readable(); }));
    ASSERT_EQ(client->Recv(buf), 2);
    // Segments of the flow arrived on the queue both ends steer TX to.
    EXPECT_EQ(server_sock->last_rx_queue(), server_sock->tx_queue());
    EXPECT_EQ(client->last_rx_queue(), client->tx_queue());
  }
  EXPECT_TRUE(queue_hit[0]);
  EXPECT_TRUE(queue_hit[1]);
}

// Disjoint queues demux independently: polling one queue delivers only the
// flows hashed to it; the sibling queue's traffic waits, untouched, until
// its own loop runs — the "independent app loops pump disjoint queues" model.
TEST_F(TwoQueueStackTest, CrossQueueDemuxIsolation) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7000)));
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  ASSERT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));

  // One client per queue.
  std::shared_ptr<UdpSocket> flow[2];
  while (flow[0] == nullptr || flow[1] == nullptr) {
    auto c = a_.stack->UdpOpen();
    std::uint16_t q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(MakeIp(10, 0, 0, 1), c->local_port(),
                          MakeIp(10, 0, 0, 2), 7000) %
        2);
    if (flow[q] == nullptr) {
      flow[q] = std::move(c);
    }
  }
  std::uint8_t m0[] = {'q', '0'};
  std::uint8_t m1[] = {'q', '1'};
  ASSERT_EQ(flow[0]->SendTo(MakeIp(10, 0, 0, 2), 7000, m0), 2);
  ASSERT_EQ(flow[1]->SendTo(MakeIp(10, 0, 0, 2), 7000, m1), 2);
  for (int i = 0; i < 8; ++i) {
    a_.stack->Poll();  // client pushes both frames onto the wire
  }

  // Server pumps ONLY queue 0: exactly the queue-0 flow arrives.
  for (int i = 0; i < 8 && server->queued() < 1; ++i) {
    b_.netif->Poll(0);
  }
  ASSERT_EQ(server->queued(), 1u);
  {
    auto d = server->RecvFrom();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->src_port, flow[0]->local_port());
  }
  // Now the sibling loop runs: the queue-1 flow is still there, undropped.
  for (int i = 0; i < 8 && server->queued() < 1; ++i) {
    b_.netif->Poll(1);
  }
  ASSERT_EQ(server->queued(), 1u);
  auto d = server->RecvFrom();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_port, flow[1]->local_port());
  EXPECT_EQ(server->last_rx_queue(), 1);
}

// A slow consumer parking one queue's RX pool degrades THAT queue to the
// copy fallback; the sibling queue keeps zero-copy delivery. Per-queue pools
// are the containment boundary.
TEST_F(TwoQueueStackTest, SlowConsumerOnOneQueueKeepsSiblingZeroCopy) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7000)));
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  ASSERT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));

  std::shared_ptr<UdpSocket> flow[2];
  while (flow[0] == nullptr || flow[1] == nullptr) {
    auto c = a_.stack->UdpOpen();
    std::uint16_t q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(MakeIp(10, 0, 0, 1), c->local_port(),
                          MakeIp(10, 0, 0, 2), 7000) %
        2);
    if (flow[q] == nullptr) {
      flow[q] = std::move(c);
    }
  }

  // Flood queue 0's flow and hold every view (a parked consumer): available
  // buffers sink below the low-water mark, so late datagrams arrive copied.
  const std::uint32_t pool_cap = b_.netif->rx_pool(0)->capacity();
  const std::uint32_t low_water = pool_cap / 4;
  std::uint8_t msg[16] = {0};
  std::size_t sent = 0;
  while (b_.netif->rx_pool(0)->available() > low_water && sent < 600) {
    msg[0] = static_cast<std::uint8_t>(sent);
    ASSERT_EQ(flow[0]->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 16);
    ++sent;
    a_.stack->Poll();
    b_.stack->Poll();
  }
  ASSERT_LE(b_.netif->rx_pool(0)->available(), low_water);
  // One more on the exhausted queue: delivered, but as a copy (nb == null).
  msg[0] = 0xEE;
  ASSERT_EQ(flow[0]->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 16);
  ASSERT_TRUE(PumpUntil([&] { return server->queued() > sent; }));
  const DatagramView* views[640];
  std::size_t n = server->PeekBatch(views, 640);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(views[n - 1]->nb, nullptr) << "low-water fallback should have copied";

  // The sibling queue still has a healthy pool: its flow stays zero-copy.
  EXPECT_GT(b_.netif->rx_pool(1)->available(), low_water);
  msg[0] = 0x11;
  ASSERT_EQ(flow[1]->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 16);
  std::size_t before = server->queued();
  ASSERT_TRUE(PumpUntil([&] { return server->queued() > before; }));
  n = server->PeekBatch(views, 640);
  EXPECT_NE(views[n - 1]->nb, nullptr) << "sibling queue lost zero-copy delivery";
  EXPECT_EQ(views[n - 1]->rx_queue, 1);
  server->ReleaseFront(server->queued());
}

// The same aggregate contract on virtio-net, driven by real stack traffic:
// UDP flows on both queues, echoed back, so each queue of both NICs
// transmits and receives.
TEST_F(TwoQueueStackTest, VirtioAggregateStatsAreTheSumOfQueueStats) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7000)));
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  ASSERT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));

  std::vector<std::shared_ptr<UdpSocket>> clients;
  bool queue_hit[2] = {false, false};
  while (!queue_hit[0] || !queue_hit[1] || clients.size() < 6) {
    auto c = a_.stack->UdpOpen();
    queue_hit[a_.netif->TxQueueFor(MakeIp(10, 0, 0, 2), c->local_port(), 7000)] = true;
    clients.push_back(std::move(c));
  }
  std::uint8_t msg[] = {'s', 'u', 'm'};
  for (auto& c : clients) {
    ASSERT_EQ(c->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 3);
  }
  std::size_t echoed = 0;
  ASSERT_TRUE(PumpUntil([&] {
    while (auto d = server->RecvFrom()) {
      server->SendTo(d->src_ip, d->src_port, d->payload);
      ++echoed;
    }
    std::size_t answered = 0;
    for (auto& c : clients) {
      answered += c->queued();
    }
    return echoed == clients.size() && answered == clients.size();
  }));

  for (const uknetdev::VirtioNet* nic : {a_.nic.get(), b_.nic.get()}) {
    for (std::uint16_t q = 0; q < 2; ++q) {
      EXPECT_GT(nic->QueueStats(q).tx_packets, 0u);
      EXPECT_GT(nic->QueueStats(q).rx_packets, 0u);
    }
    ExpectStatsAreQueueSum(*nic, 2);
  }
}

}  // namespace
