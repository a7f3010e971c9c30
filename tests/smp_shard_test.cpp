// tests/smp_shard_test.cpp - SMP scale-out over the shared-nothing store.
//
// The contract under test (src/uknet/DATAPATH.md "SMP scale-out: one loop
// per queue over a shared-nothing store"): N event loops each own one RSS
// queue and one
// store shard; a shard-aligned request never touches another loop's memory
// (the off-diagonal access-audit buckets stay zero), cross-shard operations
// travel as SPSC ring messages executed by the owner, and doorbells follow
// the push-then-ring / drain-then-sleep discipline so a loop parked in
// PollWait wakes when a sibling rings work into its mailbox.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net_harness.h"
#include "apps/kvstore.h"
#include "ukalloc/registry.h"
#include "ukarch/hash.h"
#include "uklock/rcu.h"
#include "uknetdev/loopback.h"
#include "uknetdev/rss.h"
#include "uknetdev/virtio_net.h"
#include "uksched/scheduler.h"
#include "uksched/spsc_ring.h"
#include "uksched/thread_scheduler.h"
#include "ukplat/clock.h"

namespace {

using namespace uknet;
using apps::KvServer;

// ---- SpscRing: the cross-shard mailbox ------------------------------------------

TEST(SpscRing, FifoOrderSurvivesIndexWraparound) {
  uksched::SpscRing<int, 8> ring;
  int out = -1;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.Pop(&out));  // empty ring: consumer backs off
  // Push/pop far past the capacity so the free-running indices wrap the mask
  // repeatedly; FIFO order must hold across every wrap.
  for (int cycle = 0; cycle < 7; ++cycle) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(ring.Push(cycle * 100 + i));
    }
    EXPECT_EQ(ring.size(), 6u);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(ring.Pop(&out));
      EXPECT_EQ(out, cycle * 100 + i);
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.Pop(&out));
}

TEST(SpscRing, FullRingIsBackpressureNotLoss) {
  uksched::SpscRing<int, 4> ring;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.Push(i));
  }
  EXPECT_EQ(ring.size(), ring.capacity());
  // Full: the producer keeps the message (KvServer parks it in an outbox).
  EXPECT_FALSE(ring.Push(99));
  EXPECT_FALSE(ring.Push(99));
  EXPECT_EQ(ring.size(), 4u);
  int out = -1;
  ASSERT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.Push(4));   // exactly one slot reopened
  EXPECT_FALSE(ring.Push(5));  // and no more
  for (int want : {1, 2, 3, 4}) {
    ASSERT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, want);  // the refused 99s left no hole in the sequence
  }
  EXPECT_FALSE(ring.Pop(&out));
}

// ---- Doorbell: ring work into a sleeping loop -----------------------------------

// Single-image world over loopback: TxBurst is the synchronous interrupt
// source, making the park/wake ordering deterministic (same shape as the
// PollWait suite's LoopWorld).
struct LoopWorld {
  explicit LoopWorld(std::uint16_t queues = 1) : mem(32 << 20) {
    std::uint64_t heap_gpa = mem.Carve(16 << 20, 4096);
    alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                     mem.At(heap_gpa, 16 << 20), 16 << 20);
    dev = std::make_unique<uknetdev::Loopback>(&mem);
    stack = std::make_unique<NetStack>(&mem, &clock, alloc.get());
    NetIf::Config cfg;
    cfg.ip = MakeIp(10, 0, 0, 1);
    cfg.queues = queues;
    netif = stack->AddInterface(dev.get(), cfg);
    sched = uksched::MakeScheduler(alloc.get(), &clock);
    stack->SetScheduler(sched.get());
  }

  ukplat::Clock clock;
  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::Loopback> dev;
  std::unique_ptr<NetStack> stack;
  NetIf* netif = nullptr;
  std::unique_ptr<uksched::Scheduler> sched;
};

TEST(ShardDoorbell, PushThenRingWakesPollWaitSleeper) {
  LoopWorld w;
  uksched::SpscRing<int, 8> ring;
  int got = -1;
  std::size_t frames = 99;
  w.sched->CreateThread("consumer", [&] {
    // The loop discipline: the ring was drained (empty) before parking, so
    // sleeping is safe — the producer's doorbell will end the sleep.
    frames = w.stack->PollWait(0, /*timeout_cycles=*/10'000'000'000ull);
    ASSERT_TRUE(ring.Pop(&got));  // woke BECAUSE there is ring work
  });
  w.sched->CreateThread("producer", [&] {
    // The consumer ran first and is parked by now.
    EXPECT_EQ(w.stack->wait_stats().blocked_waits, 1u);
    ASSERT_TRUE(ring.Push(42));   // publish the work...
    w.stack->RaiseQueueEvent(0);  // ...THEN ring the doorbell
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_EQ(frames, 0u);  // no frame arrived: the soft event ended the wait
  EXPECT_EQ(got, 42);
  EXPECT_EQ(w.stack->wait_stats().queue_event_wakeups, 1u);
  EXPECT_EQ(w.stack->wait_stats().timer_wakeups, 0u);
}

TEST(ShardDoorbell, QueueEventWakesOnlyItsQueue) {
  LoopWorld w(2);
  ASSERT_EQ(w.netif->queue_count(), 2u);
  bool woke0 = false;
  bool woke1 = false;
  w.sched->CreateThread("wait-q0", [&] {
    w.stack->PollWait(0, 1'000'000ull);
    woke0 = true;
  });
  w.sched->CreateThread("wait-q1", [&] {
    w.stack->PollWait(1, 10'000'000'000ull);
    woke1 = true;
  });
  w.sched->CreateThread("ringer", [&] {
    EXPECT_EQ(w.stack->wait_stats().blocked_waits, 2u);
    w.stack->RaiseQueueEvent(0);  // q0's doorbell only
    w.sched->Yield();
    EXPECT_TRUE(woke0);
    EXPECT_FALSE(woke1) << "q1's sleeper took q0's doorbell";
    w.stack->RaiseQueueEvent(1);
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_TRUE(woke1);
  EXPECT_EQ(w.stack->wait_stats().queue_event_wakeups, 2u);
}

// ---- Raw-frame harness for the sharded kvstore ----------------------------------

constexpr uknetdev::MacAddr kClientMac{{2, 0, 0, 0, 0, 9}};
constexpr std::uint16_t kKvPort = 7777;
const Ip4Addr kServerIp = MakeIp(10, 0, 0, 1);
const Ip4Addr kClientIp = MakeIp(10, 0, 0, 2);

// One Ethernet+IPv4+UDP request frame for the kv server. |src_port| selects
// the flow, and with it the RSS queue the request lands on.
std::vector<std::uint8_t> KvFrame(const uknetdev::MacAddr& dst_mac,
                                  std::uint16_t src_port,
                                  std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes +
                                  payload.size());
  EthHeader eth{dst_mac, kClientMac, kEthTypeIp4};
  eth.Serialize(frame.data());
  Ip4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - kEthHdrBytes);
  ip.proto = kIpProtoUdp;
  ip.src = kClientIp;
  ip.dst = kServerIp;
  ip.Serialize(frame.data() + kEthHdrBytes);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = kKvPort;
  std::memcpy(frame.data() + kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes,
              payload.data(), payload.size());
  udp.Serialize(frame.data() + kEthHdrBytes + kIp4HdrBytes, kClientIp, kServerIp,
                payload);
  return frame;
}

// A source port whose flow the device RSS hash steers to |queue| (the same
// hash the server's ShardForKey machinery keys shards by).
std::uint16_t PortForQueue(std::uint16_t queue, std::uint16_t queues) {
  std::uint16_t p = 41000;
  while (ukarch::FlowHash4(kClientIp, p, kServerIp, kKvPort) % queues != queue) {
    ++p;
  }
  return p;
}

// A key owned by |shard| under the server's Toeplitz shard map.
std::uint16_t KeyForShard(std::uint16_t shard, std::uint16_t nshards,
                          std::uint16_t from = 0) {
  std::uint16_t k = from;
  while (KvServer::ShardForKey(k, nshards) != shard) {
    ++k;
  }
  return k;
}

struct Reply {
  std::uint16_t port = 0;  // client-side flow port the reply targets
  std::vector<std::uint8_t> payload;
};

// Drains the client side of the wire, parsing every UDP reply.
void DrainReplies(ukplat::Wire& wire, std::vector<Reply>* out) {
  while (auto f = wire.Receive(1)) {
    std::span<const std::uint8_t> frame(*f);
    if (frame.size() < kEthHdrBytes) {
      continue;
    }
    EthHeader eth = EthHeader::Parse(frame);
    if (eth.ethertype != kEthTypeIp4) {
      continue;
    }
    auto body = frame.subspan(kEthHdrBytes);
    auto ip = Ip4Header::Parse(body);
    if (!ip.has_value() || ip->proto != kIpProtoUdp) {
      continue;
    }
    auto dgram = body.subspan(ip->header_len,
                              static_cast<std::size_t>(ip->total_len) - ip->header_len);
    auto udp = UdpHeader::Parse(dgram, ip->src, ip->dst);
    if (!udp.has_value()) {
      continue;
    }
    Reply r;
    r.port = udp->dst_port;
    auto pay = dgram.subspan(kUdpHdrBytes, udp->length - kUdpHdrBytes);
    r.payload.assign(pay.begin(), pay.end());
    out->push_back(std::move(r));
  }
}

// Server world: a dedicated NIC owned by the raw-netdev KvServer, the client
// side of the wire driven entirely with hand-built frames.
struct KvWorld {
  explicit KvWorld(std::uint16_t queues)
      : wire(&clock, WireCfg()), mem(64 << 20) {
    std::uint64_t heap_gpa = mem.Carve(48 << 20, 4096);
    alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                     mem.At(heap_gpa, 48 << 20), 48 << 20);
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = uknetdev::VirtioBackend::kVhostUser;
    cfg.queue_size = 256;
    nic = std::make_unique<uknetdev::VirtioNet>(&mem, &clock, &wire, cfg);
    server = std::make_unique<KvServer>(nic.get(), &mem, alloc.get(), kServerIp,
                                        kKvPort, apps::KvMode::kUkNetdev, queues);
  }

  static ukplat::Wire::Config WireCfg() {
    ukplat::Wire::Config cfg;
    cfg.queue_depth = 100000;
    return cfg;
  }

  ukplat::Clock clock;
  ukplat::Wire wire;
  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::VirtioNet> nic;
  std::unique_ptr<KvServer> server;
};

// ---- The 4-shard scale-out: one blocking loop per queue -------------------------

// Four uksched threads, each parked in PumpQueueWait on its own queue; a
// client thread fires shard-aligned SET/GET flows at all four. Every request
// completes inside the loop it hashed to: the off-diagonal access-audit
// buckets stay zero, no ring message is ever needed, and the in-place reply
// path keeps every shard's TX pool at zero churn (the per-shard Fig 18 gate).
TEST(SmpShard, FourShardLoopsShareNothing) {
  constexpr std::uint16_t kQueues = 4;
  constexpr int kGetRounds = 40;
  KvWorld w(kQueues);
  auto sched_owner = uksched::MakeScheduler(w.alloc.get(), &w.clock);
  auto& sched = *sched_owner;
  w.server->EnableWait(&sched);  // before Start(): queue setup hooks the intrs
  ASSERT_TRUE(w.server->Start());
  ASSERT_EQ(w.server->queue_count(), kQueues);

  std::uint16_t port[kQueues];
  std::uint16_t key[kQueues];
  std::string value[kQueues];
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    port[q] = PortForQueue(q, kQueues);
    key[q] = KeyForShard(q, kQueues);
    value[q] = "shard-" + std::to_string(q);
  }

  netharness::ZeroAllocGuard guard(
      {w.server->tx_pool(0), w.server->tx_pool(1), w.server->tx_pool(2),
       w.server->tx_pool(3)});

  bool done = false;
  // Bounded sleep only so the pumps notice |done|; the wake is a free
  // virtual-clock jump, so generosity costs nothing.
  constexpr std::uint64_t kWaitSlice = 50'000'000ull;
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    sched.CreateThread("pump", [&, q] {
      while (!done) {
        w.server->PumpQueueWait(q, kWaitSlice);
      }
    });
  }

  std::vector<Reply> replies;
  sched.CreateThread("client", [&] {
    auto await_replies = [&](std::size_t want) {
      for (int spin = 0; spin < 2000 && replies.size() < want; ++spin) {
        sched.Yield();
        DrainReplies(w.wire, &replies);
      }
      ASSERT_EQ(replies.size(), want);
    };
    // Warm each shard through its own flow.
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      apps::KvRequest set{true, key[q], value[q]};
      w.wire.Send(1, KvFrame(w.nic->mac(), port[q], apps::EncodeKvRequest(set)));
    }
    await_replies(kQueues);
    // Steady state: shard-aligned GET load on all four flows at once.
    for (int r = 0; r < kGetRounds; ++r) {
      for (std::uint16_t q = 0; q < kQueues; ++q) {
        apps::KvRequest get{false, key[q], ""};
        w.wire.Send(1, KvFrame(w.nic->mac(), port[q], apps::EncodeKvRequest(get)));
      }
      await_replies(kQueues + static_cast<std::size_t>(r + 1) * kQueues);
    }
    done = true;
  });
  EXPECT_EQ(sched.Run(), 0u);

  // Every reply is correct and went back on the flow that asked.
  std::size_t gets_per_flow[kQueues] = {0};
  for (const Reply& r : replies) {
    std::uint16_t q = kQueues;
    for (std::uint16_t i = 0; i < kQueues; ++i) {
      if (r.port == port[i]) {
        q = i;
      }
    }
    ASSERT_LT(q, kQueues) << "reply to an unknown flow";
    const std::string text(r.payload.begin(), r.payload.end());
    if (text == "K") {
      continue;  // the warm-up SET ack
    }
    EXPECT_EQ(text, value[q]);
    ++gets_per_flow[q];
  }
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(gets_per_flow[q], static_cast<std::size_t>(kGetRounds));
    EXPECT_EQ(w.server->queue_requests(q), static_cast<std::uint64_t>(kGetRounds + 1));
    EXPECT_EQ(w.server->shard_size(q), 1u);
  }
  EXPECT_EQ(w.server->requests(), static_cast<std::uint64_t>(kQueues * (kGetRounds + 1)));

  // The shared-nothing audit: no loop ever touched a foreign shard, and the
  // ring mesh stayed silent — shard-aligned traffic needs no messages.
  for (std::uint16_t accessor = 0; accessor < kQueues; ++accessor) {
    for (std::uint16_t shard = 0; shard < kQueues; ++shard) {
      if (accessor != shard) {
        EXPECT_EQ(w.server->shard_accesses(accessor, shard), 0u)
            << "loop " << accessor << " read shard " << shard;
      } else {
        EXPECT_GT(w.server->shard_accesses(accessor, shard), 0u);
      }
    }
  }
  EXPECT_EQ(w.server->ring_messages(), 0u);
  EXPECT_EQ(w.server->cross_shard_ops(), 0u);
  // Blocking loops really slept (this is the scale-out loop body, not a spin).
  EXPECT_GT(w.server->wait_stats().blocked_waits, 0u);
  guard.ExpectPoolFlat("4-shard steady-state GET/SET");
}

// ---- Cross-shard operations: messages, not memory -------------------------------

// A multi-get spanning all four shards arrives on one queue while every other
// flow keeps hammering its own shard. The reply must assemble all four values
// correctly, the foreign keys must travel as ring messages executed by their
// owners, and the off-diagonal access audit must STILL be zero: cross-shard
// ops cross the core boundary as data, never as loads from a foreign shard.
TEST(SmpShard, CrossShardMultiGetUnderConcurrentLoad) {
  constexpr std::uint16_t kQueues = 4;
  KvWorld w(kQueues);
  ASSERT_TRUE(w.server->Start());
  ASSERT_EQ(w.server->queue_count(), kQueues);

  std::uint16_t port[kQueues];
  std::uint16_t key[kQueues];
  std::string value[kQueues];
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    port[q] = PortForQueue(q, kQueues);
    key[q] = KeyForShard(q, kQueues);
    value[q] = "v" + std::to_string(q);
  }
  auto pump_all = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (std::uint16_t q = 0; q < kQueues; ++q) {
        w.server->PumpQueue(q);
      }
    }
  };

  // Seed all four shards through their own flows (local fast path).
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    apps::KvRequest set{true, key[q], value[q]};
    w.wire.Send(1, KvFrame(w.nic->mac(), port[q], apps::EncodeKvRequest(set)));
  }
  pump_all(8);
  std::vector<Reply> replies;
  DrainReplies(w.wire, &replies);
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kQueues));
  replies.clear();
  ASSERT_EQ(w.server->ring_messages(), 0u);

  // The multi-get lands on queue 0's flow; three of its keys live elsewhere.
  // Concurrent load: every flow fires local GETs in the same burst, so the
  // rings drain interleaved with regular traffic.
  const std::uint16_t mkeys[kQueues] = {key[0], key[1], key[2], key[3]};
  w.wire.Send(1, KvFrame(w.nic->mac(), port[0], apps::EncodeKvMultiGet(mkeys)));
  constexpr int kLoadRounds = 10;
  for (int r = 0; r < kLoadRounds; ++r) {
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      apps::KvRequest get{false, key[q], ""};
      w.wire.Send(1, KvFrame(w.nic->mac(), port[q], apps::EncodeKvRequest(get)));
    }
  }
  pump_all(30);
  DrainReplies(w.wire, &replies);
  ASSERT_EQ(replies.size(), 1u + kQueues * kLoadRounds);

  // Find and decode the 'V' reply: 'V', n, then n * (u16 LE len + bytes).
  int v_replies = 0;
  for (const Reply& r : replies) {
    if (r.port != port[0] || r.payload.empty() || r.payload[0] != 'V') {
      continue;
    }
    ++v_replies;
    ASSERT_GE(r.payload.size(), 2u);
    ASSERT_EQ(r.payload[1], kQueues);
    std::size_t at = 2;
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      ASSERT_GE(r.payload.size(), at + 2);
      const std::uint16_t len = static_cast<std::uint16_t>(
          r.payload[at] | (r.payload[at + 1] << 8));
      at += 2;
      ASSERT_NE(len, 0xffff) << "key " << mkeys[q] << " reported missing";
      ASSERT_GE(r.payload.size(), at + len);
      EXPECT_EQ(std::string(r.payload.begin() + static_cast<std::ptrdiff_t>(at),
                            r.payload.begin() + static_cast<std::ptrdiff_t>(at + len)),
                value[q]);
      at += len;
    }
    EXPECT_EQ(at, r.payload.size());
  }
  EXPECT_EQ(v_replies, 1);

  // Three foreign keys: one kGet out and one kResp back each, plus whatever
  // the concurrent load DIDN'T add (local GETs never ring).
  EXPECT_EQ(w.server->cross_shard_ops(), 1u);
  EXPECT_EQ(w.server->ring_messages(), 6u);
  for (std::uint16_t accessor = 0; accessor < kQueues; ++accessor) {
    for (std::uint16_t shard = 0; shard < kQueues; ++shard) {
      if (accessor != shard) {
        EXPECT_EQ(w.server->shard_accesses(accessor, shard), 0u)
            << "cross-shard op read shard " << shard << " from loop " << accessor;
      }
    }
  }

  // Cross-shard single-key ops: a SET for queue 1's key arriving on queue 0
  // executes on shard 1 (via its owner) and is visible to queue 1's flow.
  apps::KvRequest xset{true, key[1], "cross"};
  w.wire.Send(1, KvFrame(w.nic->mac(), port[0], apps::EncodeKvRequest(xset)));
  pump_all(10);
  replies.clear();
  DrainReplies(w.wire, &replies);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].port, port[0]);
  EXPECT_EQ(std::string(replies[0].payload.begin(), replies[0].payload.end()), "K");

  apps::KvRequest xget{false, key[1], ""};
  w.wire.Send(1, KvFrame(w.nic->mac(), port[1], apps::EncodeKvRequest(xget)));
  pump_all(10);
  replies.clear();
  DrainReplies(w.wire, &replies);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(std::string(replies[0].payload.begin(), replies[0].payload.end()),
            "cross");
  EXPECT_EQ(w.server->cross_shard_ops(), 2u);
  for (std::uint16_t accessor = 0; accessor < kQueues; ++accessor) {
    for (std::uint16_t shard = 0; shard < kQueues; ++shard) {
      if (accessor != shard) {
        EXPECT_EQ(w.server->shard_accesses(accessor, shard), 0u);
      }
    }
  }
}

// The other deferred replies: a foreign single-key GET (hit and miss) and a
// multi-get with a missing foreign key answer on the arrival flow, and a
// foreign SET too large for a ring slot is refused on the spot without a
// ring message. No loop ever touches a foreign shard.
TEST(SmpShard, CrossShardSingleKeyGetsMissesAndOversizedSet) {
  constexpr std::uint16_t kQueues = 4;
  KvWorld w(kQueues);
  ASSERT_TRUE(w.server->Start());
  ASSERT_EQ(w.server->queue_count(), kQueues);

  const std::uint16_t port0 = PortForQueue(0, kQueues);
  const std::uint16_t port1 = PortForQueue(1, kQueues);
  const std::uint16_t key0 = KeyForShard(0, kQueues);
  const std::uint16_t key1 = KeyForShard(1, kQueues);
  const std::uint16_t absent1 = KeyForShard(1, kQueues, key1 + 1);  // never set
  // One request on |port|'s flow, every loop pumped until the reply is out.
  auto exchange = [&](std::uint16_t port, const std::vector<std::uint8_t>& payload) {
    w.wire.Send(1, KvFrame(w.nic->mac(), port, payload));
    for (int i = 0; i < 10; ++i) {
      for (std::uint16_t q = 0; q < kQueues; ++q) {
        w.server->PumpQueue(q);
      }
    }
    std::vector<Reply> replies;
    DrainReplies(w.wire, &replies);
    return replies;
  };
  auto text = [](const Reply& r) {
    return std::string(r.payload.begin(), r.payload.end());
  };

  // Seed shards 0 and 1 through their own flows (local fast path).
  ASSERT_EQ(exchange(port0, apps::EncodeKvRequest({true, key0, "home"})).size(), 1u);
  ASSERT_EQ(exchange(port1, apps::EncodeKvRequest({true, key1, "away"})).size(), 1u);
  ASSERT_EQ(w.server->ring_messages(), 0u);

  // Foreign GET hit: shard 1's value comes back on queue 0's flow, one kGet
  // out and one kResp back.
  auto hit = exchange(port0, apps::EncodeKvRequest({false, key1, ""}));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].port, port0);
  EXPECT_EQ(text(hit[0]), "away");
  EXPECT_EQ(w.server->cross_shard_ops(), 1u);
  EXPECT_EQ(w.server->ring_messages(), 2u);

  // Foreign GET miss: deferred the same way, answered with 'E'.
  auto miss = exchange(port0, apps::EncodeKvRequest({false, absent1, ""}));
  ASSERT_EQ(miss.size(), 1u);
  EXPECT_EQ(miss[0].port, port0);
  EXPECT_EQ(text(miss[0]), "E");
  EXPECT_EQ(w.server->cross_shard_ops(), 2u);
  EXPECT_EQ(w.server->ring_messages(), 4u);

  // Multi-get of a local hit and a foreign miss: the miss reads len 0xffff.
  const std::uint16_t mkeys[2] = {key0, absent1};
  auto mget = exchange(port0, apps::EncodeKvMultiGet(mkeys));
  ASSERT_EQ(mget.size(), 1u);
  EXPECT_EQ(mget[0].port, port0);
  const std::vector<std::uint8_t> want = {'V', 2, 4, 0, 'h', 'o', 'm', 'e', 0xff, 0xff};
  EXPECT_EQ(mget[0].payload, want);
  EXPECT_EQ(w.server->cross_shard_ops(), 3u);
  EXPECT_EQ(w.server->ring_messages(), 6u);

  // Foreign SET over the ring-slot cap: 'E' at once, nothing rung.
  const std::string big(KvServer::kMaxInlineValue + 1, 'x');
  auto refused = exchange(port0, apps::EncodeKvRequest({true, key1, big}));
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].port, port0);
  EXPECT_EQ(text(refused[0]), "E");
  EXPECT_EQ(w.server->cross_shard_ops(), 3u);
  EXPECT_EQ(w.server->ring_messages(), 6u);
  auto kept = exchange(port1, apps::EncodeKvRequest({false, key1, ""}));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(text(kept[0]), "away");

  EXPECT_EQ(w.server->requests(), 7u);
  for (std::uint16_t accessor = 0; accessor < kQueues; ++accessor) {
    for (std::uint16_t shard = 0; shard < kQueues; ++shard) {
      if (accessor != shard) {
        EXPECT_EQ(w.server->shard_accesses(accessor, shard), 0u)
            << "loop " << accessor << " read shard " << shard;
      }
    }
  }
}

// ---- TX-pool refill: writable readiness instead of busy retries -----------------

class SmallTxPoolTest : public netharness::TwoHostTest {
 protected:
  // 8 buffers per pool: small enough to exhaust by hand.
  SmallTxPoolTest() : TwoHostTest(1, 8) {}
};

struct EdgeRecorder : uknet::SocketEventSink {
  uknet::EventMask mask = 0;
  std::uint64_t count = 0;
  void OnSocketEvent(std::uint64_t, uknet::EventMask ev) override {
    mask |= ev;
    ++count;
  }
};

TEST_F(SmallTxPoolTest, TxPoolRefillRaisesWritableEdge) {
  auto listener = b_.stack->TcpListen(4242);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 4242);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto srv = listener->Accept();
  ASSERT_NE(srv, nullptr);
  // Quiesce: the handshake segments get ACKed and their buffers return.
  PumpUntil([] { return false; }, 20);

  EdgeRecorder sink;
  client->SetEventSink(&sink, 1);

  // Drain the client's TX pool dry (the failed tail Alloc arms the edge).
  std::vector<uknetdev::NetBuf*> held;
  while (uknetdev::NetBuf* nb = a_.netif->AllocTxBuf()) {
    held.push_back(nb);
  }
  ASSERT_FALSE(held.empty());
  const uknetdev::NetBufPool* pool = a_.netif->tx_pool(0);
  const std::uint64_t edges_before = pool->refill_edges();

  // Send against the dry pool: nothing is accepted, the socket goes starved.
  std::uint8_t data[64];
  std::memset(data, 'x', sizeof(data));
  EXPECT_EQ(client->Send(data), 0);
  sink.mask = 0;

  // The FIRST buffer returning to the dry pool must fire exactly one refill
  // edge, which surfaces on the starved socket as a kEvtWritable edge — the
  // event a flush loop parks on instead of busy-retrying Send().
  a_.netif->FreeTxBuf(held.back());
  held.pop_back();
  EXPECT_EQ(pool->refill_edges(), edges_before + 1);
  EXPECT_NE(sink.mask & kEvtWritable, 0u) << "no writable edge on pool refill";

  // Further returns to a non-starved pool stay silent (edge, not level).
  sink.mask = 0;
  a_.netif->FreeTxBuf(held.back());
  held.pop_back();
  EXPECT_EQ(pool->refill_edges(), edges_before + 1);
  EXPECT_EQ(sink.mask & kEvtWritable, 0u);

  // And the send path actually recovered end to end.
  for (uknetdev::NetBuf* nb : held) {
    a_.netif->FreeTxBuf(nb);
  }
  held.clear();
  EXPECT_EQ(client->Send(data), 64);
  std::uint8_t rx[64];
  std::size_t got = 0;
  ASSERT_TRUE(PumpUntil([&] {
    std::int64_t n = srv->Recv(std::span<std::uint8_t>(rx).subspan(got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    }
    return got == sizeof(rx);
  }));
  EXPECT_EQ(rx[0], 'x');
  client->SetEventSink(nullptr, 0);
}

// ---- real OS threads: the SPSC contract under true concurrency -----------------
//
// The fiber tests above exercise the ring's logic; these exercise its MEMORY
// MODEL. A real producer std::thread races a real consumer, so the
// acquire/release pairs on head_/tail_ are the only thing standing between
// FIFO order and torn slots — exactly what the TSan CI leg checks.

TEST(SpscRingRealThreads, FifoSurvivesWraparoundWithConcurrentProducer) {
  uksched::SpscRing<int, 8> ring;
  // >> capacity: the free-running indices wrap the mask thousands of times
  // while both sides are live.
  constexpr int kItems = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.Push(i)) {
        std::this_thread::yield();  // full ring is backpressure, never loss
      }
    }
  });
  int expect = 0;
  while (expect < kItems) {
    int out = -1;
    if (ring.Pop(&out)) {
      ASSERT_EQ(out, expect);  // strict FIFO across every wrap
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingRealThreads, FullRingBackpressureLosesNothing) {
  // Tiny ring: nearly every Push contends with a full ring, so the
  // retry-after-reject path (the backpressure contract) runs constantly.
  uksched::SpscRing<std::uint64_t, 4> ring;
  constexpr std::uint64_t kItems = 20000;
  std::atomic<std::uint64_t> rejects{0};
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kItems; ++i) {
      while (!ring.Push(i)) {
        rejects.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t sum = 0;
  std::uint64_t got = 0;
  while (got < kItems) {
    std::uint64_t v = 0;
    if (ring.Pop(&v)) {
      sum += v;
      ++got;
    } else {
      std::this_thread::yield();  // starving the producer helps nobody
    }
  }
  producer.join();
  // Every rejected push was retried until accepted: each value arrived
  // exactly once (the sum is order-insensitive proof).
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
  EXPECT_TRUE(ring.empty());
}

TEST(WaitQueueRealThreads, WakeOneNeverLosesTheDoorbell) {
  // The shard-mailbox discipline end to end on real threads: a FOREIGN OS
  // thread plays the producing loop (push, bump seq with release, ring
  // WakeOne) while a ThreadScheduler-hosted consumer drains and parks with
  // WaitTimeoutUnless. A lost doorbell would strand the consumer in an
  // untimed park and hang the test; kNoDeadline is deliberate — a finite
  // timeout would paper over exactly the race this asserts against.
  constexpr std::size_t kHeap = 8 << 20;
  auto mem = std::make_unique<std::byte[]>(kHeap);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem.get(), kHeap);
  ukplat::Clock clock;
  uksched::ThreadScheduler sched(alloc.get(), &clock);
  uksched::WaitQueue wq(&sched);
  uksched::SpscRing<int, 8> ring;
  std::atomic<std::uint64_t> seq{0};
  constexpr int kItems = 512;
  int consumed = 0;
  sched.CreateThread("consumer", [&] {
    while (consumed < kItems) {
      int v = 0;
      // Drain, snapshot the doorbell, drain AGAIN, then park-unless-moved:
      // the producer's bump is either seen by the check (no sleep) or
      // ordered before the wake (we are already in the queue).
      while (ring.Pop(&v)) {
        ++consumed;
      }
      if (consumed >= kItems) {
        break;
      }
      const std::uint64_t seen = seq.load(std::memory_order_acquire);
      while (ring.Pop(&v)) {
        ++consumed;
      }
      if (consumed >= kItems) {
        break;
      }
      wq.WaitTimeoutUnless(seq, seen, uksched::Scheduler::kNoDeadline);
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.Push(i)) {
        std::this_thread::yield();
      }
      seq.fetch_add(1, std::memory_order_release);  // publish-then-ring
      wq.WakeOne();
      if ((i & 63) == 0) {
        // Let the consumer actually reach the parked state sometimes, so the
        // wake-a-sleeper path runs and not only the check-skips-park path.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  EXPECT_EQ(sched.Run(), 0u);  // consumer terminated; nobody left parked
  producer.join();
  EXPECT_EQ(consumed, kItems);
  EXPECT_TRUE(ring.empty());
}

// ---- RCU: the registry reclamation protocol ------------------------------------

TEST(RcuDomain, GraceWaitsForEveryOnlineReader) {
  uklock::RcuDomain dom;
  dom.Quiescent(0);  // two reader loops online
  dom.Quiescent(1);
  bool reclaimed = false;
  dom.Retire([&] { reclaimed = true; });
  EXPECT_EQ(dom.pending(), 1u);
  dom.Quiescent(0);  // one loop announced past the retire epoch...
  EXPECT_FALSE(reclaimed);  // ...but the other may still hold the old version
  dom.Quiescent(1);
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(dom.pending(), 0u);
}

TEST(RcuDomain, OfflineReaderStopsBlockingGrace) {
  uklock::RcuDomain dom;
  dom.Quiescent(0);
  dom.Quiescent(1);
  bool reclaimed = false;
  dom.Retire([&] { reclaimed = true; });
  dom.Quiescent(0);
  EXPECT_FALSE(reclaimed);
  dom.Offline(1);  // that loop exited: it can hold no reference
  dom.Quiescent(0);
  EXPECT_TRUE(reclaimed);
}

TEST(RcuDomain, SynchronizeDrainsAllPending) {
  uklock::RcuDomain dom;
  dom.Quiescent(0);
  int runs = 0;
  for (int i = 0; i < 5; ++i) {
    dom.Retire([&] { ++runs; });
  }
  EXPECT_EQ(dom.pending(), 5u);
  EXPECT_EQ(dom.Synchronize(), 5u);
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(dom.pending(), 0u);
}

TEST(RcuRegistry, SnapshotIsolationAcrossCopyOnWriteUpdates) {
  uklock::RcuDomain dom;
  uklock::RcuRegistry<int, int> reg(&dom);
  dom.Quiescent(0);
  reg.Insert(1, 10);
  const auto* snap = reg.Read();
  ASSERT_EQ(snap->count(1), 1u);
  // Writers publish whole new versions; the snapshot this "loop turn" holds
  // must never change underneath it.
  reg.Insert(2, 20);
  reg.Erase(1);
  EXPECT_EQ(snap->count(1), 1u);
  EXPECT_EQ(snap->count(2), 0u);
  const auto* now = reg.Read();
  EXPECT_EQ(now->count(1), 0u);
  EXPECT_EQ(now->count(2), 1u);
  // The superseded versions were retired, not freed — our snapshot is one of
  // them and we are still mid-turn.
  EXPECT_GT(dom.pending(), 0u);
  dom.Quiescent(0);  // turn boundary: no pre-turn references remain
  EXPECT_EQ(dom.pending(), 0u);
}

TEST(RcuRegistry, RealThreadReaderIteratesWhileWriterChurns) {
  // A real reader thread takes snapshots and walks them with NO lock while
  // the main thread inserts and erases. Every map it can observe is an
  // immutable published version whose invariant (*value == key) held at
  // publication; a reclamation racing the walk would be a use-after-free
  // that TSan/ASan-grade runs catch and the invariant check trips on.
  uklock::RcuDomain dom;
  uklock::RcuRegistry<int, std::shared_ptr<int>> reg(&dom);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> turns{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto* snap = reg.Read();
      for (const auto& [k, v] : *snap) {
        if (v == nullptr || *v != k) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      dom.Quiescent(1);  // turn boundary: done with this snapshot
      turns.fetch_add(1, std::memory_order_relaxed);
    }
    dom.Offline(1);
  });
  for (int round = 0; round < 400; ++round) {
    const int k = round % 16;
    reg.Insert(k, std::make_shared<int>(k));
    if (round % 3 == 2) {
      reg.Erase((k + 8) % 16);
    }
  }
  // Make sure the reader got real overlap with the churn before stopping.
  const std::uint64_t seen = turns.load(std::memory_order_relaxed);
  while (turns.load(std::memory_order_relaxed) < seen + 3) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  dom.Synchronize();
  EXPECT_EQ(dom.pending(), 0u);
}

// ---- NetStack: connection registry reclaims at Poll turn boundaries ------------

using RcuStackTest = netharness::TwoHostTest;

TEST_F(RcuStackTest, ConnRegistryRetiresThroughPollTurns) {
  const std::size_t conns_before = a_.stack->tcp_conn_count();
  auto listener = b_.stack->TcpListen(4343);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 4343);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto srv = listener->Accept();
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(a_.stack->tcp_conn_count(), conns_before + 1);
  // Each CoW publish during the handshake retired an old registry version;
  // the Poll turns that pumped it announced quiescence, so nothing lingers.
  EXPECT_EQ(a_.stack->rcu_pending(), 0u);
  EXPECT_EQ(b_.stack->rcu_pending(), 0u);

  client->Close();
  // Teardown unlinks the connection through more CoW updates; the retired
  // versions drain through subsequent turn boundaries, never mid-turn.
  ASSERT_TRUE(PumpUntil([&] {
    return a_.stack->rcu_pending() == 0 && b_.stack->rcu_pending() == 0;
  }));
}

}  // namespace
