// Tests for the uknet TCP/IP stack: wire formats, ARP, ICMP, UDP, and the
// TCP state machine end-to-end over real virtio-net devices and a wire.
// Host/fixture plumbing lives in net_harness.h, shared with the multi-queue
// and posix suites.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "net_harness.h"
#include "ukalloc/registry.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"

namespace {

using namespace uknet;
using netharness::Host;
using netharness::LossyTest;
using netharness::RawPeer;
using netharness::RawPeerTest;
using netharness::RawRxTest;
using netharness::TwoHostTest;
using netharness::ZeroAllocGuard;

// ---- wire formats ----------------------------------------------------------------

TEST(WireFormat, InternetChecksumKnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

TEST(WireFormat, ChecksumOfPacketWithChecksumIsZero) {
  std::uint8_t hdr[kIp4HdrBytes];
  Ip4Header ip;
  ip.total_len = kIp4HdrBytes;  // header-only packet so Parse's bound holds
  ip.proto = kIpProtoTcp;
  ip.src = MakeIp(10, 0, 0, 1);
  ip.dst = MakeIp(10, 0, 0, 2);
  ip.Serialize(hdr);
  EXPECT_EQ(InternetChecksum(hdr), 0);
  auto parsed = Ip4Header::Parse(std::span<const std::uint8_t>(hdr, sizeof(hdr)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, ip.src);
  // A flipped bit must be rejected.
  hdr[15] ^= 0x40;
  EXPECT_FALSE(Ip4Header::Parse(std::span<const std::uint8_t>(hdr, sizeof(hdr))).has_value());
}

TEST(WireFormat, EthRoundTrip) {
  EthHeader eth;
  eth.dst = uknetdev::MacAddr{{1, 2, 3, 4, 5, 6}};
  eth.src = uknetdev::MacAddr{{7, 8, 9, 10, 11, 12}};
  eth.ethertype = kEthTypeIp4;
  std::uint8_t buf[kEthHdrBytes];
  eth.Serialize(buf);
  EthHeader back = EthHeader::Parse(std::span<const std::uint8_t>(buf, sizeof(buf)));
  EXPECT_EQ(back.dst, eth.dst);
  EXPECT_EQ(back.src, eth.src);
  EXPECT_EQ(back.ethertype, kEthTypeIp4);
}

TEST(WireFormat, ArpRoundTrip) {
  ArpPacket arp;
  arp.oper = 2;
  arp.sender_mac = uknetdev::MacAddr{{0xaa, 1, 2, 3, 4, 5}};
  arp.sender_ip = MakeIp(192, 168, 1, 1);
  arp.target_ip = MakeIp(192, 168, 1, 2);
  std::uint8_t buf[kArpBytes];
  arp.Serialize(buf);
  auto back = ArpPacket::Parse(std::span<const std::uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->oper, 2);
  EXPECT_EQ(back->sender_ip, arp.sender_ip);
  EXPECT_EQ(back->sender_mac, arp.sender_mac);
}

TEST(WireFormat, UdpChecksumVerification) {
  std::uint8_t payload[] = {'h', 'i'};
  std::vector<std::uint8_t> dgram(kUdpHdrBytes + 2);
  UdpHeader udp;
  udp.src_port = 1234;
  udp.dst_port = 5678;
  std::memcpy(dgram.data() + kUdpHdrBytes, payload, 2);
  udp.Serialize(dgram.data(), MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), payload);
  auto ok = UdpHeader::Parse(dgram, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->src_port, 1234);
  dgram[9] ^= 1;  // corrupt payload
  EXPECT_FALSE(
      UdpHeader::Parse(dgram, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2)).has_value());
}

TEST(WireFormat, TcpChecksumVerification) {
  std::uint8_t payload[] = {1, 2, 3};
  std::vector<std::uint8_t> seg(kTcpHdrBytes + 3);
  TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = 45000;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags = kTcpAck | kTcpPsh;
  tcp.window = 65535;
  std::memcpy(seg.data() + kTcpHdrBytes, payload, 3);
  tcp.Serialize(seg.data(), MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), payload);
  std::size_t hlen = 0;
  auto ok = TcpHeader::Parse(seg, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), &hlen);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(hlen, kTcpHdrBytes);
  EXPECT_EQ(ok->seq, 1000u);
  EXPECT_EQ(ok->flags, kTcpAck | kTcpPsh);
  seg[21] ^= 1;  // corrupt a payload byte
  EXPECT_FALSE(
      TcpHeader::Parse(seg, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), &hlen).has_value());
}

TEST(WireFormat, SeqArithmeticWraps) {
  EXPECT_TRUE(SeqLt(0xfffffff0u, 0x10u));  // wrapped comparison
  EXPECT_FALSE(SeqLt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(SeqLe(5u, 5u));
}

// ---- two hosts over a wire (fixtures: net_harness.h) -------------------------------

TEST_F(TwoHostTest, InterfacesComeUp) {
  ASSERT_NE(a_.netif, nullptr);
  ASSERT_NE(b_.netif, nullptr);
  EXPECT_EQ(a_.netif->ip(), MakeIp(10, 0, 0, 1));
}

TEST_F(TwoHostTest, ArpResolutionViaRequestReply) {
  // First ping triggers ARP; the reply releases the parked packet.
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  EXPECT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));
  EXPECT_GE(a_.netif->if_stats().arp_requests, 1u);
  EXPECT_GE(b_.netif->if_stats().arp_replies, 1u);
}

TEST_F(TwoHostTest, PingStorm) {
  for (std::uint16_t i = 0; i < 20; ++i) {
    a_.stack->Ping(MakeIp(10, 0, 0, 2), i);
    a_.stack->Poll();
    b_.stack->Poll();
  }
  EXPECT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() >= 19; }));
}

TEST_F(TwoHostTest, UdpDatagramDelivery) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(53)));
  auto client = a_.stack->UdpOpen();
  std::uint8_t query[] = {'d', 'n', 's', '?'};
  EXPECT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 53, query), 4);
  ASSERT_TRUE(PumpUntil([&] { return server->readable(); }));
  auto dgram = server->RecvFrom();
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload.size(), 4u);
  EXPECT_EQ(dgram->src_ip, MakeIp(10, 0, 0, 1));
  // Reply path.
  std::uint8_t resp[] = {'o', 'k'};
  server->SendTo(dgram->src_ip, dgram->src_port, resp);
  ASSERT_TRUE(PumpUntil([&] { return client->readable(); }));
  auto back = client->RecvFrom();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload[0], 'o');
}

TEST_F(TwoHostTest, ArpFlushSendsParkedPacketsAsOneBatch) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7000)));
  auto client = a_.stack->UdpOpen();
  // Cold ARP cache: the first sends park whole netbufs behind resolution
  // (bounded at 8); the ARP reply must flush them in a single batch.
  constexpr std::size_t kParked = 5;
  for (std::size_t i = 0; i < kParked; ++i) {
    std::uint8_t msg[4] = {'a', 'r', 'p', static_cast<std::uint8_t>(i)};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 7000, msg), 4);
  }
  ASSERT_TRUE(PumpUntil([&] { return server->queued() >= kParked; }));
  for (std::size_t i = 0; i < kParked; ++i) {
    auto d = server->RecvFrom();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->payload[3], static_cast<std::uint8_t>(i));  // order preserved
  }
  EXPECT_EQ(a_.netif->if_stats().ip_tx, kParked);
  EXPECT_EQ(a_.netif->if_stats().pending_dropped, 0u);
}

TEST_F(TwoHostTest, BatchedUdpEchoZeroCopy) {
  auto server = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(9000)));
  auto client = a_.stack->UdpOpen();
  // Warm the ARP caches so the burst is not throttled by resolution.
  ASSERT_TRUE(a_.stack->Ping(MakeIp(10, 0, 0, 2), 1));
  ASSERT_TRUE(PumpUntil([&] { return a_.stack->pings_answered() == 1; }));

  constexpr std::size_t kBurst = 16;
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::uint8_t msg[8] = {'b', 'a', 't', 'c', 'h', static_cast<std::uint8_t>(i),
                           0,   0};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 9000, msg), 8);
  }
  ASSERT_TRUE(PumpUntil([&] { return server->queued() >= kBurst; }));

  // Zero-copy batch view: every datagram is a view into a retained driver
  // netbuf, surfaced in send order without copying.
  const DatagramView* views[kBurst];
  ASSERT_EQ(server->PeekBatch(views, kBurst), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(views[i]->len, 8u);
    EXPECT_EQ(views[i]->data[5], static_cast<std::uint8_t>(i));
    EXPECT_NE(views[i]->nb, nullptr);
    EXPECT_EQ(views[i]->src_ip, MakeIp(10, 0, 0, 1));
  }
  // Echo the whole batch straight out of the views, then release in one go.
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(server->SendTo(views[i]->src_ip, views[i]->src_port,
                             std::span(views[i]->data, views[i]->len)),
              8);
  }
  server->ReleaseFront(kBurst);
  EXPECT_EQ(server->queued(), 0u);

  ASSERT_TRUE(PumpUntil([&] { return client->queued() >= kBurst; }));
  std::uint8_t out[8];
  for (std::size_t i = 0; i < kBurst; ++i) {
    Ip4Addr src = 0;
    std::uint16_t port = 0;
    ASSERT_EQ(client->RecvInto(out, &src, &port), 8);
    EXPECT_EQ(out[5], static_cast<std::uint8_t>(i));
    EXPECT_EQ(src, MakeIp(10, 0, 0, 2));
    EXPECT_EQ(port, 9000);
  }
  EXPECT_EQ(client->RecvInto(out, nullptr, nullptr),
            ukarch::Raw(ukarch::Status::kAgain));

  // Steady-state zero-alloc gate (Fig 18 regression): a second, warm echo
  // round must churn exactly one TX netbuf per reply and one RX ring refill
  // per datagram on the server — and never touch the guest heap.
  ZeroAllocGuard server_guard({b_.netif->tx_pool(0), b_.netif->rx_pool(0)},
                              b_.alloc.get());
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::uint8_t msg[8] = {'r', 'o', 'u', 'n', 'd', '2', static_cast<std::uint8_t>(i), 0};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 9000, msg), 8);
  }
  ASSERT_TRUE(PumpUntil([&] { return server->queued() >= kBurst; }));
  const DatagramView* round2[kBurst];
  ASSERT_EQ(server->PeekBatch(round2, kBurst), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(server->SendTo(round2[i]->src_ip, round2[i]->src_port,
                             std::span(round2[i]->data, round2[i]->len)),
              8);
  }
  server->ReleaseFront(kBurst);
  ASSERT_TRUE(PumpUntil([&] { return client->queued() >= kBurst; }));
  EXPECT_EQ(server_guard.pool_allocs(0), kBurst);  // one TX buf per reply, exact
  EXPECT_EQ(server_guard.pool_allocs(1), kBurst);  // one RX refill per datagram
  server_guard.ExpectHeapSteady("udp echo steady state");
}

// Steady-state TCP echo: every app byte rides pool netbufs written once; the
// guest heap is never touched per segment, and once everything is ACKed all
// retained TX buffers are back in their pools (no leak, no hidden churn).
TEST_F(TwoHostTest, TcpEchoSteadyStateZeroAlloc) {
  auto listener = b_.stack->TcpListen(4242);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 4242);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto server_sock = listener->Accept();

  std::vector<std::uint8_t> chunk(1024);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 11);
  }
  std::uint8_t buf[2048];
  auto echo_rounds = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      ASSERT_EQ(client->Send(chunk), static_cast<std::int64_t>(chunk.size()));
      std::size_t echoed = 0;
      ASSERT_TRUE(PumpUntil([&] {
        std::int64_t n = server_sock->Recv(buf);
        if (n > 0) {
          server_sock->Send(std::span(buf, static_cast<std::size_t>(n)));
        }
        std::int64_t e = client->Recv(buf);
        if (e > 0) {
          echoed += static_cast<std::size_t>(e);
        }
        return echoed >= chunk.size();
      }));
    }
  };
  echo_rounds(4);  // warm-up: ARP resolved, windows open, pools primed

  ZeroAllocGuard client_guard({a_.netif->tx_pool(0)}, a_.alloc.get());
  ZeroAllocGuard server_guard({b_.netif->tx_pool(0)}, b_.alloc.get());
  std::uint64_t client_segs_before = client->tcp_stats().segments_sent;
  const std::size_t client_rx_capacity = client->recv_buffer_capacity();
  const std::size_t server_rx_capacity = server_sock->recv_buffer_capacity();
  echo_rounds(8);
  // The guest heap saw zero allocations across 8 echoed KB each way, and the
  // host-side receive buffers never reallocated: they reuse their storage.
  client_guard.ExpectHeapSteady("tcp echo client steady state");
  server_guard.ExpectHeapSteady("tcp echo server steady state");
  EXPECT_EQ(client->recv_buffer_capacity(), client_rx_capacity);
  EXPECT_EQ(server_sock->recv_buffer_capacity(), server_rx_capacity);
  EXPECT_GE(server_rx_capacity, chunk.size());
  // TX pool churn tracks segments (data + ACKs), not bytes — and never more.
  EXPECT_GT(client->tcp_stats().segments_sent, client_segs_before);
  EXPECT_LE(client_guard.pool_allocs(0),
            client->tcp_stats().segments_sent - client_segs_before);
  // The client's data rode out ACKed by the echoes (each echo carries the
  // server's ACK), so its retained netbufs are already back in its pool.
  EXPECT_EQ(a_.netif->tx_pool(0)->available(), a_.netif->tx_pool(0)->capacity());
  // The last echo was read but not answered: the client still owes its ACK,
  // so the server still retains the echoed data. The client's first pass
  // after the read sends exactly one pure ACK, and the server's next pass
  // releases every retained netbuf.
  EXPECT_LT(b_.netif->tx_pool(0)->available(), b_.netif->tx_pool(0)->capacity());
  const std::uint64_t client_acks_before = client->tcp_stats().pure_acks_sent;
  a_.stack->Poll();
  EXPECT_EQ(client->tcp_stats().pure_acks_sent - client_acks_before, 1u);
  b_.stack->Poll();
  EXPECT_EQ(b_.netif->tx_pool(0)->available(), b_.netif->tx_pool(0)->capacity());
  EXPECT_EQ(client->tcp_stats().retransmissions, 0u);  // clean wire: zero re-bursts
}

TEST_F(TwoHostTest, UdpPortCollisionRejected) {
  auto s1 = b_.stack->UdpOpen();
  ASSERT_TRUE(Ok(s1->Bind(1000)));
  auto s2 = b_.stack->UdpOpen();
  EXPECT_EQ(s2->Bind(1000), ukarch::Status::kAddrInUse);
}

TEST_F(TwoHostTest, TcpHandshake) {
  auto listener = b_.stack->TcpListen(80);
  ASSERT_NE(listener, nullptr);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 80);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->state(), TcpState::kSynSent);
  ASSERT_TRUE(PumpUntil([&] { return client->connected(); }));
  auto server_sock = listener->Accept();
  ASSERT_NE(server_sock, nullptr);
  EXPECT_EQ(server_sock->state(), TcpState::kEstablished);
  EXPECT_EQ(server_sock->remote_ip(), MakeIp(10, 0, 0, 1));
}

TEST_F(TwoHostTest, TcpDataBothDirections) {
  auto listener = b_.stack->TcpListen(7);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 7);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto server_sock = listener->Accept();

  std::string msg = "GET / HTTP/1.1\r\n\r\n";
  EXPECT_EQ(client->Send(std::span(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                   msg.size())),
            static_cast<std::int64_t>(msg.size()));
  ASSERT_TRUE(PumpUntil([&] { return server_sock->readable(); }));
  std::uint8_t buf[64];
  std::int64_t n = server_sock->Recv(buf);
  ASSERT_EQ(n, static_cast<std::int64_t>(msg.size()));
  EXPECT_EQ(std::string(buf, buf + n), msg);

  std::string reply = "HTTP/1.1 200 OK\r\n\r\n";
  server_sock->Send(std::span(reinterpret_cast<const std::uint8_t*>(reply.data()),
                              reply.size()));
  ASSERT_TRUE(PumpUntil([&] { return client->readable(); }));
  n = client->Recv(buf);
  EXPECT_EQ(std::string(buf, buf + n), reply);
}

std::vector<std::uint8_t> Pattern(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + i / 251);
  }
  return data;
}

TEST_F(TwoHostTest, TcpBulkTransferSegmentsAndReassembles) {
  auto listener = b_.stack->TcpListen(9000);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 9000);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto server_sock = listener->Accept();

  // 256 KB: forces MSS segmentation, windowing, and multiple send calls.
  const std::vector<std::uint8_t> data = Pattern(256 * 1024);
  std::size_t sent = 0;
  std::vector<std::uint8_t> received;
  received.reserve(data.size());
  // Reads of 1, 7 and 1399 bytes straddle every segment boundary, so new
  // segments keep landing behind unread bytes of a partly read buffer.
  constexpr std::size_t kSpans[] = {1, 7, 1399};
  std::uint8_t buf[1399];
  for (int rounds = 0; rounds < 200000 && received.size() < data.size(); ++rounds) {
    if (sent < data.size()) {
      std::int64_t n = client->Send(
          std::span(data.data() + sent, data.size() - sent));
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      }
    }
    a_.stack->Poll();
    b_.stack->Poll();
    std::int64_t r = server_sock->Recv(std::span(buf, kSpans[rounds % 3]));
    if (r > 0) {
      received.insert(received.end(), buf, buf + r);
    }
  }
  ASSERT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
  EXPECT_GT(client->tcp_stats().segments_sent, data.size() / TcpSocket::kMss);
}

TEST_F(TwoHostTest, TcpZeroWindowPartialDrainResumesInOrder) {
  constexpr std::size_t kCap = 4 * TcpSocket::kMss;
  auto listener = b_.stack->TcpListen(9002);
  listener->SetBufferCaps(TcpSocket::kSendBufCap, kCap);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 9002);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto server_sock = listener->Accept();
  ASSERT_EQ(server_sock->recv_cap(), kCap);

  const std::vector<std::uint8_t> data = Pattern(32 * 1024);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(data.size()));
  auto stalled = [&] { return client->in_flight() == 0 && client->send_window() == 0; };
  // The receiver fills to its cap and advertises a zero window.
  ASSERT_TRUE(PumpUntil(stalled));

  std::vector<std::uint8_t> received;
  std::uint8_t buf[1399];
  auto drain = [&](std::size_t n) {
    std::int64_t r = server_sock->Recv(std::span(buf, n));
    ASSERT_EQ(r, static_cast<std::int64_t>(n));
    received.insert(received.end(), buf, buf + r);
  };
  // Each partial drain sends a window update; the sender refills exactly the
  // freed space, which lands behind the unread bytes and forces the buffer
  // to slide them to the front.
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t segs_before = client->tcp_stats().data_segments_sent;
    drain(1000);
    ASSERT_TRUE(PumpUntil([&] { return client->send_window() > 0; })) << round;
    ASSERT_TRUE(PumpUntil(stalled)) << round;
    EXPECT_GT(client->tcp_stats().data_segments_sent, segs_before) << round;
  }
  // Sliding instead of growing keeps the storage within twice the cap even
  // though 2.4x the cap has passed through a never-empty buffer.
  EXPECT_LE(server_sock->recv_buffer_capacity(), 2 * kCap);
  ASSERT_TRUE(PumpUntil([&] {
    std::int64_t r = server_sock->Recv(buf);
    if (r > 0) {
      received.insert(received.end(), buf, buf + r);
    }
    return received.size() == data.size();
  }, 20000));
  EXPECT_EQ(received, data);
  EXPECT_EQ(client->tcp_stats().retransmissions, 0u);
}

// A hole filled while the receive buffer is partly read: the drained
// out-of-order range must land after the unread in-order bytes.
TEST_F(RawPeerTest, OutOfOrderDrainIntoPartlyReadBuffer) {
  auto client = host_.stack->TcpConnect(peer_.ip, 82);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 82);
  const std::vector<std::uint8_t> data = Pattern(3 * TcpSocket::kMss);
  auto segment = [&](std::size_t i) {
    return std::span(data).subspan(i * TcpSocket::kMss, TcpSocket::kMss);
  };
  auto seq_of = [](std::size_t i) {
    return 1001 + static_cast<std::uint32_t>(i * TcpSocket::kMss);
  };

  peer_.SendTcp(82, client->local_port(), kTcpAck, seq_of(0), iss + 1, 65535, segment(0));
  Pump();
  std::vector<std::uint8_t> received(500);
  ASSERT_EQ(client->Recv(received), 500);

  peer_.SendTcp(82, client->local_port(), kTcpAck, seq_of(2), iss + 1, 65535, segment(2));
  Pump();
  EXPECT_EQ(client->tcp_stats().ooo_queued, 1u);
  peer_.SendTcp(82, client->local_port(), kTcpAck, seq_of(1), iss + 1, 65535, segment(1));
  Pump();
  ASSERT_FALSE(peer_.segs.empty());
  EXPECT_EQ(peer_.segs.back().hdr.ack, seq_of(3));  // hole filled, all acknowledged

  std::uint8_t buf[4096];
  std::int64_t r = client->Recv(buf);
  ASSERT_EQ(r, static_cast<std::int64_t>(data.size() - 500));
  received.insert(received.end(), buf, buf + r);
  EXPECT_EQ(received, data);
  EXPECT_EQ(client->Recv(buf), ukarch::Raw(ukarch::Status::kAgain));
}

TEST_F(TwoHostTest, TcpGracefulClose) {
  auto listener = b_.stack->TcpListen(21);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 21);
  ASSERT_TRUE(PumpUntil([&] { return client->connected() && listener->backlog() > 0; }));
  auto server_sock = listener->Accept();

  client->Close();
  ASSERT_TRUE(PumpUntil([&] { return server_sock->readable(); }));
  std::uint8_t buf[8];
  EXPECT_EQ(server_sock->Recv(buf), 0);  // EOF
  EXPECT_EQ(server_sock->state(), TcpState::kCloseWait);
  server_sock->Close();
  ASSERT_TRUE(PumpUntil([&] {
    return client->state() == TcpState::kTimeWait ||
           client->state() == TcpState::kClosed;
  }));
}

TEST_F(TwoHostTest, ConnectToClosedPortGetsRst) {
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 12345);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(PumpUntil([&] { return client->failed(); }));
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_GE(b_.stack->stats().rst_sent, 1u);
}

TEST_F(TwoHostTest, NoListenerUdpDropCounted) {
  auto client = a_.stack->UdpOpen();
  std::uint8_t data[] = {1};
  client->SendTo(MakeIp(10, 0, 0, 2), 9999, data);
  PumpUntil([&] { return b_.stack->stats().no_socket_drops > 0; }, 200);
  EXPECT_GE(b_.stack->stats().no_socket_drops, 1u);
}


TEST_F(LossyTest, TcpRecoversFromLoss) {
  a_->netif->AddArpEntry(MakeIp(10, 0, 0, 2), b_->nic->mac());
  b_->netif->AddArpEntry(MakeIp(10, 0, 0, 1), a_->nic->mac());
  auto listener = b_->stack->TcpListen(80);
  auto client = a_->stack->TcpConnect(MakeIp(10, 0, 0, 2), 80);

  std::vector<std::uint8_t> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 253);
  }
  std::size_t sent = 0;
  std::vector<std::uint8_t> received;
  std::shared_ptr<TcpSocket> server_sock;
  std::uint8_t buf[4096];
  for (int rounds = 0; rounds < 400000 && received.size() < data.size(); ++rounds) {
    clock_.Charge(2000);  // advance virtual time so RTOs can fire
    if (client->connected() && sent < data.size()) {
      std::int64_t n = client->Send(std::span(data.data() + sent, data.size() - sent));
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      }
    }
    a_->stack->Poll();
    b_->stack->Poll();
    if (server_sock == nullptr) {
      server_sock = listener->Accept();
    } else {
      std::int64_t r = server_sock->Recv(buf);
      if (r > 0) {
        received.insert(received.end(), buf, buf + r);
      }
    }
  }
  ASSERT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
  EXPECT_GT(client->tcp_stats().retransmissions, 0u);
}

// ---- parser hardening ---------------------------------------------------------------

TEST(WireFormatHardening, TruncatedHeadersRejected) {
  std::uint8_t junk[64] = {0};
  // Ethernet: short frames parse to a zeroed header (caller length-checks).
  EthHeader eth = EthHeader::Parse(std::span<const std::uint8_t>(junk, 5));
  EXPECT_EQ(eth.ethertype, 0);
  // ARP: anything under the full 28 bytes is rejected.
  junk[0] = 0;
  junk[1] = 1;  // htype
  EXPECT_FALSE(ArpPacket::Parse(std::span<const std::uint8_t>(junk, kArpBytes - 1))
                   .has_value());
  // IPv4: under 20 bytes is rejected.
  junk[0] = 0x45;
  EXPECT_FALSE(
      Ip4Header::Parse(std::span<const std::uint8_t>(junk, kIp4HdrBytes - 1)).has_value());
  // TCP: under 20 bytes is rejected.
  std::size_t hlen = 0;
  EXPECT_FALSE(TcpHeader::Parse(std::span<const std::uint8_t>(junk, kTcpHdrBytes - 1),
                                MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), &hlen)
                   .has_value());
  // UDP: under 8 bytes is rejected.
  EXPECT_FALSE(UdpHeader::Parse(std::span<const std::uint8_t>(junk, kUdpHdrBytes - 1),
                                MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2))
                   .has_value());
}

TEST(WireFormatHardening, IhlOutOfRangeRejected) {
  std::uint8_t hdr[60] = {0};
  Ip4Header ip;
  ip.total_len = kIp4HdrBytes;
  ip.proto = kIpProtoUdp;
  ip.src = MakeIp(10, 0, 0, 1);
  ip.dst = MakeIp(10, 0, 0, 2);
  ip.Serialize(hdr);
  // IHL below 5: header length under the fixed part.
  hdr[0] = 0x44;
  EXPECT_FALSE(Ip4Header::Parse(std::span<const std::uint8_t>(hdr, 20)).has_value());
  // IHL claiming 60 bytes of a 20-byte packet.
  hdr[0] = 0x4f;
  EXPECT_FALSE(Ip4Header::Parse(std::span<const std::uint8_t>(hdr, 20)).has_value());
  // Wrong version.
  hdr[0] = 0x65;
  EXPECT_FALSE(Ip4Header::Parse(std::span<const std::uint8_t>(hdr, 20)).has_value());
}

TEST(WireFormatHardening, LyingUdpLengthRejected) {
  std::uint8_t payload[] = {1, 2, 3, 4};
  std::vector<std::uint8_t> dgram(kUdpHdrBytes + sizeof(payload));
  UdpHeader udp;
  udp.src_port = 1;
  udp.dst_port = 2;
  std::memcpy(dgram.data() + kUdpHdrBytes, payload, sizeof(payload));
  udp.Serialize(dgram.data(), MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), payload);
  ASSERT_TRUE(UdpHeader::Parse(dgram, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2))
                  .has_value());
  // Length field beyond the datagram: a slow read past the buffer otherwise.
  dgram[4] = 0x00;
  dgram[5] = 0xc8;  // claims 200 bytes
  EXPECT_FALSE(UdpHeader::Parse(dgram, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2))
                   .has_value());
  // Length field under the header size.
  dgram[4] = 0x00;
  dgram[5] = 0x04;
  EXPECT_FALSE(UdpHeader::Parse(dgram, MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2))
                   .has_value());
}

TEST(WireFormatHardening, TcpDataOffsetOutOfRangeRejected) {
  std::uint8_t seg[kTcpHdrBytes] = {0};
  std::size_t hlen = 0;
  // Data offset below 5 words.
  seg[12] = 4 << 4;
  EXPECT_FALSE(TcpHeader::Parse(std::span<const std::uint8_t>(seg, sizeof(seg)),
                                MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), &hlen)
                   .has_value());
  // Data offset past the segment end.
  seg[12] = 15 << 4;
  EXPECT_FALSE(TcpHeader::Parse(std::span<const std::uint8_t>(seg, sizeof(seg)),
                                MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), &hlen)
                   .has_value());
}

TEST(WireFormatHardening, ChecksumCarryBoundaries) {
  // End-around carry: 0xffff + 0xffff folds twice before complementing.
  std::uint8_t all_ones[] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(InternetChecksum(all_ones), 0x0000);
  // Empty input: ~0 truncated.
  EXPECT_EQ(InternetChecksum(std::span<const std::uint8_t>{}), 0xffff);
  // Odd-length tail is padded on the right.
  std::uint8_t odd[] = {0x12};
  EXPECT_EQ(InternetChecksum(odd), 0xedff);
  // Initial value folds in (pseudo-header path).
  std::uint8_t zero2[] = {0x00, 0x00};
  EXPECT_EQ(InternetChecksum(zero2, 0x1ffff), static_cast<std::uint16_t>(~0x0001));
}

// ---- raw-frame peer (fixtures: net_harness.h) ---------------------------------------

// Regression for the FIN-in-flight accounting bug: the old deque-based
// Output() computed |unsent| as send_buf_.size() - in_flight where in_flight
// included the FIN's sequence slot; a partial ACK after Close() underflowed
// the subtraction (~4G "unsent") and EmitData read out of bounds. With
// per-segment sequence accounting the same exchange must stay exact — and
// the go-back-N retransmit must re-send byte-identical payloads.
TEST_F(RawPeerTest, PartialAckAfterFinInFlightStaysExact) {
  host_.stack->rto_cycles = 10'000;
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 80);

  // 3000 bytes => segments of 1400/1400/200, then a FIN right behind them.
  std::vector<std::uint8_t> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 251);
  }
  ASSERT_EQ(client->Send(data), 3000);
  client->Close();
  ASSERT_EQ(client->state(), TcpState::kFinWait1);
  Pump();
  ASSERT_GE(peer_.segs.size(), 6u);  // SYN, 3 data, FIN (+handshake ACK)
  const auto& fin = peer_.segs.back();
  EXPECT_NE(fin.hdr.flags & kTcpFin, 0);
  EXPECT_EQ(fin.hdr.seq, iss + 3001);

  // Partial ACK covering only the first segment, with the FIN in flight —
  // the old code underflowed here.
  std::size_t tx_allocs_before = host_.netif->tx_pool()->total_allocs();
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1401, 65535);
  Pump();
  EXPECT_EQ(client->state(), TcpState::kFinWait1);

  // Withhold further ACKs; the RTO must re-burst the two remaining retained
  // segments byte-for-byte, with zero TX pool churn (no new allocations).
  peer_.segs.clear();
  clock_.Charge(20'000);
  Pump();
  std::vector<std::uint8_t> resent;
  for (const auto& s : peer_.segs) {
    resent.insert(resent.end(), s.payload.begin(), s.payload.end());
  }
  ASSERT_EQ(resent.size(), 1600u);
  EXPECT_TRUE(std::equal(resent.begin(), resent.end(), data.begin() + 1400));
  EXPECT_EQ(peer_.segs.front().hdr.seq, iss + 1401);
  EXPECT_EQ(host_.netif->tx_pool()->total_allocs(), tx_allocs_before);
  EXPECT_GE(client->tcp_stats().retransmissions, 1u);

  // ACK everything including the FIN slot: teardown proceeds.
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 3002, 65535);
  Pump();
  EXPECT_EQ(client->state(), TcpState::kFinWait2);
  EXPECT_EQ(peer_.rsts, 0u);
}

// Triple duplicate ACKs must re-send the first unacked retained segment with
// no payload copy and no TX pool allocation.
TEST_F(RawPeerTest, FastRetransmitReusesRetainedNetbuf) {
  auto client = host_.stack->TcpConnect(peer_.ip, 81);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 81);

  std::vector<std::uint8_t> data(2800);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i * 13) % 256);
  }
  ASSERT_EQ(client->Send(data), 2800);
  Pump();
  peer_.segs.clear();
  std::size_t tx_allocs_before = host_.netif->tx_pool()->total_allocs();

  // Three dup ACKs at snd_una (nothing new acknowledged, no payload).
  for (int i = 0; i < 3; ++i) {
    peer_.SendTcp(81, client->local_port(), kTcpAck, 1001, iss + 1, 65535);
    Pump(1);
  }
  peer_.Poll();
  ASSERT_FALSE(peer_.segs.empty());
  const auto& rexmit = peer_.segs.back();
  EXPECT_EQ(rexmit.hdr.seq, iss + 1);
  ASSERT_EQ(rexmit.payload.size(), 1400u);
  EXPECT_TRUE(std::equal(rexmit.payload.begin(), rexmit.payload.end(), data.begin()));
  EXPECT_EQ(host_.netif->tx_pool()->total_allocs(), tx_allocs_before);
  EXPECT_EQ(client->tcp_stats().retransmissions, 1u);
}

// A retransmitted FIN (our final ACK was lost) must find the TIME_WAIT
// connection and get a fresh ACK — not a RST — until the 2MSL-equivalent
// poll budget drains the connection.
TEST_F(RawPeerTest, TimeWaitReAcksRetransmittedFin) {
  host_.stack->time_wait_poll_budget = 16;
  auto client = host_.stack->TcpConnect(peer_.ip, 82);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 82);

  // Host closes first: FIN at iss+1.
  client->Close();
  Pump();
  EXPECT_EQ(client->state(), TcpState::kFinWait1);
  peer_.SendTcp(82, client->local_port(), kTcpAck, 1001, iss + 2, 65535);
  Pump();
  EXPECT_EQ(client->state(), TcpState::kFinWait2);

  // Peer's FIN: host moves to TIME_WAIT and ACKs (ack = 1002).
  peer_.segs.clear();
  peer_.SendTcp(82, client->local_port(), kTcpFin | kTcpAck, 1001, iss + 2, 65535);
  Pump(2);
  EXPECT_EQ(client->state(), TcpState::kTimeWait);
  ASSERT_FALSE(peer_.segs.empty());
  EXPECT_EQ(peer_.segs.back().hdr.ack, 1002u);

  // Pretend that ACK was lost: the peer retransmits its FIN. The lingering
  // connection must re-ACK; before this fix the stack answered with a RST.
  peer_.segs.clear();
  peer_.SendTcp(82, client->local_port(), kTcpFin | kTcpAck, 1001, iss + 2, 65535);
  Pump(2);
  ASSERT_FALSE(peer_.segs.empty());
  EXPECT_EQ(peer_.segs.back().hdr.ack, 1002u);
  EXPECT_NE(peer_.segs.back().hdr.flags & kTcpAck, 0);
  EXPECT_EQ(peer_.rsts, 0u);
  EXPECT_EQ(host_.stack->stats().rst_sent, 0u);

  // After the budget drains, the key is reclaimed: a late FIN now draws the
  // no-connection RST (proving TIME_WAIT does not leak connections forever).
  for (int i = 0; i < 32; ++i) {
    host_.stack->Poll();
  }
  peer_.segs.clear();
  peer_.SendTcp(82, client->local_port(), kTcpFin | kTcpAck, 1001, iss + 2, 65535);
  Pump(2);
  EXPECT_GE(peer_.rsts, 1u);
  EXPECT_EQ(client->state(), TcpState::kTimeWait);  // socket object unchanged
}

// A RST that assassinates TIME_WAIT must reclaim the connection key, not
// leave a zombie kClosed entry blackholing the 4-tuple past the linger.
TEST_F(RawPeerTest, RstDuringTimeWaitReclaimsConnection) {
  auto client = host_.stack->TcpConnect(peer_.ip, 83);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 83);
  client->Close();
  Pump();
  peer_.SendTcp(83, client->local_port(), kTcpAck, 1001, iss + 2, 65535);
  Pump();
  peer_.SendTcp(83, client->local_port(), kTcpFin | kTcpAck, 1001, iss + 2, 65535);
  Pump(2);
  ASSERT_EQ(client->state(), TcpState::kTimeWait);

  peer_.SendTcp(83, client->local_port(), kTcpRst, 1002, iss + 2, 0);
  Pump(2);
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_TRUE(client->failed());
  // The tuple is free again: a stray segment now draws the no-connection RST
  // instead of being swallowed by a zombie map entry.
  peer_.SendTcp(83, client->local_port(), kTcpAck, 1002, iss + 2, 65535);
  Pump(2);
  EXPECT_GE(peer_.rsts, 1u);
}

// Aborting a connection with unacked data queued must hand every retained
// netbuf back to the TX pool and free the 4-tuple — a zombie would pin up
// to a full send buffer (~47 MSS buffers) until stack teardown.
TEST_F(RawPeerTest, RstReleasesRetainedSegmentsAndTuple) {
  auto client = host_.stack->TcpConnect(peer_.ip, 84);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 84);
  std::vector<std::uint8_t> data(8192, 0x77);
  ASSERT_EQ(client->Send(data), 8192);
  Pump();
  // 6 MSS segments retained and unacked.
  EXPECT_LT(host_.netif->tx_pool()->available(), host_.netif->tx_pool()->capacity());

  peer_.SendTcp(84, client->local_port(), kTcpRst, 1001, iss + 1, 0);
  Pump(2);
  EXPECT_TRUE(client->failed());
  EXPECT_EQ(client->state(), TcpState::kClosed);
  // Every TX buffer is back (transmissions complete synchronously here).
  EXPECT_EQ(host_.netif->tx_pool()->available(), host_.netif->tx_pool()->capacity());
  // The tuple is demuxable again: a stray segment draws the no-connection RST.
  peer_.SendTcp(84, client->local_port(), kTcpAck, 1001, iss + 1, 65535);
  Pump(2);
  EXPECT_GE(peer_.rsts, 1u);
}

// An application may keep its socket handle beyond the stack's life. The
// stack drains retained segments at destruction, so dropping the handle
// afterwards must not touch the (destroyed) netbuf pools — ASan guards this.
TEST(TcpLifetime, SocketHandleMayOutliveStack) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  std::shared_ptr<TcpSocket> client;
  {
    Host host(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
    RawPeer peer;
    peer.wire = &wire;
    peer.host_mac = host.nic->mac();
    peer.ip = MakeIp(10, 0, 0, 2);
    peer.host_ip = MakeIp(10, 0, 0, 1);
    host.netif->AddArpEntry(peer.ip, peer.mac);
    client = host.stack->TcpConnect(peer.ip, 90);
    ASSERT_NE(client, nullptr);
    host.stack->Poll();
    peer.Poll();
    ASSERT_FALSE(peer.segs.empty());
    std::uint32_t iss = peer.segs.back().hdr.seq;
    peer.SendTcp(90, client->local_port(), kTcpSyn | kTcpAck, 1000, iss + 1, 65535);
    host.stack->Poll();
    ASSERT_TRUE(client->connected());
    // Data that is never ACKed: the retransmission queue retains netbufs.
    std::vector<std::uint8_t> data(4096, 0xab);
    ASSERT_EQ(client->Send(data), 4096);
  }  // stack, interfaces and pools die here with segments still queued
  EXPECT_EQ(client.use_count(), 1);
  client.reset();  // must be a no-op on pool memory
}

// ---- RX hardening through the interface --------------------------------------------

// RawRxTest (net_harness.h): raw L3 injection through the interface.

// Packets carrying IP options (IHL > 5) must deliver exactly the UDP payload:
// before the fix the L4 slice started at the fixed 20-byte offset and option
// bytes leaked into the datagram.
TEST_F(RawRxTest, IpOptionsDoNotLeakIntoUdpPayload) {
  auto sock = host_.stack->UdpOpen();
  ASSERT_TRUE(Ok(sock->Bind(5000)));

  const std::uint8_t payload[] = {'o', 'p', 't', 's'};
  constexpr std::size_t kIhlBytes = 24;  // IHL=6: one 4-byte options word
  std::vector<std::uint8_t> l3(kIhlBytes + kUdpHdrBytes + sizeof(payload), 0);
  l3[0] = 0x46;  // version 4, IHL 6
  netharness::PutU16(l3.data() + 2, static_cast<std::uint16_t>(l3.size()));
  netharness::PutU16(l3.data() + 4, 7);       // id
  netharness::PutU16(l3.data() + 6, 0x4000);  // DF
  l3[8] = 64;                          // ttl
  l3[9] = kIpProtoUdp;
  std::uint32_t src = MakeIp(10, 0, 0, 2);
  std::uint32_t dst = MakeIp(10, 0, 0, 1);
  l3[12] = 10; l3[13] = 0; l3[14] = 0; l3[15] = 2;
  l3[16] = 10; l3[17] = 0; l3[18] = 0; l3[19] = 1;
  l3[20] = 0x01; l3[21] = 0x01; l3[22] = 0x01; l3[23] = 0x00;  // NOP NOP NOP EOL
  netharness::PutU16(l3.data() + 10,
              InternetChecksum(std::span<const std::uint8_t>(l3.data(), kIhlBytes)));
  std::memcpy(l3.data() + kIhlBytes + kUdpHdrBytes, payload, sizeof(payload));
  UdpHeader udp;
  udp.src_port = 4000;
  udp.dst_port = 5000;
  udp.Serialize(l3.data() + kIhlBytes, src, dst, payload);

  InjectIp(l3);
  for (int i = 0; i < 8 && !sock->readable(); ++i) {
    host_.stack->Poll();
  }
  auto dgram = sock->RecvFrom();
  ASSERT_TRUE(dgram.has_value());
  ASSERT_EQ(dgram->payload.size(), sizeof(payload));  // no option bytes leaked
  EXPECT_EQ(std::memcmp(dgram->payload.data(), payload, sizeof(payload)), 0);
  EXPECT_EQ(dgram->src_port, 4000);
}

// Malformed packets must be rejected cleanly: nullopt all the way down, the
// right drop counter for bad IP headers, and no drift anywhere else.
TEST_F(RawRxTest, MalformedPacketsRejectedWithoutStatDrift) {
  auto sock = host_.stack->UdpOpen();
  ASSERT_TRUE(Ok(sock->Bind(5000)));

  // 1) Truncated Ethernet frame (below the 14-byte header).
  wire_.Send(1, std::vector<std::uint8_t>{0xff, 0xff, 0xff});
  // 2) IP header with a flipped checksum bit.
  {
    std::vector<std::uint8_t> l3(kIp4HdrBytes);
    Ip4Header ip;
    ip.total_len = kIp4HdrBytes;
    ip.proto = kIpProtoUdp;
    ip.src = MakeIp(10, 0, 0, 2);
    ip.dst = MakeIp(10, 0, 0, 1);
    ip.Serialize(l3.data());
    l3[15] ^= 0x40;
    InjectIp(l3);
  }
  // 3) Truncated IP header.
  {
    std::vector<std::uint8_t> l3 = {0x45, 0x00, 0x00};
    InjectIp(l3);
  }
  // 4) Valid IP, UDP length field lying beyond the datagram.
  {
    std::vector<std::uint8_t> l3(kIp4HdrBytes + kUdpHdrBytes + 2, 0);
    Ip4Header ip;
    ip.total_len = static_cast<std::uint16_t>(l3.size());
    ip.proto = kIpProtoUdp;
    ip.src = MakeIp(10, 0, 0, 2);
    ip.dst = MakeIp(10, 0, 0, 1);
    ip.Serialize(l3.data());
    netharness::PutU16(l3.data() + kIp4HdrBytes, 4000);
    netharness::PutU16(l3.data() + kIp4HdrBytes + 2, 5000);
    netharness::PutU16(l3.data() + kIp4HdrBytes + 4, 200);  // lying length
    InjectIp(l3);
  }
  // 5) Valid IP, truncated TCP header.
  {
    std::vector<std::uint8_t> l3(kIp4HdrBytes + 6, 0);
    Ip4Header ip;
    ip.total_len = static_cast<std::uint16_t>(l3.size());
    ip.proto = kIpProtoTcp;
    ip.src = MakeIp(10, 0, 0, 2);
    ip.dst = MakeIp(10, 0, 0, 1);
    ip.Serialize(l3.data());
    InjectIp(l3);
  }
  for (int i = 0; i < 8; ++i) {
    host_.stack->Poll();
  }

  const auto& st = host_.stack->stats();
  EXPECT_EQ(st.udp_rx, 0u);
  EXPECT_EQ(st.tcp_rx, 0u);
  EXPECT_EQ(st.icmp_rx, 0u);
  EXPECT_EQ(st.no_socket_drops, 0u);
  EXPECT_EQ(st.rst_sent, 0u);
  EXPECT_FALSE(sock->readable());
  // Cases 2 and 3 are IP header parse failures; the interface counts exactly
  // those (truncated Ethernet never reaches IP, lying-UDP/truncated-TCP fail
  // quietly at L4).
  EXPECT_EQ(host_.netif->if_stats().rx_checksum_drops, 2u);
  EXPECT_EQ(host_.netif->if_stats().ip_rx, 2u);  // the two L4-bad packets
}

}  // namespace
