// Loss-pattern conformance suite for the modernized TCP fast path: NewReno
// congestion control, SACK-based loss recovery, delayed ACKs and window
// scaling, exercised against scripted drop patterns through RawPeer (every
// ACK and SACK block under test control) and end-to-end over lossy wires.
//
// The scenarios pin down the recovery contract documented in
// src/uknet/DATAPATH.md:
//  * SYN option negotiation is byte-exact on the wire and degrades to the
//    legacy stop-and-go behaviour against an option-less peer;
//  * a single mid-window loss retransmits exactly ONE segment (the SACK
//    scoreboard spares the rest) with zero TX-pool churn;
//  * fast retransmit needs exactly three duplicate ACKs, not two;
//  * cwnd halves into fast recovery, deflates to ssthresh on the full ACK,
//    and grows linearly in congestion avoidance afterwards;
//  * a NewReno partial ACK advances snd_una mid-recovery and re-sends only
//    the next hole;
//  * the RTO backs off exponentially, resets on forward progress, and its
//    go-back-N re-burst skips SACKed segments;
//  * the receiver coalesces ACKs to one per 2*MSS within a burst, holds the
//    rest while the app has not read it, and otherwise sends it on the first
//    pass after the read, when the window falls below one MSS, before a
//    PollWait parks, or at the delayed-ACK deadline;
//  * out-of-order arrivals are queued for reassembly and advertised as
//    ascending SACK blocks on immediate dup ACKs;
//  * a negotiated window scale sustains more than 64 KiB in flight on a
//    single connection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "net_harness.h"
#include "ukalloc/registry.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"
#include "uksched/scheduler.h"

namespace {

using namespace uknet;
using netharness::Host;
using netharness::LossyTest;
using netharness::RawPeer;
using netharness::RawPeerTest;
using netharness::TwoHostTest;
using netharness::ZeroAllocGuard;

constexpr std::uint32_t kMss = TcpSocket::kMss;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint32_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 7 + salt) % 251);
  }
  return v;
}

// RawPeerTest plus a handshake whose SYN|ACK carries options, so the modern
// features negotiate on. The peer's data space starts at seq 1001.
class TcpLossTest : public RawPeerTest {
 protected:
  std::uint32_t ModernHandshake(const std::shared_ptr<TcpSocket>& client,
                                std::uint16_t peer_port,
                                std::int8_t peer_wscale = 0) {
    Pump();
    EXPECT_FALSE(peer_.segs.empty());
    EXPECT_EQ(peer_.segs.back().hdr.flags, kTcpSyn);
    std::uint32_t iss = peer_.segs.back().hdr.seq;
    peer_.SendTcpWithOptions(peer_port, client->local_port(),
                             kTcpSyn | kTcpAck, 1000, iss + 1, 65535,
                             /*mss=*/kMss, peer_wscale, /*sack_permitted=*/true);
    Pump();
    EXPECT_TRUE(client->connected());
    return iss;
  }

  // Data segments (non-empty payload) among the recorded segments.
  static std::vector<const RawPeer::Seg*> DataSegs(const RawPeer& peer) {
    std::vector<const RawPeer::Seg*> out;
    for (const auto& s : peer.segs) {
      if (!s.payload.empty()) {
        out.push_back(&s);
      }
    }
    return out;
  }

  // Pure ACKs: ACK flag only, no payload.
  static std::vector<const RawPeer::Seg*> PureAcks(const RawPeer& peer) {
    std::vector<const RawPeer::Seg*> out;
    for (const auto& s : peer.segs) {
      if (s.payload.empty() && s.hdr.flags == kTcpAck) {
        out.push_back(&s);
      }
    }
    return out;
  }
};

// ---- SYN option negotiation --------------------------------------------------------

// The client SYN's option area, byte for byte: MSS 1400, window scale 0 (the
// default 64 KiB receive buffer needs no shift, but offering the option
// enables the peer's side), SACK-permitted, NOP-padded to a 4-byte multiple.
TEST_F(TcpLossTest, SynCarriesMssWscaleSackPermittedByteExact) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  Pump();
  ASSERT_FALSE(peer_.segs.empty());
  const auto& syn = peer_.segs.back();
  ASSERT_EQ(syn.hdr.flags, kTcpSyn);
  EXPECT_EQ(syn.hdr.mss, kMss);
  EXPECT_EQ(syn.hdr.wscale, 0);
  EXPECT_TRUE(syn.hdr.sack_permitted);
  const std::uint8_t want[] = {
      2, 4, 0x05, 0x78,  // MSS = 1400
      3, 3, 0,           // window scale, shift 0
      4, 2,              // SACK-permitted
      1, 1, 1,           // NOP padding to 12 bytes
  };
  ASSERT_TRUE(syn.HasOptions());
  auto got = syn.OptionBytes();
  ASSERT_EQ(got.size(), sizeof(want));
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want));
}

// Legacy mode sends a bare 20-byte SYN: the stop-and-go baseline is
// bit-identical to the pre-modernization stack.
TEST_F(TcpLossTest, LegacyModeSynHasNoOptions) {
  host_.stack->tcp_modern = false;
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  Pump();
  ASSERT_FALSE(peer_.segs.empty());
  EXPECT_EQ(peer_.segs.back().hdr.flags, kTcpSyn);
  EXPECT_FALSE(peer_.segs.back().HasOptions());
}

// An option-less SYN|ACK (the stock Handshake helper) turns every modern
// feature off: no SACK, no scaling — and traffic still flows.
TEST_F(TcpLossTest, OptionlessPeerDisablesModernFeatures) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = Handshake(client, 80);
  EXPECT_FALSE(client->sack_enabled());
  EXPECT_EQ(client->send_wscale(), 0);
  EXPECT_EQ(client->recv_wscale(), 0);

  auto data = Pattern(kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(kMss));
  Pump();
  auto segs = DataSegs(peer_);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0]->hdr.seq, iss + 1);
  EXPECT_EQ(segs[0]->payload, data);
}

// SYN|ACK options negotiate: SACK on, the peer's wscale applied to every
// subsequent window update — but never to the SYN|ACK's own window field.
TEST_F(TcpLossTest, SynAckNegotiatesSackAndWscale) {
  auto client = host_.stack->TcpConnect(peer_.ip, 82);
  ASSERT_NE(client, nullptr);
  Pump();
  std::uint32_t iss = peer_.segs.back().hdr.seq;
  peer_.SendTcpWithOptions(82, client->local_port(), kTcpSyn | kTcpAck, 1000,
                           iss + 1, /*window=*/1000, kMss, /*wscale=*/3,
                           /*sack_permitted=*/true);
  Pump();
  ASSERT_TRUE(client->connected());
  EXPECT_TRUE(client->sack_enabled());
  EXPECT_EQ(client->send_wscale(), 3);
  EXPECT_EQ(client->recv_wscale(), 0);  // we offered shift 0
  // RFC 7323: the window in a SYN-flagged segment is never scaled.
  EXPECT_EQ(client->send_window(), 1000u);
  // The handshake-completing ACK carries no options.
  ASSERT_FALSE(peer_.segs.empty());
  EXPECT_EQ(peer_.segs.back().hdr.flags, kTcpAck);
  EXPECT_FALSE(peer_.segs.back().HasOptions());
  // A post-handshake ACK's window is shifted by the negotiated scale.
  peer_.SendTcp(82, client->local_port(), kTcpAck, 1001, iss + 1, 1000);
  Pump();
  EXPECT_EQ(client->send_window(), 1000u << 3);
}

// ---- SACK-based fast recovery ------------------------------------------------------

// The headline loss pattern: one segment lost mid-window. The three dup ACKs
// carry a SACK block covering everything after the hole, so recovery
// retransmits exactly ONE segment — from the retained queue, with zero
// TX-pool allocations and a flat heap — and cwnd halves.
TEST_F(TcpLossTest, SingleLossSackRecoveryRetransmitsExactlyOne) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);
  EXPECT_EQ(client->cwnd(), 10 * kMss);  // IW10

  // 8000 bytes => segments of 1400x5 + 1000, all within cwnd.
  auto data = Pattern(8000);
  ASSERT_EQ(client->Send(data), 8000);
  Pump();
  ASSERT_EQ(DataSegs(peer_).size(), 6u);

  // Segment 1 arrives: cumulative ACK, slow start grows cwnd by one MSS.
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1 + kMss, 65535);
  Pump();
  EXPECT_EQ(client->cwnd(), 11 * kMss);

  // Segment 2 is "lost": everything after it arrives and is SACKed.
  peer_.segs.clear();
  ZeroAllocGuard guard({host_.netif->tx_pool()}, host_.alloc.get());
  const TcpSackBlock hole_after[] = {{iss + 1 + 2 * kMss, iss + 1 + 8000}};
  for (int i = 0; i < 3; ++i) {
    peer_.SendTcpSack(80, client->local_port(), 1001, iss + 1 + kMss, 65535,
                      hole_after);
    Pump(1);
  }
  Pump();

  // Exactly one retransmission: the hole, byte-identical payload.
  auto rexmit = DataSegs(peer_);
  ASSERT_EQ(rexmit.size(), 1u);
  EXPECT_EQ(rexmit[0]->hdr.seq, iss + 1 + kMss);
  ASSERT_EQ(rexmit[0]->payload.size(), kMss);
  EXPECT_TRUE(std::equal(rexmit[0]->payload.begin(), rexmit[0]->payload.end(),
                         data.begin() + kMss));
  EXPECT_EQ(client->tcp_stats().fast_retransmits, 1u);
  EXPECT_TRUE(client->in_fast_recovery());
  // Entry arithmetic: flight was 6600 (8000 minus the ACKed 1400), so
  // ssthresh = 3300 and cwnd inflates to ssthresh + 3*MSS.
  EXPECT_EQ(client->ssthresh(), 3300u);
  EXPECT_EQ(client->cwnd(), 3300u + 3 * kMss);

  // The full ACK ends recovery: cwnd deflates to ssthresh = flight/2.
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1 + 8000, 65535);
  Pump();
  EXPECT_FALSE(client->in_fast_recovery());
  EXPECT_EQ(client->cwnd(), 3300u);
  EXPECT_EQ(DataSegs(peer_).size(), 1u);  // still just the one retransmit

  guard.ExpectPoolFlat("SACK fast recovery");
  guard.ExpectHeapSteady("SACK fast recovery");
}

// Two duplicate ACKs must NOT trigger fast retransmit; the third must.
TEST_F(TcpLossTest, FastRetransmitNeedsExactlyThreeDupAcks) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);

  auto data = Pattern(2 * kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(2 * kMss));
  Pump();
  peer_.segs.clear();

  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1, 65535);
  Pump();
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1, 65535);
  Pump();
  EXPECT_EQ(DataSegs(peer_).size(), 0u);
  EXPECT_EQ(client->tcp_stats().fast_retransmits, 0u);
  EXPECT_FALSE(client->in_fast_recovery());

  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1, 65535);
  Pump();
  auto rexmit = DataSegs(peer_);
  ASSERT_EQ(rexmit.size(), 1u);
  EXPECT_EQ(rexmit[0]->hdr.seq, iss + 1);
  EXPECT_EQ(client->tcp_stats().fast_retransmits, 1u);
  EXPECT_TRUE(client->in_fast_recovery());
}

// After recovery lands cwnd on ssthresh, further ACKs grow it by
// ~MSS*MSS/cwnd: linear (congestion avoidance), not exponential.
TEST_F(TcpLossTest, CongestionAvoidanceGrowsLinearly) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);

  // 4 segments; lose the first, SACK the rest, recover.
  auto data = Pattern(4 * kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(4 * kMss));
  Pump();
  const TcpSackBlock rest[] = {{iss + 1 + kMss, iss + 1 + 4 * kMss}};
  for (int i = 0; i < 3; ++i) {
    peer_.SendTcpSack(80, client->local_port(), 1001, iss + 1, 65535, rest);
    Pump(1);
  }
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1 + 4 * kMss,
                65535);
  Pump();
  // flight was 5600 at entry: ssthresh = cwnd = 2800.
  ASSERT_FALSE(client->in_fast_recovery());
  ASSERT_EQ(client->cwnd(), 2 * kMss);
  ASSERT_EQ(client->ssthresh(), 2 * kMss);

  // cwnd == ssthresh: congestion avoidance. Each full-MSS ACK adds
  // MSS*MSS/cwnd bytes.
  std::uint32_t expect = 2 * kMss;
  for (int round = 0; round < 2; ++round) {
    std::uint32_t seq = iss + 1 + (4 + round) * kMss;
    ASSERT_EQ(client->Send(std::span(data.data(), kMss)),
              static_cast<std::int64_t>(kMss));
    Pump();
    peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, seq + kMss, 65535);
    Pump();
    expect += kMss * kMss / expect;
    EXPECT_EQ(client->cwnd(), expect);
  }
}

// NewReno partial ACK: two holes in one window. The partial ACK repairing
// the first hole advances snd_una, stays in recovery, and immediately
// retransmits the next hole — nothing else.
TEST_F(TcpLossTest, PartialAckMidRecoveryRetransmitsNextHole) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);

  // 6 segments; segments 1 and 3 are lost (seqs base and base+2*MSS).
  auto data = Pattern(6 * kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(6 * kMss));
  Pump();
  ASSERT_EQ(DataSegs(peer_).size(), 6u);
  const std::uint32_t base = iss + 1;
  peer_.segs.clear();

  // Dup ACKs carry what actually arrived: segment 2, and segments 4-6.
  const TcpSackBlock held[] = {{base + kMss, base + 2 * kMss},
                               {base + 3 * kMss, base + 6 * kMss}};
  for (int i = 0; i < 3; ++i) {
    peer_.SendTcpSack(80, client->local_port(), 1001, base, 65535, held);
    Pump(1);
  }
  Pump();
  auto first = DataSegs(peer_);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0]->hdr.seq, base);  // first hole
  ASSERT_TRUE(client->in_fast_recovery());

  // The retransmit lands; the peer now has 1-2 but still misses 3: partial
  // ACK below the recovery point. snd_una advances, segment 3 goes out.
  peer_.segs.clear();
  const TcpSackBlock tail[] = {{base + 3 * kMss, base + 6 * kMss}};
  peer_.SendTcpSack(80, client->local_port(), 1001, base + 2 * kMss, 65535,
                    tail);
  Pump();
  auto second = DataSegs(peer_);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0]->hdr.seq, base + 2 * kMss);  // second hole only
  EXPECT_TRUE(client->in_fast_recovery());
  EXPECT_EQ(client->in_flight(), 4 * kMss);  // snd_una advanced by 2 segments

  // Full ACK: recovery ends, cwnd deflates to ssthresh (= flight/2 = 3*MSS).
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, base + 6 * kMss, 65535);
  Pump();
  EXPECT_FALSE(client->in_fast_recovery());
  EXPECT_EQ(client->cwnd(), client->ssthresh());
  EXPECT_EQ(client->ssthresh(), 3 * kMss);
  EXPECT_EQ(client->in_flight(), 0u);
}

// ---- RTO behaviour -----------------------------------------------------------------

// The retransmission timeout doubles on every fire (exponential backoff) and
// resets to the base interval on the first forward ACK.
TEST_F(TcpLossTest, RtoBackoffDoublesAndResetsOnAck) {
  host_.stack->rto_cycles = 100'000;
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);

  auto data = Pattern(kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(kMss));
  Pump();
  peer_.segs.clear();

  // First fire after one base interval. Loss response: cwnd collapses to one
  // MSS, ssthresh keeps its 2*MSS floor.
  clock_.Charge(120'000);
  Pump();
  EXPECT_EQ(client->tcp_stats().rto_retransmits, 1u);
  EXPECT_EQ(DataSegs(peer_).size(), 1u);
  EXPECT_EQ(client->cwnd(), kMss);
  EXPECT_EQ(client->ssthresh(), 2 * kMss);

  // Backoff doubled: one more base interval must NOT fire again...
  peer_.segs.clear();
  clock_.Charge(110'000);
  Pump();
  EXPECT_EQ(client->tcp_stats().rto_retransmits, 1u);
  EXPECT_EQ(DataSegs(peer_).size(), 0u);
  // ...but two do.
  clock_.Charge(110'000);
  Pump();
  EXPECT_EQ(client->tcp_stats().rto_retransmits, 2u);
  EXPECT_EQ(DataSegs(peer_).size(), 1u);

  // Forward progress resets the backoff: the next loss fires after a single
  // base interval again.
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, iss + 1 + kMss, 65535);
  Pump();
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(kMss));
  Pump();
  peer_.segs.clear();
  clock_.Charge(120'000);
  Pump();
  EXPECT_EQ(client->tcp_stats().rto_retransmits, 3u);
  EXPECT_EQ(DataSegs(peer_).size(), 1u);
}

// An RTO's go-back-N re-burst consults the SACK scoreboard: segments the
// peer already holds are skipped, copy-free, with zero pool churn.
TEST_F(TcpLossTest, RtoReburstSkipsSackedSegments) {
  host_.stack->rto_cycles = 100'000;
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  std::uint32_t iss = ModernHandshake(client, 80);

  auto data = Pattern(6 * kMss);
  ASSERT_EQ(client->Send(data), static_cast<std::int64_t>(6 * kMss));
  Pump();
  const std::uint32_t base = iss + 1;

  // One SACK ACK (a single dup ACK — not enough for fast retransmit) marks
  // segments 3-6 as held; segments 1 and 2 are the holes.
  const TcpSackBlock held[] = {{base + 2 * kMss, base + 6 * kMss}};
  peer_.SendTcpSack(80, client->local_port(), 1001, base, 65535, held);
  Pump();
  peer_.segs.clear();
  ZeroAllocGuard guard({host_.netif->tx_pool()}, host_.alloc.get());

  clock_.Charge(120'000);
  Pump();
  EXPECT_EQ(client->tcp_stats().rto_retransmits, 1u);
  auto rexmit = DataSegs(peer_);
  ASSERT_EQ(rexmit.size(), 2u);  // only the two holes, not all six
  EXPECT_EQ(rexmit[0]->hdr.seq, base);
  EXPECT_EQ(rexmit[1]->hdr.seq, base + kMss);
  EXPECT_EQ(client->tcp_stats().sack_rexmit_segments, 4u);
  guard.ExpectPoolFlat("RTO re-burst");
  guard.ExpectHeapSteady("RTO re-burst");
}

// ---- delayed ACKs (receiver side) --------------------------------------------------

// A four-segment burst processed in one Poll turn elicits exactly two ACKs:
// one per 2*MSS. A lone trailing segment's ACK waits for the app: no pass
// sends it while the data sits unread, and the first pass after the app has
// read every byte sends exactly one.
TEST_F(TcpLossTest, DelayedAckCoalescesBurstToOnePerTwoMss) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  peer_.segs.clear();
  auto before = client->tcp_stats();

  // Four segments on the wire before the host polls once.
  auto data = Pattern(4 * kMss, /*salt=*/3);
  for (int i = 0; i < 4; ++i) {
    peer_.SendTcp(80, client->local_port(), kTcpAck,
                  1001 + static_cast<std::uint32_t>(i) * kMss, 0, 65535,
                  std::span(data.data() + static_cast<std::size_t>(i) * kMss,
                            kMss));
  }
  Pump();
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001 + 2 * kMss);
  EXPECT_EQ(acks[1]->hdr.ack, 1001 + 4 * kMss);
  EXPECT_EQ(client->tcp_stats().acks_coalesced - before.acks_coalesced, 2u);
  EXPECT_EQ(client->tcp_stats().pure_acks_sent - before.pure_acks_sent, 2u);

  // A lone segment: owed, and held through every pass while it is unread.
  peer_.segs.clear();
  before = client->tcp_stats();
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001 + 4 * kMss, 0, 65535,
                std::span(data.data(), kMss));
  Pump();
  EXPECT_TRUE(PureAcks(peer_).empty());
  EXPECT_EQ(client->tcp_stats().acks_coalesced - before.acks_coalesced, 1u);
  EXPECT_EQ(client->tcp_stats().pure_acks_sent, before.pure_acks_sent);

  // All five segments are readable, in order.
  std::vector<std::uint8_t> got(5 * kMss);
  ASSERT_EQ(client->Recv(got), static_cast<std::int64_t>(5 * kMss));
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 4 * kMss, data.begin()));
  EXPECT_TRUE(std::equal(got.begin() + 4 * kMss, got.end(), data.begin()));

  // The read drained the buffer: the very next pass sends the one ACK.
  Pump(1);
  acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001 + 5 * kMss);
  EXPECT_EQ(client->tcp_stats().pure_acks_sent - before.pure_acks_sent, 1u);
}

// The owed ACK covers every byte received so far, so a partial read does not
// release it: the passes after it still hold the ACK. The pass right after
// the read that empties the buffer sends exactly one, and nothing follows.
TEST_F(TcpLossTest, UnansweredReaderAcksOnFirstPassAfterDrainingRead) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  peer_.segs.clear();
  const auto before = client->tcp_stats();
  auto data = Pattern(1000, /*salt=*/5);
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535, data);
  Pump();
  EXPECT_TRUE(PureAcks(peer_).empty());

  std::uint8_t buf[600];
  ASSERT_EQ(client->Recv(buf), 600);
  Pump();
  EXPECT_TRUE(PureAcks(peer_).empty()) << "ACK sent with 400 bytes unread";

  ASSERT_EQ(client->Recv(buf), 400);
  Pump(1);
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001u + 1000u);
  Pump();
  EXPECT_EQ(PureAcks(peer_).size(), 1u);
  EXPECT_EQ(client->tcp_stats().pure_acks_sent - before.pure_acks_sent, 1u);
  EXPECT_EQ(client->tcp_stats().acks_coalesced - before.acks_coalesced, 1u);
}

// A receive window below one MSS blocks the sender, so the arrival that
// shrinks it is ACKed in the same pass even though the app has read nothing
// and less than 2*MSS arrived.
TEST_F(TcpLossTest, WindowBelowOneMssAcksAtOnce) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  client->SetBufferCaps(TcpSocket::kSendBufCap, 2 * kMss);
  ModernHandshake(client, 80);
  peer_.segs.clear();
  auto data = Pattern(1600, /*salt=*/9);
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535,
                std::span(data.data(), 800));
  Pump();
  EXPECT_TRUE(PureAcks(peer_).empty());  // 2000 bytes of window left

  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001 + 800, 0, 65535,
                std::span(data.data() + 800, 800));
  Pump(1);
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001u + 1600u);
  EXPECT_EQ(acks[0]->hdr.window, 2 * kMss - 1600);
}

// Unread data is ACKed at the delayed-ACK deadline, not before.
TEST_F(TcpLossTest, DelayedAckDeadlineAcksUnreadData) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  peer_.segs.clear();
  auto data = Pattern(500);
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535, data);
  Pump();
  clock_.Charge(host_.stack->delack_cycles / 2);
  Pump();
  EXPECT_TRUE(PureAcks(peer_).empty());

  clock_.Charge(host_.stack->delack_cycles / 2);
  Pump(1);
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001u + 500u);
}

// A loop never parks holding an owed ACK: PollWait's drains leave the unread
// data's ACK owed, and the park sends it — one pure ACK, one blocked wait.
TEST_F(TcpLossTest, PollWaitSendsOwedAckBeforeParking) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  peer_.segs.clear();
  auto data = Pattern(500);
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535, data);
  Pump();
  ASSERT_TRUE(PureAcks(peer_).empty());

  auto sched = uksched::MakeScheduler(host_.alloc.get(), &clock_);
  host_.stack->SetScheduler(sched.get());
  std::size_t handled = 99;
  sched->CreateThread("loop", [&] {
    handled = host_.stack->PollWait(NetStack::kAllQueues, /*timeout_cycles=*/1000);
  });
  EXPECT_EQ(sched->Run(), 0u);
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(host_.stack->wait_stats().blocked_waits, 1u);
  peer_.Poll();
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001u + 500u);
}

// A retransmission of already-delivered data is re-ACKed immediately — never
// delayed, or the peer would sit out a full RTO.
TEST_F(TcpLossTest, OldSegmentGetsImmediateAck) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  auto data = Pattern(kMss);
  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535, data);
  Pump();
  peer_.segs.clear();

  peer_.SendTcp(80, client->local_port(), kTcpAck, 1001, 0, 65535, data);
  Pump(1);
  auto acks = PureAcks(peer_);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->hdr.ack, 1001 + kMss);
}

// ---- out-of-order reassembly + SACK generation -------------------------------------

// Arrivals above rcv_nxt are queued (not dropped), every such arrival is
// answered with an immediate dup ACK advertising the held ranges as
// ascending SACK blocks, and filling the hole drains the queue in order and
// jumps the cumulative ACK past everything held.
TEST_F(TcpLossTest, OooArrivalSendsSackBlocksAndReassembles) {
  auto client = host_.stack->TcpConnect(peer_.ip, 80);
  ASSERT_NE(client, nullptr);
  ModernHandshake(client, 80);
  auto data = Pattern(4 * kMss, /*salt=*/9);
  auto seg = [&](int i) {
    return std::span<const std::uint8_t>(
        data.data() + static_cast<std::size_t>(i) * kMss, kMss);
  };
  const std::uint32_t base = 1001;

  // Segment 1 in order.
  peer_.SendTcp(80, client->local_port(), kTcpAck, base, 0, 65535, seg(0));
  Pump();
  peer_.segs.clear();

  // Segment 3 (skipping 2): immediate dup ACK with one SACK block.
  peer_.SendTcp(80, client->local_port(), kTcpAck, base + 2 * kMss, 0, 65535,
                seg(2));
  Pump(1);
  {
    auto acks = PureAcks(peer_);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0]->hdr.ack, base + kMss);
    ASSERT_EQ(acks[0]->hdr.sack_count, 1);
    EXPECT_EQ(acks[0]->hdr.sacks[0].start, base + 2 * kMss);
    EXPECT_EQ(acks[0]->hdr.sacks[0].end, base + 3 * kMss);
  }

  // Segment 4 lands flush against segment 3: the receiver merges the two
  // into one stored range, so the dup ACK carries a single widened block.
  peer_.segs.clear();
  peer_.SendTcp(80, client->local_port(), kTcpAck, base + 3 * kMss, 0, 65535,
                seg(3));
  Pump(1);
  {
    auto acks = PureAcks(peer_);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0]->hdr.ack, base + kMss);
    ASSERT_EQ(acks[0]->hdr.sack_count, 1);
    EXPECT_EQ(acks[0]->hdr.sacks[0].start, base + 2 * kMss);
    EXPECT_EQ(acks[0]->hdr.sacks[0].end, base + 4 * kMss);
  }
  EXPECT_EQ(client->tcp_stats().ooo_queued, 2u);
  EXPECT_EQ(client->tcp_stats().out_of_order_dropped, 0u);

  // Segment 2 fills the hole: the cumulative ACK jumps over the whole queue
  // immediately, with no SACK blocks left to advertise.
  peer_.segs.clear();
  peer_.SendTcp(80, client->local_port(), kTcpAck, base + kMss, 0, 65535,
                seg(1));
  Pump(1);
  {
    auto acks = PureAcks(peer_);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0]->hdr.ack, base + 4 * kMss);
    EXPECT_EQ(acks[0]->hdr.sack_count, 0);
  }

  // Reassembled bytes come out of Recv in order.
  std::vector<std::uint8_t> got(4 * kMss);
  ASSERT_EQ(client->Recv(got), static_cast<std::int64_t>(4 * kMss));
  EXPECT_EQ(got, data);
}

// ---- window scaling end-to-end -----------------------------------------------------

class WideWindowTest : public TwoHostTest {
 protected:
  WideWindowTest() : TwoHostTest(1, 512) {}
};

// With buffer caps above 64 KiB on both ends, the negotiated window scale
// lets a single connection hold more than a 16-bit window's worth of
// unacknowledged data in flight.
TEST_F(WideWindowTest, ScaledFlowSustainsMoreThan64KInFlight) {
  a_.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b_.nic->mac());
  b_.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a_.nic->mac());
  constexpr std::size_t kBig = 192 * 1024;
  auto listener = b_.stack->TcpListen(80);
  listener->SetBufferCaps(TcpSocket::kSendBufCap, kBig);
  auto client = a_.stack->TcpConnect(MakeIp(10, 0, 0, 2), 80);
  ASSERT_NE(client, nullptr);
  client->SetBufferCaps(kBig, TcpSocket::kRecvBufCap);

  auto data = Pattern(2 * kBig);
  std::size_t sent = 0;
  std::vector<std::uint8_t> received;
  received.reserve(data.size());
  std::shared_ptr<TcpSocket> server;
  std::uint32_t max_inflight = 0;
  std::uint32_t max_wnd = 0;
  std::uint8_t buf[8192];
  for (int round = 0; round < 40000 && received.size() < data.size(); ++round) {
    if (client->connected() && sent < data.size()) {
      std::int64_t n =
          client->Send(std::span(data.data() + sent, data.size() - sent));
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      }
    }
    a_.stack->Poll();
    b_.stack->Poll();
    if (server == nullptr) {
      server = listener->Accept();
    } else {
      std::int64_t r = server->Recv(buf);
      if (r > 0) {
        received.insert(received.end(), buf, buf + r);
      }
    }
    max_inflight = std::max(max_inflight, client->in_flight());
    max_wnd = std::max(max_wnd, client->send_window());
  }
  ASSERT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
  // 192 KiB needs a shift of 2 (the advertised field tops out at 64 KiB).
  EXPECT_EQ(client->send_wscale(), 2);
  EXPECT_GT(max_wnd, 65535u);
  EXPECT_GT(max_inflight, 65536u);
  // The receiver coalesced: strictly fewer pure ACKs than data segments.
  ASSERT_NE(server, nullptr);
  EXPECT_LT(server->tcp_stats().pure_acks_sent,
            client->tcp_stats().data_segments_sent);
}

// ---- lossy wire end-to-end ---------------------------------------------------------

// The integration smoke at 2% random loss: a 128 KiB transfer arrives intact,
// recovery engaged at least once, and the receiver's delayed ACKs kept the
// reverse path under one ACK per data segment.
TEST_F(LossyTest, ModernStackSurvivesRandomLoss) {
  a_->netif->AddArpEntry(MakeIp(10, 0, 0, 2), b_->nic->mac());
  b_->netif->AddArpEntry(MakeIp(10, 0, 0, 1), a_->nic->mac());
  auto listener = b_->stack->TcpListen(80);
  auto client = a_->stack->TcpConnect(MakeIp(10, 0, 0, 2), 80);

  auto data = Pattern(128 * 1024);
  std::size_t sent = 0;
  std::vector<std::uint8_t> received;
  std::shared_ptr<TcpSocket> server;
  std::uint8_t buf[4096];
  for (int round = 0; round < 400000 && received.size() < data.size(); ++round) {
    clock_.Charge(2000);  // let RTOs fire on the virtual clock
    if (client->connected() && sent < data.size()) {
      std::int64_t n =
          client->Send(std::span(data.data() + sent, data.size() - sent));
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      }
    }
    a_->stack->Poll();
    b_->stack->Poll();
    if (server == nullptr) {
      server = listener->Accept();
    } else {
      std::int64_t r = server->Recv(buf);
      if (r > 0) {
        received.insert(received.end(), buf, buf + r);
      }
    }
  }
  ASSERT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
  EXPECT_GT(client->tcp_stats().retransmissions, 0u);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(client->sack_enabled());
  EXPECT_LT(server->tcp_stats().pure_acks_sent,
            client->tcp_stats().data_segments_sent);
}

}  // namespace
