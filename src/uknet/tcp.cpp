// TCP state machine: connection setup/teardown, sliding-window transfer,
// NewReno congestion control, SACK-based loss recovery, delayed ACKs.
// Invariants the tests lean on:
//  * retx_queue_ segments cover [snd_una_, DataEnd()) in order; the front
//    segment contains snd_una_ (or the queue is empty)
//  * every queued segment holds one reference on its netbuf until the
//    cumulative ACK that covers it; (re)transmission takes a second,
//    transient reference — recovery never copies payload bytes
//  * the SACK scoreboard is one bit per retained segment; retransmission
//    passes skip sacked segments but only a cumulative ACK releases them
//  * rcv_nxt_ is the next expected byte; out-of-order segments queue in a
//    bounded reassembly list (ooo_ranges_) that doubles as the SACK-block
//    source, and drain into recv_buf_ when the hole fills
//  * every receive that advances rcv_nxt_ owes the peer an ACK; the owed ACK
//    rides the next segment this socket sends (so a reply carries it), and
//    is otherwise bounded by 2*MSS received, a receive window below one MSS,
//    the first timer pass after the app has read every covered byte, a
//    PollWait about to park, and delack_cycles — whichever comes first.
// The whole modern fast path gates on NetStack::tcp_modern; with it off the
// socket behaves like the pre-modernization stack (no options, no cwnd, an
// ACK per in-order segment) so benches can measure the delta.
#include <algorithm>
#include <cstring>

#include "uknet/stack.h"

namespace uknet {

TcpSocket::~TcpSocket() { ReleaseAllSegments(); }

void TcpSocket::SetBufferCaps(std::size_t send_cap, std::size_t recv_cap) {
  const std::size_t floor = 2 * kMss;
  send_cap_ = send_cap < floor ? floor : send_cap;
  recv_cap_ = recv_cap < floor ? floor : recv_cap;
}

void TcpSocket::ReleaseAllSegments() {
  // Segments still awaiting ACK hold the queue's netbuf references. Sockets
  // the stack no longer tracks always have an empty queue (every removal
  // path requires the FIN — and with it all data — to be acknowledged, or
  // ~NetStack drained them), so this never touches a destroyed pool.
  for (TcpTxSegment& seg : retx_queue_) {
    netif_->FreeTxBuf(seg.nb);
  }
  retx_queue_.clear();
  send_buffered_ = 0;
}

std::int64_t TcpSocket::Send(std::span<const std::uint8_t> data) {
  if (reset_) {
    return ukarch::Raw(ukarch::Status::kConnReset);
  }
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    return ukarch::Raw(ukarch::Status::kPipe);
  }
  if (fin_queued_) {
    return ukarch::Raw(ukarch::Status::kPipe);
  }
  // Fill MSS-sized TX netbufs directly: the app bytes are written exactly
  // once, into the buffer that goes to the device. Each filled segment joins
  // the retransmission queue, which retains the netbuf until it is ACKed.
  ukplat::MemRegion* mem = stack_->mem();
  std::size_t accepted = 0;
  while (accepted < data.size() && send_buffered_ < send_cap_) {
    std::uint32_t want = static_cast<std::uint32_t>(data.size() - accepted);
    std::uint32_t space = static_cast<std::uint32_t>(send_cap_ - send_buffered_);
    if (want > space) {
      want = space;
    }
    // Coalesce small writes into the trailing segment while it is below MSS.
    // On the modern path only into a segment that has not been transmitted
    // yet (a sent segment's end is a wire-frame boundary; growing it would
    // strand snd_una_ mid-segment on the ACK and push later retransmissions
    // off the retained-buffer path — legacy has no such contract and keeps
    // the seed behavior). Also skip a buffer parked behind ARP resolution —
    // those bytes are spoken for until the pending send releases its
    // reference.
    if (!retx_queue_.empty() && retx_queue_.back().len < kMss &&
        (!stack_->tcp_modern || !SeqLt(retx_queue_.back().seq, snd_nxt_)) &&
        retx_queue_.back().nb->refcnt == 1) {
      TcpTxSegment& seg = retx_queue_.back();
      uknetdev::NetBuf* nb = seg.nb;
      nb->headroom = seg.payload_headroom;  // restore: TX prepended headers
      nb->len = seg.len;
      std::uint32_t take = want < kMss - seg.len ? want : kMss - seg.len;
      if (take > nb->tailroom()) {
        take = nb->tailroom();
      }
      std::uint8_t* at = take > 0 ? nb->Append(*mem, take) : nullptr;
      if (at != nullptr) {
        std::memcpy(at, data.data() + accepted, take);
        seg.len += take;
        send_buffered_ += take;
        accepted += take;
        continue;
      }
    }
    uknetdev::NetBuf* nb = netif_->AllocTxBuf(kTcpHdrBytes, tx_queue_);
    if (nb == nullptr) {
      // TX pool dry: report what was accepted. Mark the socket starved so the
      // pool-refill edge raises kEvtWritable — the app's flush loop parks on
      // writability instead of spinning retries against an empty pool.
      tx_pool_starved_ = true;
      break;
    }
    std::uint32_t take = want < kMss ? want : kMss;
    if (take > nb->tailroom()) {
      take = nb->tailroom();
    }
    std::uint8_t* at = nb->Append(*mem, take);
    if (at == nullptr) {
      netif_->FreeTxBuf(nb);
      break;
    }
    std::memcpy(at, data.data() + accepted, take);
    TcpTxSegment seg;
    seg.seq = retx_queue_.empty() ? snd_nxt_ : DataEnd();
    seg.len = take;
    seg.payload_headroom = nb->headroom;
    seg.nb = nb;
    retx_queue_.push_back(seg);
    send_buffered_ += take;
    accepted += take;
  }
  Output();
  return static_cast<std::int64_t>(accepted);
}

std::int64_t TcpSocket::Recv(std::span<std::uint8_t> out) {
  if (reset_) {
    return ukarch::Raw(ukarch::Status::kConnReset);
  }
  if (RecvBuffered() == 0) {
    if (fin_received_) {
      return 0;  // orderly EOF
    }
    return ukarch::Raw(ukarch::Status::kAgain);
  }
  bool was_zero_window = AdvertisedWindow() == 0;
  std::size_t n = std::min(out.size(), RecvBuffered());
  std::copy_n(recv_buf_.begin() + static_cast<std::ptrdiff_t>(recv_head_), n, out.begin());
  recv_head_ += n;
  if (recv_head_ == recv_buf_.size()) {
    recv_buf_.clear();
    recv_head_ = 0;
  }
  if (was_zero_window && AdvertisedWindow() > 0 && state_ == TcpState::kEstablished) {
    // Window update so the stalled sender resumes.
    EmitSegment(kTcpAck, snd_nxt_);
  }
  return static_cast<std::int64_t>(n);
}

void TcpSocket::Close() {
  switch (state_) {
    case TcpState::kEstablished:
    case TcpState::kSynRcvd:
      fin_queued_ = true;
      EnterState(TcpState::kFinWait1);
      Output();
      break;
    case TcpState::kCloseWait:
      fin_queued_ = true;
      EnterState(TcpState::kLastAck);
      Output();
      break;
    case TcpState::kSynSent:
    case TcpState::kListen:
      EnterState(TcpState::kClosed);
      // Data queued before the handshake finished will never be sent; give
      // the netbufs (and the connection key) back right away.
      ReleaseAllSegments();
      stack_->RemoveConnection(this);
      break;
    default:
      break;
  }
}

void TcpSocket::EmitSegment(std::uint8_t flags, std::uint32_t seq) {
  TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = remote_port_;
  hdr.seq = seq;
  hdr.ack = rcv_nxt_;
  hdr.flags = flags;
  hdr.window = AdvertisedWindow();
  // ACKs advertise the reassembly queue as SACK blocks: adjacent ranges
  // coalesce into one span, and the span holding the most recently received
  // segment goes first (RFC 2018) — at most 3 so the header stays within
  // one option write. The ordering matters under deep flights: only the
  // first three spans fit, and the sender's loss detection keys off whether
  // its newest data (or a tail-loss probe's echo) shows up sacked. The rest
  // follow in ascending order.
  if (sack_enabled_ && (flags & kTcpAck) != 0 && (flags & kTcpSyn) == 0 &&
      !ooo_ranges_.empty()) {
    TcpSackBlock spans[kMaxOooRanges];
    std::uint8_t n_spans = 0;
    std::uint8_t recent = 0;
    for (const OooRange& r : ooo_ranges_) {
      std::uint32_t r_end = r.seq + static_cast<std::uint32_t>(r.data.size());
      if (n_spans > 0 && spans[n_spans - 1].end == r.seq) {
        spans[n_spans - 1].end = r_end;
      } else {
        spans[n_spans].start = r.seq;
        spans[n_spans].end = r_end;
        ++n_spans;
      }
      if (SeqLe(spans[n_spans - 1].start, last_ooo_seq_) &&
          SeqLt(last_ooo_seq_, r_end)) {
        recent = n_spans - 1;
      }
    }
    hdr.sacks[hdr.sack_count++] = spans[recent];
    for (std::uint8_t i = 0; i < n_spans && hdr.sack_count < 3; ++i) {
      if (i != recent) {
        hdr.sacks[hdr.sack_count++] = spans[i];
      }
    }
  }
  ++tcp_stats_.segments_sent;
  if ((flags & (kTcpSyn | kTcpFin)) == 0 && (flags & kTcpAck) != 0) {
    ++tcp_stats_.pure_acks_sent;
  }
  stack_->SendTcpHeaderOnly(netif_, remote_ip_, hdr, tx_queue_);
  if ((flags & (kTcpSyn | kTcpFin)) != 0) {
    // Only retransmittable segments restart the retransmission timer. A pure
    // ACK must not: a stalled sender keeps ACKing its peer's traffic, and if
    // those sends pushed the epoch forward its own RTO would never fire.
    rtx_epoch_cycles_ = stack_->clock()->cycles();
  }
  // Whatever this segment was, it carried ack = rcv_nxt_: the debt is paid.
  delack_pending_ = false;
  delack_bytes_ = 0;
}

void TcpSocket::EmitRetained(TcpTxSegment& seg, std::uint32_t from, std::uint32_t take,
                             std::uint8_t flags, bool retransmit) {
  uknetdev::NetBuf* nb = seg.nb;
  if (nb == nullptr || take == 0) {
    return;
  }
  ukplat::MemRegion* mem = stack_->mem();
  TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = remote_port_;
  hdr.seq = from;
  hdr.ack = rcv_nxt_;
  hdr.flags = flags;
  hdr.window = AdvertisedWindow();
  const std::uint32_t offset = from - seg.seq;
  if (offset != 0) {
    // Mid-segment suffix (snd_una_ inside the segment after a partial ACK,
    // or the continuation of a window-truncated send). Prepending headers
    // here would consume "headroom" that is really the segment's own earlier
    // payload — and a later full retransmit would re-send the clobbered
    // bytes. These rare sends take a one-copy fallback into a fresh buffer;
    // segment-aligned sends below (every normal transmission, and go-back-N /
    // fast retransmit at segment boundaries) stay copy-free.
    const std::byte* src = mem->At(nb->gpa + seg.payload_headroom + offset, take);
    uknetdev::NetBuf* out = netif_->AllocTxBuf(kTcpHdrBytes, tx_queue_);
    if (src == nullptr || out == nullptr) {
      netif_->FreeTxBuf(out);
      return;  // pool dry: drop; the retransmission timer recovers
    }
    std::uint8_t* body = out->Append(*mem, take);
    std::uint8_t* hdr_at = body != nullptr ? out->PrependHeader(*mem, kTcpHdrBytes)
                                           : nullptr;
    if (hdr_at == nullptr) {
      netif_->FreeTxBuf(out);
      return;
    }
    std::memcpy(body, src, take);
    hdr.Serialize(hdr_at, netif_->ip(), remote_ip_, std::span(body, take));
    if (retransmit) {
      ++tcp_stats_.rexmit_copy_allocs;
    }
    ++tcp_stats_.segments_sent;
    ++tcp_stats_.data_segments_sent;
    netif_->SendIpBuf(remote_ip_, kIpProtoTcp, out, tx_queue_);
    rtx_epoch_cycles_ = stack_->clock()->cycles();
    delack_pending_ = false;
    delack_bytes_ = 0;
    return;
  }
  if (nb->refcnt > 1) {
    // A previous transmission of this buffer is still parked behind ARP
    // resolution; its bytes (headers included) are spoken for. Skip — the
    // flush or the retransmission timer covers these sequence numbers.
    return;
  }
  // Segment-aligned send: restore the payload view (transmissions prepend
  // headers in place), truncate to |take|, and re-burst the same retained
  // buffer. No payload byte is copied.
  nb->headroom = seg.payload_headroom;
  nb->len = take;
  const std::uint8_t* body = nb->Bytes(*mem);
  std::uint8_t* hdr_at = nb->PrependHeader(*mem, kTcpHdrBytes);
  if (hdr_at == nullptr) {
    return;  // headroom exhausted (cannot happen for AllocTxBuf segments)
  }
  hdr.Serialize(hdr_at, netif_->ip(), remote_ip_, std::span(body, take));
  nb->Ref();  // the transmission's reference; the TX path releases it
  ++tcp_stats_.segments_sent;
  ++tcp_stats_.data_segments_sent;
  netif_->SendIpBuf(remote_ip_, kIpProtoTcp, nb, tx_queue_);
  rtx_epoch_cycles_ = stack_->clock()->cycles();
  delack_pending_ = false;
  delack_bytes_ = 0;
}

void TcpSocket::Output() {
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd ||
      state_ == TcpState::kListen || state_ == TcpState::kClosed) {
    return;  // handshake segments are emitted by the state machine
  }
  std::uint32_t in_flight = snd_nxt_ - snd_una_;
  const std::uint32_t data_end = DataEnd();
  // The send window: the peer's advertised (scaled) window, gated by cwnd
  // when the modern fast path is on. Legacy mode keeps the raw stop-and-go
  // behavior — flow control only.
  std::uint32_t wnd = snd_wnd_;
  if (stack_->tcp_modern && cwnd_ < wnd) {
    wnd = cwnd_;
  }
  // Send queued segments the window allows. Whole segments go out
  // zero-copy; a budget that ends mid-segment makes the flow WAIT rather
  // than split — a split segment leaves snd_una_ landing mid-buffer on the
  // ACK, and every later retransmission of that suffix falls off the
  // retained-buffer path into a copy. The one exception is an idle flow
  // against a sub-MSS peer window: with nothing in flight there is no ACK
  // on the way to open the window, so a prefix must go out to make
  // progress.
  for (TcpTxSegment& seg : retx_queue_) {
    if (!SeqLt(snd_nxt_, data_end) || in_flight >= wnd) {
      break;
    }
    std::uint32_t seg_end = seg.seq + seg.len;
    if (!SeqLt(snd_nxt_, seg_end)) {
      continue;  // already fully sent (awaiting ACK)
    }
    std::uint32_t budget = wnd - in_flight;
    std::uint32_t take = seg_end - snd_nxt_;
    if (take > budget) {
      if (stack_->tcp_modern && in_flight > 0) {
        break;
      }
      take = budget;
    }
    std::uint8_t flags = kTcpAck;
    if (snd_nxt_ + take == data_end) {
      flags |= kTcpPsh;
    }
    EmitRetained(seg, snd_nxt_, take, flags);
    snd_nxt_ += take;
    in_flight += take;
  }
  // Flush a queued FIN once all data is out. The FIN consumes a sequence
  // slot of its own; segment accounting never mixes it into payload math.
  if (fin_queued_ && !fin_sent_ && !SeqLt(snd_nxt_, data_end)) {
    EmitSegment(kTcpFin | kTcpAck, snd_nxt_);
    snd_nxt_ += 1;
    fin_sent_ = true;
  }
}

void TcpSocket::CheckTimer() {
  // Delayed-ACK flush for a receiver that does not answer. The timer pass
  // that ends the RX pass delivering the data always finds it unread, so the
  // ACK waits for the app's turn, where a reply carries it. Once the app has
  // read every byte the ACK covers without sending, the next pass sends it
  // bare; the deadline covers data nobody reads.
  if (delack_pending_ &&
      (RecvBuffered() == 0 || stack_->clock()->cycles() >= delack_deadline_)) {
    AckNow();
  }
  bool has_unacked = SeqLt(snd_una_, snd_nxt_);
  if (!has_unacked) {
    return;
  }
  std::uint64_t now = stack_->clock()->cycles();
  if (now - rtx_epoch_cycles_ < stack_->rto_cycles * rto_backoff_) {
    // Tail-loss probe: a loss at the end of a burst leaves too few trailing
    // segments to raise three dup ACKs, so fast retransmit never arms and
    // the stream would sit out the whole RTO. After a quarter of it,
    // retransmit the segment at snd_una_ — the cumulative hole — once. If
    // that segment was the loss, the probe repairs it and the cumulative
    // ACK advances; if only its ACK was lost, the peer's old-segment re-ACK
    // advances us just the same. Either way the stall breaks in one round
    // trip without depending on SACK feedback (the peer's bounded
    // reassembly queue may not even hold the newest data). One probe per
    // stall: forward progress re-arms it, the exponential backoff takes
    // over if even the probe goes unanswered.
    if (stack_->tcp_modern && sack_enabled_ && !tlp_probe_sent_ &&
        rto_backoff_ == 1 && !retx_queue_.empty() &&
        now - rtx_epoch_cycles_ >= stack_->rto_cycles / 4) {
      TcpTxSegment& seg = retx_queue_.front();
      std::uint32_t seg_end = seg.seq + seg.len;
      std::uint32_t end = SeqLt(snd_nxt_, seg_end) ? snd_nxt_ : seg_end;
      if (SeqLt(snd_una_, end)) {
        tlp_probe_sent_ = true;
        ++tcp_stats_.tlp_probes;
        ++tcp_stats_.retransmissions;  // a probe IS a data retransmission
        EmitRetained(seg, snd_una_, end - snd_una_, kTcpAck, /*retransmit=*/true);
      }
    }
    return;
  }
  // Go-back-N with scoreboard holes: re-burst the retained netbufs covering
  // [snd_una_, snd_nxt_), skipping SACKed segments. Zero payload copies —
  // the buffers were filled once, in Send().
  ++tcp_stats_.retransmissions;
  ++tcp_stats_.rto_retransmits;
  if (stack_->tcp_modern) {
    // RFC 5681 timeout response: remember half the flight, collapse cwnd to
    // one segment (slow start rebuilds it), and back the timer off
    // exponentially until an ACK shows forward progress.
    std::uint32_t flight = snd_nxt_ - snd_una_;
    std::uint32_t floor = 2 * kMss;
    ssthresh_ = flight / 2 > floor ? flight / 2 : floor;
    cwnd_ = kMss;
    in_fast_recovery_ = false;
    if (rto_backoff_ < stack_->rto_backoff_cap) {
      rto_backoff_ *= 2;
    }
  }
  if (!RetransmitWindow(/*first_unacked_only=*/false) && fin_sent_) {
    EmitSegment(kTcpFin | kTcpAck, snd_nxt_ - 1);
  }
}

bool TcpSocket::RetransmitWindow(bool first_unacked_only) {
  bool resent = false;
  for (TcpTxSegment& seg : retx_queue_) {
    std::uint32_t seg_end = seg.seq + seg.len;
    if (!SeqLt(snd_una_, seg_end)) {
      continue;  // head segment partially acked ranges below snd_una_
    }
    if (!SeqLt(seg.seq, snd_nxt_)) {
      break;  // never sent; Output owns it
    }
    if (seg.sacked) {
      // The peer already holds these bytes — the scoreboard turns the
      // go-back-N re-burst into a holes-only re-burst, and points fast
      // retransmit at the first real hole.
      ++tcp_stats_.sack_rexmit_segments;
      continue;
    }
    std::uint32_t from = SeqLt(seg.seq, snd_una_) ? snd_una_ : seg.seq;
    std::uint32_t end = SeqLt(snd_nxt_, seg_end) ? snd_nxt_ : seg_end;
    if (SeqLt(from, end)) {
      EmitRetained(seg, from, end - from, kTcpAck, /*retransmit=*/true);
      resent = true;
    }
    if (first_unacked_only && resent) {
      break;
    }
  }
  return resent;
}

void TcpSocket::ReleaseAcked(std::uint32_t ack) {
  while (!retx_queue_.empty()) {
    TcpTxSegment& seg = retx_queue_.front();
    if (!SeqLe(seg.seq + seg.len, ack)) {
      break;  // partial ACK inside this segment: keep it for retransmission
    }
    send_buffered_ -= seg.len;
    netif_->FreeTxBuf(seg.nb);  // release the queue's reference
    retx_queue_.pop_front();
  }
}

void TcpSocket::UpdateSendWindow(const TcpHeader& hdr) {
  // The single place the peer's 16-bit window field becomes snd_wnd_ bytes.
  // RFC 7323: the shift never applies to a segment carrying SYN — the scale
  // is negotiated inside unscaled windows.
  if ((hdr.flags & kTcpSyn) != 0) {
    snd_wnd_ = hdr.window;
  } else {
    snd_wnd_ = static_cast<std::uint32_t>(hdr.window) << snd_wscale_;
  }
}

void TcpSocket::OnAckProgress(std::uint32_t acked_bytes, std::uint32_t ack) {
  rto_backoff_ = 1;  // forward progress: the exponential backoff resets
  tlp_probe_sent_ = false;  // and the tail-loss probe re-arms
  // Forward ACK restarts the retransmission timer for whatever remains in
  // flight (RFC 6298 5.3) — the deadline times the OLDEST unacked data from
  // the most recent evidence the path is moving, not from its original send.
  rtx_epoch_cycles_ = stack_->clock()->cycles();
  if (!stack_->tcp_modern) {
    return;
  }
  if (in_fast_recovery_) {
    if (SeqLt(ack, recover_)) {
      // NewReno partial ACK: the first hole is repaired but more were lost
      // in the same window. Retransmit the next hole immediately, deflate
      // cwnd by the amount ACKed (plus one MSS back for the segment that
      // left the network), and stay in recovery until |recover_| is covered.
      std::uint32_t deflate = acked_bytes > kMss ? acked_bytes - kMss : 0;
      cwnd_ = cwnd_ > deflate + kMss ? cwnd_ - deflate : kMss;
      RetransmitWindow(/*first_unacked_only=*/true);
      return;
    }
    // Full ACK: everything outstanding at recovery entry is covered.
    // Deflate to ssthresh and resume congestion avoidance.
    cwnd_ = ssthresh_;
    in_fast_recovery_ = false;
    return;
  }
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per ACK, ACK-counting capped to the bytes it
    // actually covered (delayed ACKs grow byte-accurately, RFC 3465 style).
    cwnd_ += acked_bytes < kMss ? acked_bytes : kMss;
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    std::uint32_t inc = kMss * kMss / cwnd_;
    cwnd_ += inc > 0 ? inc : 1;
  }
  // cwnd beyond the send buffer can never matter; keep the number readable.
  if (cwnd_ > send_cap_) {
    cwnd_ = static_cast<std::uint32_t>(send_cap_);
  }
}

void TcpSocket::OnDupAck() {
  ++tcp_stats_.dup_acks;
  ++dup_ack_count_;
  if (!stack_->tcp_modern) {
    // Legacy: trigger on every third dup ACK, counter resets.
    if (dup_ack_count_ >= 3) {
      dup_ack_count_ = 0;
      ++tcp_stats_.retransmissions;
      if (fin_sent_ && retx_queue_.empty()) {
        EmitSegment(kTcpFin | kTcpAck, snd_una_);
      } else {
        RetransmitWindow(/*first_unacked_only=*/true);
      }
    }
    return;
  }
  // Tail-loss probe feedback: the probe re-sent the highest in-flight
  // segment, so the very next dup ACK tells us where it landed. If that
  // tail is now SACKed while the cumulative ACK still points at a hole,
  // every unsacked segment below it is lost — there will never be three
  // dup ACKs (the tail was the last data the peer will see), so waiting
  // for the classic threshold means waiting for the RTO the probe exists
  // to avoid. Enter recovery off this single ACK.
  bool tail_sacked_behind_hole = false;
  if (tlp_probe_sent_ && !in_fast_recovery_ && dup_ack_count_ < 3) {
    for (auto it = retx_queue_.rbegin(); it != retx_queue_.rend(); ++it) {
      if (!SeqLt(it->seq, snd_nxt_)) {
        continue;  // queued behind cwnd, never transmitted
      }
      tail_sacked_behind_hole = it->sacked;
      break;
    }
  }
  if (!in_fast_recovery_ && (dup_ack_count_ == 3 || tail_sacked_behind_hole)) {
    // Fast retransmit + fast recovery entry (RFC 6582): halve the flight
    // into ssthresh, retransmit the first hole from the retained queue
    // (no copy), and inflate cwnd by the three segments the dup ACKs prove
    // have left the network.
    std::uint32_t flight = snd_nxt_ - snd_una_;
    std::uint32_t floor = 2 * kMss;
    ssthresh_ = flight / 2 > floor ? flight / 2 : floor;
    cwnd_ = ssthresh_ + 3 * kMss;
    in_fast_recovery_ = true;
    recover_ = snd_nxt_;
    ++tcp_stats_.retransmissions;
    ++tcp_stats_.fast_retransmits;
    if (fin_sent_ && retx_queue_.empty()) {
      EmitSegment(kTcpFin | kTcpAck, snd_una_);
    } else {
      RetransmitWindow(/*first_unacked_only=*/true);
    }
  } else if (in_fast_recovery_) {
    // Each further dup ACK means another segment left the network: inflate
    // so Output() may clock out new data while the hole repairs.
    cwnd_ += kMss;
  }
}

void TcpSocket::ApplySackBlocks(const TcpHeader& hdr) {
  if (!sack_enabled_ || hdr.sack_count == 0) {
    return;
  }
  // Whole-segment scoreboard: a retained segment is sacked when one block
  // covers it entirely. Segments are MSS-cut at Send() time and the peer
  // reassembles ranges from those same segments, so partial coverage only
  // happens across block boundaries — the next ACK's grown block gets it.
  for (TcpTxSegment& seg : retx_queue_) {
    if (seg.sacked) {
      continue;
    }
    std::uint32_t seg_end = seg.seq + seg.len;
    for (std::uint8_t i = 0; i < hdr.sack_count; ++i) {
      if (SeqLe(hdr.sacks[i].start, seg.seq) && SeqLe(seg_end, hdr.sacks[i].end)) {
        seg.sacked = true;
        break;
      }
    }
  }
}

bool TcpSocket::QueueOutOfOrder(std::uint32_t seq,
                                std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload.size() > RecvSpace()) {
    return false;
  }
  std::uint32_t end = seq + static_cast<std::uint32_t>(payload.size());
  // Duplicate of a range already queued (an OOO retransmission): nothing to
  // store, but it IS held — report success so the caller re-ACKs with the
  // SACK block instead of counting a drop.
  for (const OooRange& r : ooo_ranges_) {
    std::uint32_t r_end = r.seq + static_cast<std::uint32_t>(r.data.size());
    if (SeqLe(r.seq, seq) && SeqLe(end, r_end)) {
      // Even a duplicate is "the most recently received segment" for SACK
      // ordering — a tail-loss probe's echo must lead the next ACK's blocks.
      last_ooo_seq_ = seq;
      return true;
    }
    // Partial overlap never happens between the MSS-cut segments both ends
    // exchange; drop odd wire data rather than splice.
    if (SeqLt(seq, r_end) && SeqLt(r.seq, end)) {
      return false;
    }
  }
  auto it = ooo_ranges_.begin();
  while (it != ooo_ranges_.end() && SeqLt(it->seq, seq)) {
    ++it;
  }
  // Exactly-adjacent segments coalesce in place: a 20-segment OOO burst
  // behind one hole is ONE range, not twenty. Without this the bounded list
  // overflows under a deep flight (kMaxOooRanges is 8, a 32K window is 23
  // segments) and everything past the cap is silently re-dropped — worse,
  // the SACK blocks stop covering the newest data, which is exactly the
  // evidence loss recovery keys off.
  bool merged = false;
  if (it != ooo_ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->seq + static_cast<std::uint32_t>(prev->data.size()) == seq) {
      prev->data.insert(prev->data.end(), payload.begin(), payload.end());
      // Bridged the gap to the successor too? Splice it in.
      if (it != ooo_ranges_.end() && end == it->seq) {
        prev->data.insert(prev->data.end(), it->data.begin(), it->data.end());
        ooo_ranges_.erase(it);
      }
      merged = true;
    }
  }
  if (!merged && it != ooo_ranges_.end() && end == it->seq) {
    it->seq = seq;
    it->data.insert(it->data.begin(), payload.begin(), payload.end());
    merged = true;
  }
  if (!merged) {
    if (ooo_ranges_.size() >= kMaxOooRanges) {
      return false;
    }
    OooRange range;
    range.seq = seq;
    range.data.assign(payload.begin(), payload.end());
    ooo_ranges_.insert(it, std::move(range));
  }
  ooo_buffered_ += payload.size();
  last_ooo_seq_ = seq;
  ++tcp_stats_.ooo_queued;
  return true;
}

void TcpSocket::DrainOutOfOrder() {
  while (!ooo_ranges_.empty() && SeqLe(ooo_ranges_.front().seq, rcv_nxt_)) {
    OooRange& r = ooo_ranges_.front();
    std::uint32_t r_end = r.seq + static_cast<std::uint32_t>(r.data.size());
    if (SeqLt(rcv_nxt_, r_end)) {
      // The bytes were already charged against RecvSpace while queued, so
      // moving them into recv_buf_ cannot overflow the cap.
      std::size_t skip = rcv_nxt_ - r.seq;  // 0 unless a retransmit overlapped
      AppendRecv(std::span(r.data).subspan(skip));
      rcv_nxt_ = r_end;
    }
    ooo_buffered_ -= r.data.size();
    ooo_ranges_.erase(ooo_ranges_.begin());
  }
}

void TcpSocket::AppendRecv(std::span<const std::uint8_t> bytes) {
  if (recv_head_ > 0 && recv_buf_.size() + bytes.size() > recv_buf_.capacity()) {
    recv_buf_.erase(recv_buf_.begin(),
                    recv_buf_.begin() + static_cast<std::ptrdiff_t>(recv_head_));
    recv_head_ = 0;
  }
  recv_buf_.insert(recv_buf_.end(), bytes.begin(), bytes.end());
}

void TcpSocket::NoteAckOwed(std::size_t payload_bytes) {
  if (!stack_->tcp_modern) {
    AckNow();  // legacy: an ACK per in-order arrival
    return;
  }
  if (!delack_pending_) {
    delack_pending_ = true;
    delack_deadline_ = stack_->clock()->cycles() + stack_->delack_cycles;
  }
  delack_bytes_ += payload_bytes;
  if (delack_bytes_ >= 2 * static_cast<std::size_t>(kMss) || RecvSpace() < kMss) {
    // RFC 1122: an ACK at least every second full-sized segment; and a
    // window below one MSS blocks the sender, which needs it now.
    AckNow();
  } else {
    ++tcp_stats_.acks_coalesced;
  }
}

void TcpSocket::AckNow() {
  // EmitSegment clears the pending/owed state (the segment carries rcv_nxt_).
  EmitSegment(kTcpAck, snd_nxt_);
}

void TcpSocket::FlushDelayedAck() {
  if (delack_pending_) {
    AckNow();
  }
}

void TcpSocket::OnSegment(std::uint16_t rx_queue, const TcpHeader& hdr,
                          std::span<const std::uint8_t> payload) {
  ++tcp_stats_.segments_received;
  last_rx_queue_ = rx_queue;
  if ((hdr.flags & kTcpRst) != 0) {
    // Connection abort: release the retained TX netbufs immediately (a
    // zombie with 64KB queued would pin ~47 pool buffers until stack
    // teardown) and reclaim the 4-tuple so new connections can use it. The
    // dispatch path holds a shared_ptr, so self-removal is safe; the app
    // still observes the reset through failed().
    reset_ = true;
    EnterState(TcpState::kClosed);
    ReleaseAllSegments();
    RaiseEvent(kEvtErr | kEvtHup);  // hard error edge: wake any multiplexer
    stack_->RemoveConnection(this);
    return;
  }

  // --- handshake states ---
  if (state_ == TcpState::kSynSent) {
    if ((hdr.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) &&
        hdr.ack == snd_nxt_) {
      rcv_nxt_ = hdr.seq + 1;
      snd_una_ = hdr.ack;
      // Option negotiation completes here: each extension is on only when
      // both SYNs carried it. A plain-header peer degrades the connection
      // to the classic 64KB / cumulative-ACK behavior.
      if (rcv_wscale_offer_ >= 0 && hdr.wscale >= 0) {
        snd_wscale_ = hdr.wscale;
        rcv_wscale_ = rcv_wscale_offer_;
      }
      sack_enabled_ = sack_offered_ && hdr.sack_permitted;
      if (hdr.mss != 0) {
        peer_mss_ = hdr.mss;
      }
      UpdateSendWindow(hdr);
      EnterState(TcpState::kEstablished);
      RaiseEvent(kEvtWritable);  // connect completed: the socket can send now
      EmitSegment(kTcpAck, snd_nxt_);
      Output();
    }
    return;
  }
  if (state_ == TcpState::kSynRcvd) {
    if ((hdr.flags & kTcpAck) != 0 && hdr.ack == snd_nxt_) {
      snd_una_ = hdr.ack;
      UpdateSendWindow(hdr);
      EnterState(TcpState::kEstablished);
      stack_->NotifyAccepted(this);
      // Fall through: the ACK may carry data.
    } else {
      return;
    }
  }

  // --- ACK processing ---
  const bool send_was_full = send_space() == 0;
  if ((hdr.flags & kTcpAck) != 0) {
    // SACK scoreboard first: a dup ACK's blocks must be marked before the
    // fast-retransmit they trigger picks its hole.
    ApplySackBlocks(hdr);
    if (SeqLt(snd_una_, hdr.ack) && SeqLe(hdr.ack, snd_nxt_)) {
      // Cumulative ACK: release fully-covered segments back to the pool.
      // Sequence-range accounting per segment — the FIN's sequence slot
      // cannot skew a byte count here (the old deque arithmetic underflowed
      // once a FIN was in flight).
      std::uint32_t acked_bytes = hdr.ack - snd_una_;
      ReleaseAcked(hdr.ack);
      snd_una_ = hdr.ack;
      dup_ack_count_ = 0;
      OnAckProgress(acked_bytes, hdr.ack);
      if (send_was_full && send_space() > 0) {
        // Send-window reopen edge: a writer parked on a full send buffer
        // (Send() accepting 0) can make progress again.
        RaiseEvent(kEvtWritable);
      }
      // FIN fully acknowledged: advance teardown.
      if (fin_sent_ && snd_una_ == snd_nxt_) {
        if (state_ == TcpState::kFinWait1) {
          EnterState(TcpState::kFinWait2);
        } else if (state_ == TcpState::kLastAck) {
          EnterState(TcpState::kClosed);
          stack_->RemoveConnection(this);
        } else if (state_ == TcpState::kClosing) {
          EnterState(TcpState::kTimeWait);
          time_wait_polls_left_ = stack_->time_wait_poll_budget;
        }
      }
    } else if (hdr.ack == snd_una_ && SeqLt(snd_una_, snd_nxt_) && payload.empty()) {
      OnDupAck();
    }
    UpdateSendWindow(hdr);
  }

  // --- payload ---
  const bool was_readable = readable();
  if (!payload.empty()) {
    if (hdr.seq == rcv_nxt_) {
      std::size_t space = RecvSpace();
      std::size_t n = payload.size() < space ? payload.size() : space;
      AppendRecv(payload.first(n));
      rcv_nxt_ += static_cast<std::uint32_t>(n);
      bool filled_hole = false;
      if (!ooo_ranges_.empty()) {
        std::size_t before = ooo_ranges_.size();
        DrainOutOfOrder();
        filled_hole = ooo_ranges_.size() != before;
      }
      if (filled_hole || n < payload.size()) {
        // A repaired hole (RFC 5681: ACK immediately so recovery sees the
        // jump) or a full receive buffer (the cut tail will be
        // retransmitted; tell the peer the window now) must not wait.
        AckNow();
      } else {
        NoteAckOwed(n);
      }
    } else if (SeqLt(hdr.seq, rcv_nxt_)) {
      // Old retransmission; re-ACK immediately so the peer advances.
      AckNow();
    } else {
      // Above-window sequence: queue for reassembly (modern) and answer
      // with an immediate dup ACK whose SACK blocks name the ranges held —
      // the sender's fast retransmit re-bursts only the hole.
      if (!stack_->tcp_modern || !QueueOutOfOrder(hdr.seq, payload)) {
        ++tcp_stats_.out_of_order_dropped;
      }
      AckNow();
    }
  }

  // --- FIN ---
  if ((hdr.flags & kTcpFin) != 0 && hdr.seq == rcv_nxt_) {
    rcv_nxt_ += 1;
    fin_received_ = true;
    // Orderly-shutdown edge. Data already queued stays readable: consumers
    // drain it first and only then observe the EOF (Recv() returning 0).
    RaiseEvent(kEvtHup);
    if (state_ == TcpState::kEstablished) {
      EnterState(TcpState::kCloseWait);
    } else if (state_ == TcpState::kFinWait1) {
      EnterState(TcpState::kClosing);
    } else if (state_ == TcpState::kFinWait2) {
      // Linger in TIME_WAIT (2MSL-equivalent Poll budget) so a retransmitted
      // FIN — the peer never saw our final ACK — still finds the connection
      // and gets a fresh ACK instead of a RST.
      EnterState(TcpState::kTimeWait);
      time_wait_polls_left_ = stack_->time_wait_poll_budget;
      if (!was_readable && readable()) {
        RaiseEvent(kEvtReadable);
      }
      AckNow();
      return;
    }
    AckNow();  // a FIN is never delay-ACKed
  } else if ((hdr.flags & kTcpFin) != 0 && SeqLt(hdr.seq, rcv_nxt_)) {
    // Retransmitted FIN: our final ACK was lost. Re-ACK, and restart the
    // TIME_WAIT linger so the re-ACK itself gets the same grace period.
    if (state_ == TcpState::kTimeWait) {
      time_wait_polls_left_ = stack_->time_wait_poll_budget;
    }
    AckNow();
  }

  if (!was_readable && readable()) {
    RaiseEvent(kEvtReadable);  // empty -> readable (data or EOF) transition
  }
  Output();
}

}  // namespace uknet
