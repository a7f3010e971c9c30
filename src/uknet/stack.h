// uknet/stack.h - the network stack (lwIP's role in the paper's stack).
//
// A deliberately small but real TCP/IP implementation: ARP resolution with a
// pending-packet queue, IPv4 with header checksums, ICMP echo, UDP sockets,
// and TCP with the full connect/accept handshake, cumulative ACKs, flow
// control from the peer's advertised window, retransmission on timeout and
// on triple duplicate ACKs, and graceful FIN teardown. Everything is polled
// (run-to-completion): NetStack::Poll() pumps interfaces and timers once,
// which is exactly how a single-core unikernel event loop drives lwIP.
//
// Stack metadata lives in host memory; packet buffers come from the netbuf
// pools in guest RAM, so the data path stays device-addressable end to end.
#ifndef UKNET_STACK_H_
#define UKNET_STACK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "ukalloc/allocator.h"
#include "ukarch/counters.h"
#include "ukarch/status.h"
#include "uklock/rcu.h"
#include "uknet/wire_format.h"
#include "uknetdev/netdev.h"
#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "uksched/scheduler.h"

namespace uknet {

class NetStack;

// Widest per-queue counter tracking the stack supports. Queues beyond this
// (no device here advertises close to it) share the last slot; the arrays are
// fixed-size so foreign-loop publishers never race a resize.
inline constexpr std::size_t kMaxQueueSlots = 16;
inline std::uint16_t QueueSlot(std::uint16_t queue) {
  return queue < kMaxQueueSlots ? queue
                                : static_cast<std::uint16_t>(kMaxQueueSlots - 1);
}

// ---- readiness events --------------------------------------------------------------
//
// One notification contract for the whole tree: sockets raise *edges* from
// the paths where state actually changes (demux pushes, ACKs that reopen the
// send buffer, FIN/RST teardown, accept-queue pushes), and consumers derive
// *level-triggered* readiness from the edge plus current socket state. The
// posix poll/epoll layer builds its interest lists on these sinks; the apps'
// event loop multiplexes many connections from one PollWait sleep on top.

using EventMask = std::uint32_t;
inline constexpr EventMask kEvtReadable = 1u << 0;    // data (or EOF) to read
inline constexpr EventMask kEvtWritable = 1u << 1;    // send buffer reopened
inline constexpr EventMask kEvtAcceptable = 1u << 2;  // accept queue non-empty
inline constexpr EventMask kEvtHup = 1u << 3;         // peer FIN received
inline constexpr EventMask kEvtErr = 1u << 4;         // reset / hard failure

// Edge sink registered per socket (SetEventSink). Raised from inside stack
// dispatch, so implementations must do wakeup-grade work only: record the
// edge and return — no socket calls back into the stack, no blocking.
// |token| is the opaque cookie the subscriber registered (posix uses the fd).
class SocketEventSink {
 public:
  virtual ~SocketEventSink() = default;
  virtual void OnSocketEvent(std::uint64_t token, EventMask events) = 0;
};

// Shared edge-source state every socket kind inherits: one registered sink,
// one opaque token, one Raise path (deliver to the sink, then bump the
// stack's event sequence so PollWait sleepers rescan). A socket with no sink
// costs nothing and perturbs no wakeup accounting.
class SocketEventSource {
 public:
  // Registers the readiness-edge sink (one per socket; nullptr detaches).
  void SetEventSink(SocketEventSink* sink, std::uint64_t token = 0) {
    sink_ = sink;
    sink_token_ = token;
  }

 protected:
  void Raise(NetStack* stack, EventMask events);  // defined in stack.cpp

 private:
  SocketEventSink* sink_ = nullptr;
  std::uint64_t sink_token_ = 0;
};

class NetIf {
 public:
  struct Config {
    Ip4Addr ip = 0;
    Ip4Addr netmask = 0xffffff00;
    Ip4Addr gateway = 0;
    // TOTAL pool budgets; split evenly across the configured queues so each
    // queue owns a private pool and no lock is needed on the hot path.
    std::uint32_t tx_pool_bufs = 256;
    std::uint32_t rx_pool_bufs = 256;
    std::uint32_t buf_size = 2048;
    // Desired RX/TX queue pairs; clamped to what the device advertises.
    std::uint16_t queues = 1;
  };

  NetIf(NetStack* stack, uknetdev::NetDev* dev, ukplat::MemRegion* mem,
        ukalloc::Allocator* alloc, Config config);
  ~NetIf();

  // Configures queues and pools and starts the device.
  ukarch::Status Init();

  Ip4Addr ip() const { return config_.ip; }
  uknetdev::MacAddr mac() const { return dev_->mac(); }
  uknetdev::NetDev* dev() { return dev_; }
  std::uint16_t queue_count() const { return nb_queues_; }
  // Pool introspection for tests and benches (zero-alloc assertions).
  const uknetdev::NetBufPool* tx_pool(std::uint16_t queue = 0) const {
    return queue < tx_pools_.size() ? tx_pools_[queue].get() : nullptr;
  }
  const uknetdev::NetBufPool* rx_pool(std::uint16_t queue = 0) const {
    return queue < rx_pools_.size() ? rx_pools_[queue].get() : nullptr;
  }

  // The TX queue a flow steers to: the symmetric RSS hash of the 4-tuple,
  // identical to the classification the device applies on RX — so the queue
  // that carries a flow's requests also carries its replies.
  std::uint16_t TxQueueFor(Ip4Addr remote_ip, std::uint16_t local_port,
                           std::uint16_t remote_port) const;

  // Processes one RX burst per queue (all queues). Returns packets handled.
  std::size_t Poll();
  // Processes up to one RX burst on a single queue: pulls the burst array off
  // the device, then classifies and dispatches every frame. Independent app
  // loops pump disjoint queues through this entry point; each loop touches
  // only its queue's rings and pools.
  std::size_t Poll(std::uint16_t queue);

  // ---- interrupt-driven idle ----------------------------------------------
  // Per-queue wait plumbing used by NetStack::PollWait: Arm/Disarm toggle the
  // device's RX interrupt line (out-of-range queues are ignored — a stack may
  // hold interfaces with different queue counts), and the interrupt handler
  // registered at Init wakes the stack's per-queue waiters. rx_wakeups(q)
  // counts handler fires: with storm avoidance it stays O(1) per burst.
  void ArmRx(std::uint16_t queue);
  void DisarmRx(std::uint16_t queue);
  std::uint64_t rx_wakeups(std::uint16_t queue = 0) const {
    return rx_wakeups_[QueueSlot(queue)].load(std::memory_order_relaxed);
  }

  // ---- zero-copy TX --------------------------------------------------------
  // The TX convention: a protocol layer allocates a netbuf whose headroom
  // reserves every header below it (device + Ethernet + IP + its own),
  // appends the application payload, prepends its own header in place, and
  // hands the buffer down. Each lower layer prepends its header into the
  // remaining headroom — the frame that reaches TxBurst was never copied.

  // Allocates a TX netbuf from |queue|'s pool, reserving device+Ethernet+IP
  // headroom plus |l4_header_bytes| for the caller's own header. nullptr when
  // the pool is dry (caller backs off; TCP retransmission or the app retries).
  uknetdev::NetBuf* AllocTxBuf(std::uint32_t l4_header_bytes = 0,
                               std::uint16_t queue = 0);
  // Returns an unsent TX netbuf to its pool.
  void FreeTxBuf(uknetdev::NetBuf* nb);

  // Zero-copy IPv4 send on |queue|: |nb| holds the L4 payload (with any L4
  // header already prepended in place); the IP and Ethernet headers are
  // prepended into its headroom here. Ownership always passes to the
  // interface: on ARP miss the buffer parks behind the resolution (with its
  // queue), on failure it is freed.
  bool SendIpBuf(Ip4Addr dst, std::uint8_t proto, uknetdev::NetBuf* nb,
                 std::uint16_t queue = 0);
  // Zero-copy Ethernet send: prepends the Ethernet header in place and
  // bursts the buffer to the device on |queue|. Takes ownership of |nb|.
  bool SendEthBuf(uknetdev::MacAddr dst, std::uint16_t ethertype,
                  uknetdev::NetBuf* nb, std::uint16_t queue = 0);
  // Batch TX: prepends Ethernet headers for all |cnt| buffers to the same
  // next hop and enqueues them in a single TxBurst on |queue|. Returns
  // packets queued; unsent buffers are freed. Takes ownership of the array.
  std::uint16_t SendEthBatch(uknetdev::MacAddr dst, std::uint16_t ethertype,
                             uknetdev::NetBuf** pkts, std::uint16_t cnt,
                             std::uint16_t queue = 0);
  // Batch IPv4 send to ONE destination: prepends each buffer's IP header in
  // place, resolves the next hop once, and hands the whole batch to a single
  // TxBurst (the UDP reply-flood path: N replies, one device doorbell).
  // Takes ownership of all |cnt| buffers. Returns packets accepted (sent or,
  // on an unresolved next hop, parked behind the ARP request); the rest are
  // freed.
  std::uint16_t SendIpBatch(Ip4Addr dst, std::uint8_t proto,
                            uknetdev::NetBuf** pkts, std::uint16_t cnt,
                            std::uint16_t queue = 0);

  // Copying compatibility shim over SendIpBuf for payloads that only exist
  // as a contiguous span (ICMP echo bodies, tests).
  bool SendIp(Ip4Addr dst, std::uint8_t proto, std::span<const std::uint8_t> payload,
              std::uint16_t queue = 0);

  void AddArpEntry(Ip4Addr ip, uknetdev::MacAddr mac) { arp_cache_[ip] = mac; }
  bool RouteMatches(Ip4Addr dst) const {
    return (dst & config_.netmask) == (config_.ip & config_.netmask);
  }

  // Snapshot type: if_stats() returns it BY VALUE so per-queue loops can bump
  // the live counters (one shared ukarch::Counters block) while a reader
  // aggregates.
  struct IfStats {
    std::uint64_t arp_requests = 0;
    std::uint64_t arp_replies = 0;
    std::uint64_t ip_rx = 0;
    std::uint64_t ip_tx = 0;
    std::uint64_t rx_checksum_drops = 0;
    std::uint64_t pending_dropped = 0;
  };
  IfStats if_stats() const { return if_stats_.Load(); }

 private:
  friend class NetStack;

  // Batch dispatch: classifies and handles |cnt| received buffers (all from
  // RX |queue|); frees each unless an upper layer retained it (UDP zero-copy
  // delivery).
  std::size_t ProcessRxBurst(std::uint16_t queue, uknetdev::NetBuf** pkts,
                             std::uint16_t cnt);
  // Returns true when the netbuf ownership moved to an upper layer.
  bool HandleFrame(std::uint16_t queue, uknetdev::NetBuf* nb,
                   std::span<const std::uint8_t> frame);
  void HandleArp(std::uint16_t queue, std::span<const std::uint8_t> body);
  bool HandleIp(std::uint16_t queue, uknetdev::NetBuf* nb,
                std::span<const std::uint8_t> body);
  void SendArpRequest(Ip4Addr target, std::uint16_t queue);
  // RX interrupt handler (installed as the device's RxQueueConf::intr_handler
  // at Init): counts the fire and wakes the stack's waiters for |queue|.
  void OnRxInterrupt(std::uint16_t queue);
  Ip4Addr NextHop(Ip4Addr dst) const {
    return RouteMatches(dst) || config_.gateway == 0 ? dst : config_.gateway;
  }

  NetStack* stack_;
  uknetdev::NetDev* dev_;
  ukplat::MemRegion* mem_;
  ukalloc::Allocator* alloc_;
  Config config_;
  std::uint32_t dev_tx_headroom_ = 0;  // cached from DevInfo at Init
  std::uint16_t nb_queues_ = 1;        // clamped to the device maximum at Init
  std::vector<std::unique_ptr<uknetdev::NetBufPool>> tx_pools_;
  std::vector<std::unique_ptr<uknetdev::NetBufPool>> rx_pools_;
  std::map<Ip4Addr, uknetdev::MacAddr> arp_cache_;
  // Netbufs parked behind unresolved ARP: next-hop ip -> IP packets whose
  // IP header is already built; only the Ethernet header is missing. The
  // buffers themselves wait — no serialized copies — and remember the TX
  // queue their flow steers to, so the flush preserves queue affinity.
  struct PendingTx {
    uknetdev::NetBuf* nb = nullptr;
    std::uint16_t queue = 0;
  };
  std::map<Ip4Addr, std::vector<PendingTx>> arp_pending_;
  // Live counters, shared by every queue's loop.
  ukarch::Counters<IfStats> if_stats_;
  // Interrupt fires, one slot per queue: the handler may run on a foreign
  // loop (device backend) while the owning loop reads its own slot.
  std::array<std::atomic<std::uint64_t>, kMaxQueueSlots> rx_wakeups_{};
};

// ---- UDP -----------------------------------------------------------------------

struct Datagram {
  Ip4Addr src_ip = 0;
  std::uint16_t src_port = 0;
  std::vector<std::uint8_t> payload;
};

// Zero-copy received datagram: a view into the driver's netbuf, whose
// ownership moved from the RX ring to the socket queue. The payload bytes
// live in guest RAM until the view is released back to the pool. When the
// RX pool runs low (slow consumer), delivery falls back to copying into
// |owned| and freeing the netbuf immediately so a parked socket queue can
// never starve the RX ring for the rest of the interface.
struct DatagramView {
  Ip4Addr src_ip = 0;
  std::uint16_t src_port = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  uknetdev::NetBuf* nb = nullptr;  // backing buffer; nullptr when copied
  std::vector<std::uint8_t> owned;  // copy fallback storage
  std::uint16_t rx_queue = 0;       // device queue the datagram arrived on
};

class UdpSocket : public SocketEventSource {
 public:
  ~UdpSocket();

  ukarch::Status Bind(std::uint16_t port);
  std::uint16_t local_port() const { return port_; }

  // Non-blocking. SendTo returns bytes sent or negative errno. The payload
  // is written straight into a device netbuf; UDP/IP/Ethernet headers are
  // prepended in place around it (no intermediate datagram buffer).
  std::int64_t SendTo(Ip4Addr dst, std::uint16_t dst_port,
                      std::span<const std::uint8_t> payload);

  // Batched send to one destination: builds one netbuf per payload and hands
  // the lot to NetIf::SendIpBatch — one TxBurst for the whole reply flood.
  // Returns datagrams accepted (stops early when the TX pool runs dry).
  struct DatagramVec {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };
  std::int64_t SendToBatch(Ip4Addr dst, std::uint16_t dst_port,
                           std::span<const DatagramVec> msgs);

  // Zero-allocation receive: copies the payload straight from the netbuf
  // into |out| and releases the buffer. Bytes copied, or -EAGAIN when empty.
  // |rx_queue| (optional) reports the device queue the datagram arrived on,
  // so sharded consumers can verify/route flow affinity.
  std::int64_t RecvInto(std::span<std::uint8_t> out, Ip4Addr* src_ip = nullptr,
                        std::uint16_t* src_port = nullptr,
                        std::uint16_t* rx_queue = nullptr);
  // Zero-copy batch receive: borrow views of up to |max| queued datagrams
  // without copying. The views stay valid until ReleaseFront.
  std::size_t PeekBatch(const DatagramView** out, std::size_t max) const;
  // Releases the first |n| queued datagrams (returns netbufs to their pool).
  void ReleaseFront(std::size_t n);

  // Copying convenience wrapper (tests, simple apps).
  std::optional<Datagram> RecvFrom();
  bool readable() const { return !rx_.empty(); }
  std::size_t queued() const { return rx_.size(); }
  // Device queue of the most recently delivered datagram (flow affinity).
  std::uint16_t last_rx_queue() const { return last_rx_queue_; }

 private:
  friend class NetStack;
  explicit UdpSocket(NetStack* stack) : stack_(stack) {}
  void RaiseEvent(EventMask events) { Raise(stack_, events); }

  NetStack* stack_;
  std::uint16_t port_ = 0;
  bool explicitly_bound_ = false;
  std::deque<DatagramView> rx_;
  std::uint16_t last_rx_queue_ = 0;
  static constexpr std::size_t kMaxQueue = 1024;
};

// ---- TCP -----------------------------------------------------------------------

enum class TcpState {
  kClosed, kListen, kSynSent, kSynRcvd, kEstablished,
  kFinWait1, kFinWait2, kCloseWait, kLastAck, kClosing, kTimeWait,
};

// One queued TX segment: |nb| holds the payload bytes for [seq, seq+len) at
// a recorded headroom. The retransmission queue owns one reference to |nb|
// for the segment's whole lifetime (until cumulatively ACKed); every
// (re)transmission restores the payload view, prepends fresh TCP/IP/Ethernet
// headers into the same headroom, takes an extra reference, and bursts the
// buffer — the payload bytes are written exactly once, in Send().
struct TcpTxSegment {
  std::uint32_t seq = 0;               // first sequence number of the payload
  std::uint32_t len = 0;               // payload bytes
  std::uint32_t payload_headroom = 0;  // nb->headroom at which the payload starts
  uknetdev::NetBuf* nb = nullptr;      // retained buffer (one queue reference)
  // SACK scoreboard bit: the peer reported this whole segment received.
  // Retransmission passes skip sacked segments; a cumulative ACK still owns
  // the release. Cleared only with the segment (RFC 2018 reneging is not
  // modeled on this wire).
  bool sacked = false;
};

class TcpSocket : public SocketEventSource {
 public:
  ~TcpSocket();

  TcpState state() const { return state_; }
  Ip4Addr remote_ip() const { return remote_ip_; }
  std::uint16_t remote_port() const { return remote_port_; }
  std::uint16_t local_port() const { return local_port_; }
  // Queue affinity: every segment of this flow is sent on tx_queue_ (RSS of
  // the 4-tuple) and — because the device runs the same hash — arrives on the
  // matching RX queue. last_rx_queue() lets tests assert that property.
  std::uint16_t tx_queue() const { return tx_queue_; }
  std::uint16_t last_rx_queue() const { return last_rx_queue_; }

  // Buffered, non-blocking send: returns bytes accepted (0 when the send
  // buffer is full) or negative errno when the connection cannot send.
  std::int64_t Send(std::span<const std::uint8_t> data);
  // Non-blocking receive: bytes read, -EAGAIN when empty, 0 once the peer
  // closed and all data was drained.
  std::int64_t Recv(std::span<std::uint8_t> out);

  bool readable() const { return RecvBuffered() > 0 || fin_received_; }
  std::size_t send_space() const { return send_cap_ - send_buffered_; }
  bool connected() const { return state_ == TcpState::kEstablished; }
  bool failed() const { return reset_; }
  // Peer sent its FIN (the level behind kEvtHup). Queued data stays readable;
  // Recv returns 0 only once it is drained.
  bool peer_closed() const { return fin_received_; }

  // Edges raised to the registered sink: kEvtReadable when the receive
  // buffer turns non-empty (or EOF arrives), kEvtWritable when an ACK
  // reopens a full send buffer or the handshake completes, kEvtHup on the
  // peer's FIN, kEvtErr on RST.

  // Graceful close (FIN). Data already in the send buffer is flushed first.
  void Close();

  struct TcpStats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t retransmissions = 0;  // recovery events (RTO fires + fast rexmits)
    std::uint64_t dup_acks = 0;
    std::uint64_t out_of_order_dropped = 0;
    // Fast-path accounting: data vs pure-ACK frames on the wire (the
    // delayed-ACK win shows up as pure_acks_sent falling while
    // data_segments_sent holds), plus per-mechanism recovery counters.
    std::uint64_t data_segments_sent = 0;
    std::uint64_t pure_acks_sent = 0;
    std::uint64_t acks_coalesced = 0;       // ACK-owing arrivals folded away
    std::uint64_t fast_retransmits = 0;     // 3-dup-ACK entries into recovery
    std::uint64_t rto_retransmits = 0;      // RTO timer fires
    std::uint64_t sack_rexmit_segments = 0; // data segments skipped as SACKed
    std::uint64_t ooo_queued = 0;           // out-of-order segments buffered
    std::uint64_t tlp_probes = 0;           // tail-loss probes sent
    // Retransmissions that could NOT reuse the retained netbuf (snd_una_
    // landed mid-segment, so the suffix copies into a fresh buffer). The
    // loss bench gates this at zero: recovery must run on retained buffers.
    std::uint64_t rexmit_copy_allocs = 0;
  };
  const TcpStats& tcp_stats() const { return tcp_stats_; }

  // Congestion-state introspection (loss tests assert trajectories).
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  std::uint32_t in_flight() const { return snd_nxt_ - snd_una_; }
  bool in_fast_recovery() const { return in_fast_recovery_; }
  // Effective peer window after the negotiated scale shift.
  std::uint32_t send_window() const { return snd_wnd_; }
  bool sack_enabled() const { return sack_enabled_; }
  int send_wscale() const { return snd_wscale_; }
  int recv_wscale() const { return rcv_wscale_; }

  // Per-socket buffer caps (default kSendBufCap/kRecvBufCap). Raising the
  // receive cap before connect/listen is what makes window scaling matter:
  // the wscale shift offered at SYN is computed from recv_cap so the scaled
  // advertised window can expose the whole buffer. A listener's caps
  // (TcpListener::SetBufferCaps) are inherited by accepted sockets. Caps are
  // clamped to >= 2*kMss; shrinking below queued data is not supported.
  void SetBufferCaps(std::size_t send_cap, std::size_t recv_cap);
  std::size_t send_cap() const { return send_cap_; }
  std::size_t recv_cap() const { return recv_cap_; }
  // Bytes of receive-buffer storage held; it only grows, so a flat value
  // across a workload means receiving allocated nothing.
  std::size_t recv_buffer_capacity() const { return recv_buf_.capacity(); }

  static constexpr std::size_t kSendBufCap = 64 * 1024;
  static constexpr std::size_t kRecvBufCap = 64 * 1024;
  static constexpr std::uint32_t kMss = 1400;

 private:
  friend class NetStack;
  TcpSocket(NetStack* stack, NetIf* netif) : stack_(stack), netif_(netif) {}
  void RaiseEvent(EventMask events) { Raise(stack_, events); }

  void OnSegment(std::uint16_t rx_queue, const TcpHeader& hdr,
                 std::span<const std::uint8_t> payload);
  void Output();            // transmit what window + cwnd + buffer allow
  void CheckTimer();        // RTO-based retransmission + read/deadline ACK flush
  // Re-sends the retained ranges overlapping [snd_una_, snd_nxt_) — the
  // whole window (go-back-N RTO) or just the first unacked segment (fast
  // retransmit). SACKed segments are skipped in both modes: the scoreboard
  // turns the full-window re-burst into a holes-only re-burst. Returns
  // whether any data segment went out.
  bool RetransmitWindow(bool first_unacked_only);
  // Control segment (ACK/FIN/window update): header only, no payload. ACKs
  // carry the receiver's current SACK blocks when the peer negotiated SACK.
  void EmitSegment(std::uint8_t flags, std::uint32_t seq);
  // Satellite of the wscale work: every path that learns the peer's window
  // funnels through here, so the scale shift applies in exactly one place.
  // SYN/SYN|ACK windows are never scaled (RFC 7323).
  void UpdateSendWindow(const TcpHeader& hdr);
  // NewReno ACK-clocking: grows cwnd in slow start / congestion avoidance,
  // enters and exits fast recovery, handles NewReno partial ACKs.
  void OnAckProgress(std::uint32_t acked_bytes, std::uint32_t ack);
  void OnDupAck();
  // Marks retained segments covered by the ACK's SACK blocks.
  void ApplySackBlocks(const TcpHeader& hdr);
  // Receive-side reassembly: queues an out-of-order payload (bounded), or
  // drains contiguous ranges into recv_buf_ once the hole fills.
  bool QueueOutOfOrder(std::uint32_t seq, std::span<const std::uint8_t> payload);
  void DrainOutOfOrder();
  // Callers have charged |bytes| against RecvSpace already.
  void AppendRecv(std::span<const std::uint8_t> bytes);
  std::size_t RecvBuffered() const { return recv_buf_.size() - recv_head_; }
  // Delayed-ACK machinery: NoteAckOwed records that rcv_nxt_ advanced
  // (flushing immediately past the 2*MSS coalescing budget or when the
  // window falls below one MSS); AckNow emits a pure ACK and clears the owed
  // state; FlushDelayedAck is the unconditional flush PollWait runs before
  // it parks.
  void NoteAckOwed(std::size_t payload_bytes);
  void AckNow();
  void FlushDelayedAck();
  // (Re)transmits |take| payload bytes of a retained segment starting at
  // sequence |from| (SeqLe(seg.seq, from), from+take within the segment).
  // Segment-aligned sends (from == seg.seq — every first transmission and
  // boundary-aligned retransmit) restore the netbuf's payload view, prepend
  // the TCP header in place, ref the buffer and re-burst it: zero payload
  // copies. Mid-segment suffix sends would prepend headers over the
  // segment's own earlier payload bytes, so they copy into a fresh buffer.
  void EmitRetained(TcpTxSegment& seg, std::uint32_t from, std::uint32_t take,
                    std::uint8_t flags, bool retransmit = false);
  // Sequence number one past the last byte queued for transmission.
  std::uint32_t DataEnd() const {
    return retx_queue_.empty() ? snd_una_
                               : retx_queue_.back().seq + retx_queue_.back().len;
  }
  // Releases fully-acked segments from the front of the retransmission queue.
  void ReleaseAcked(std::uint32_t ack);
  // Releases every retained segment (teardown). ~NetStack calls this for the
  // sockets it still tracks so that app-held socket handles outliving the
  // stack never touch the (by then destroyed) NetIf pools in ~TcpSocket.
  void ReleaseAllSegments();
  // Raw receive window in bytes (free buffer space).
  std::size_t RecvSpace() const {
    std::size_t used = RecvBuffered() + ooo_buffered_;
    return used < recv_cap_ ? recv_cap_ - used : 0;
  }
  // The 16-bit window field for a non-SYN segment: space >> rcv_wscale_,
  // saturated. With no scale negotiated this is the classic 64KB clamp.
  std::uint16_t AdvertisedWindow() const {
    std::size_t wnd = RecvSpace() >> rcv_wscale_;
    return static_cast<std::uint16_t>(wnd > 0xffff ? 0xffff : wnd);
  }
  void EnterState(TcpState s) { state_ = s; }

  NetStack* stack_;
  NetIf* netif_;
  TcpState state_ = TcpState::kClosed;
  Ip4Addr remote_ip_ = 0;
  std::uint16_t remote_port_ = 0;
  std::uint16_t local_port_ = 0;
  std::uint16_t tx_queue_ = 0;       // RSS flow queue, fixed at connect/accept
  std::uint16_t last_rx_queue_ = 0;  // queue the last segment arrived on

  // Send side: the retransmission queue holds retained netbufs covering
  // [snd_una_, DataEnd()); bytes in [snd_una_, snd_nxt_) are in flight,
  // [snd_nxt_, DataEnd()) are queued but unsent. Per-segment sequence
  // accounting replaces deque offset arithmetic, so the FIN's extra sequence
  // slot can never underflow a buffer index.
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;  // peer window, already scaled (UpdateSendWindow)
  std::deque<TcpTxSegment> retx_queue_;
  std::size_t send_buffered_ = 0;  // payload bytes across retx_queue_
  bool fin_queued_ = false;
  bool fin_sent_ = false;

  // ---- congestion control (NewReno) ----------------------------------------
  // Byte-denominated cwnd/ssthresh, RFC 5681/6582. Slow start while
  // cwnd < ssthresh (cwnd += min(acked, MSS) per ACK), congestion avoidance
  // above it (cwnd += MSS*MSS/cwnd per ACK). Fast recovery inflates cwnd by
  // one MSS per dup ACK and deflates to ssthresh when |recover_| is fully
  // ACKed; partial ACKs retransmit the next hole without leaving recovery.
  // Legacy mode (NetStack::tcp_modern == false) pins cwnd wide open so the
  // pre-modern stop-and-go behavior stays available as a bench baseline.
  std::uint32_t cwnd_ = 10 * kMss;        // IW10
  std::uint32_t ssthresh_ = 0x7fffffff;   // "infinite" until first loss
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;             // snd_nxt_ at recovery entry
  std::uint32_t rto_backoff_ = 1;         // RTO multiplier, doubles per fire
  // One tail-loss probe per stall (CheckTimer, at rto_cycles/4): re-sends the
  // highest outstanding segment so a tail loss raises a SACK reply instead of
  // sitting out the RTO. Re-armed by forward ACK progress.
  bool tlp_probe_sent_ = false;

  // ---- negotiated options --------------------------------------------------
  bool sack_enabled_ = false;      // both sides sent SACK-permitted
  bool sack_offered_ = false;      // we sent SACK-permitted on our SYN
  int snd_wscale_ = 0;             // shift applied to the peer's window field
  int rcv_wscale_ = 0;             // shift the peer applies to ours
  // The shift we offered on our SYN (-1 = none). rcv_wscale_ stays 0 until
  // the peer echoes the option — the SYN's own window must go out unscaled.
  std::int8_t rcv_wscale_offer_ = -1;
  std::uint32_t peer_mss_ = kMss;
  std::size_t send_cap_ = kSendBufCap;
  std::size_t recv_cap_ = kRecvBufCap;

  std::uint32_t rcv_nxt_ = 0;
  // Unread bytes are recv_buf_[recv_head_, size()). Recv rewinds to empty
  // once drained; an append that would outgrow the capacity first slides the
  // unread bytes to the front. Copy contract: DATAPATH.md, receive side.
  std::vector<std::uint8_t> recv_buf_;
  std::size_t recv_head_ = 0;
  // Out-of-order reassembly: disjoint, sorted ranges above rcv_nxt_ waiting
  // for the hole to fill. Bounded (kMaxOooRanges, and counted against
  // RecvSpace() via ooo_buffered_) so a hostile sender cannot balloon the
  // heap. Doubles as the source of the SACK blocks our ACKs advertise.
  struct OooRange {
    std::uint32_t seq = 0;
    std::vector<std::uint8_t> data;
  };
  static constexpr std::size_t kMaxOooRanges = 8;
  std::vector<OooRange> ooo_ranges_;
  std::size_t ooo_buffered_ = 0;  // payload bytes across ooo_ranges_
  // Sequence of the most recently received (or re-received) OOO segment: the
  // SACK span holding it leads the next ACK's blocks, RFC 2018 style.
  std::uint32_t last_ooo_seq_ = 0;
  bool fin_received_ = false;
  bool reset_ = false;

  // ---- delayed ACK ---------------------------------------------------------
  // ACK-owing state: set when rcv_nxt_ advances without an immediate ACK.
  // Paid by the first of: any segment we emit (it carries the current ack,
  // so a reply carries it), the 2*MSS budget (RFC 1122 "at least every
  // second segment"), the receive window falling below one MSS, the first
  // CheckTimer pass after the app has read every byte the ACK covers, a
  // PollWait about to park, and delack_deadline_ (folded into
  // NextTimerDeadline, so a loop blocked elsewhere still wakes to flush).
  bool delack_pending_ = false;
  std::size_t delack_bytes_ = 0;          // payload bytes since the last ACK
  std::uint64_t delack_deadline_ = 0;     // absolute cycles, valid when pending
  // Send() hit a dry TX pool: the socket could not buffer everything the app
  // offered even though send_space() remained. The pool-refill edge
  // (NetStack::OnTxPoolRefill) clears this and raises kEvtWritable so the
  // app's flush resumes on the buffer return instead of a busy retry.
  bool tx_pool_starved_ = false;

  // Retransmission-timer epoch: when the oldest outstanding, retransmittable
  // thing (data, SYN, FIN) was last put on the wire — restarted by data
  // transmission and by forward ACK progress, and NOT by pure-ACK emission.
  // Timing the RTO off "time since any send" looks equivalent on a quiet
  // connection, but under bidirectional traffic the ACKs a stalled endpoint
  // keeps sending for its peer's segments would push its own retransmission
  // deadline out forever.
  std::uint64_t rtx_epoch_cycles_ = 0;
  std::uint32_t dup_ack_count_ = 0;
  // Poll cycles left before a TIME_WAIT connection is reaped (2MSL stand-in).
  // While > 0 the connection stays registered so a retransmitted FIN (lost
  // final ACK) finds it and gets a fresh ACK instead of a RST.
  std::uint32_t time_wait_polls_left_ = 0;

  TcpStats tcp_stats_;
};

// The handshake-completion path raises kEvtAcceptable to the registered
// sink on every accept-queue push.
class TcpListener : public SocketEventSource {
 public:
  std::uint16_t port() const { return port_; }
  std::shared_ptr<TcpSocket> Accept();  // nullptr when queue empty
  std::size_t backlog() const { return accept_queue_.size(); }
  // Buffer caps inherited by every socket this listener accepts (the SYN|ACK
  // wscale offer is computed from recv_cap, so it must be set before the
  // handshake, i.e. here rather than on the accepted socket).
  void SetBufferCaps(std::size_t send_cap, std::size_t recv_cap) {
    accept_send_cap_ = send_cap;
    accept_recv_cap_ = recv_cap;
  }

 private:
  friend class NetStack;
  TcpListener(NetStack* stack, std::uint16_t port) : stack_(stack), port_(port) {}
  void RaiseEvent(EventMask events) { Raise(stack_, events); }
  NetStack* stack_;
  std::uint16_t port_;
  std::deque<std::shared_ptr<TcpSocket>> accept_queue_;
  std::size_t accept_send_cap_ = TcpSocket::kSendBufCap;
  std::size_t accept_recv_cap_ = TcpSocket::kRecvBufCap;
};

// ---- the stack --------------------------------------------------------------------

class NetStack {
 public:
  NetStack(ukplat::MemRegion* mem, ukplat::Clock* clock, ukalloc::Allocator* alloc)
      : mem_(mem), clock_(clock), alloc_(alloc) {}
  ~NetStack();

  // Interfaces.
  NetIf* AddInterface(uknetdev::NetDev* dev, NetIf::Config config);
  NetIf* RouteTo(Ip4Addr dst);

  // Sockets.
  std::shared_ptr<UdpSocket> UdpOpen();
  std::shared_ptr<TcpListener> TcpListen(std::uint16_t port);
  std::shared_ptr<TcpSocket> TcpConnect(Ip4Addr dst, std::uint16_t port);

  // ICMP echo client: sends a ping; replies are counted.
  bool Ping(Ip4Addr dst, std::uint16_t seq);
  std::uint64_t pings_answered() const {
    return pings_answered_.load(std::memory_order_relaxed);
  }

  // One pump: interface RX, TCP timers. Call in the application loop.
  void Poll();

  // ---- interrupt-driven idle (§3.3 scheduler integration) -----------------
  // Sentinels: PollWait(kAllQueues) waits for traffic on any queue of any
  // interface; kNoDeadline means no caller-imposed timeout.
  static constexpr std::uint16_t kAllQueues = 0xffff;
  static constexpr std::uint64_t kNoDeadline = ~0ull;

  // Attaches the scheduler whose threads may block in PollWait. Must be set
  // (and the caller must be on a scheduler thread) for PollWait to actually
  // block; otherwise PollWait degrades to one Poll-equivalent pass.
  void SetScheduler(uksched::Scheduler* sched);
  uksched::Scheduler* scheduler() const { return sched_; }
  bool CanBlock() const {
    return sched_ != nullptr && sched_->current() != nullptr;
  }

  // Blocking pump: drains |queue| (or every queue) plus TCP timers; if that
  // finds nothing, arms the RX interrupts, drains once more to close the
  // arm/arrival race, and blocks the calling uksched::Thread on the per-queue
  // WaitQueue until a frame interrupt or a deadline — the earliest of the
  // caller's |timeout_cycles| (relative) and the next TCP timer (RTO of any
  // connection with data in flight, TIME_WAIT reaping) — wakes it. Returns
  // the number of frames handled; 0 after a deadline wake (whose timer pass,
  // e.g. an RTO retransmission, has already run). Interrupts are disarmed on
  // return: they are live only while a PollWait sleeps.
  std::size_t PollWait(std::uint16_t queue = kAllQueues,
                       std::uint64_t timeout_cycles = kNoDeadline);
  // Earliest absolute cycle at which a TCP timer needs service, or
  // kNoDeadline when no connection is waiting on time.
  std::uint64_t NextTimerDeadline() const;

  // ---- readiness-event fan-in ---------------------------------------------
  // Called by every socket RaiseEvent once a registered sink consumed the
  // edge: bumps the stack-wide event sequence and wakes ALL PollWait
  // sleepers. A waiter that finds the sequence advanced across its sleep
  // returns (frames or not) so its caller can rescan readiness — that is
  // what makes PollWait wake on *pending socket events*, not only on frames
  // landing on its own queue. Sockets without sinks never reach this path,
  // so pure frame-driven waiters keep their exact wakeup counts.
  void NotifySocketEvent();

  // Per-queue doorbell for non-frame work (SPSC ring messages, steered fds):
  // bumps |queue|'s soft-event sequence and wakes exactly ONE sleeper of that
  // queue (WakeOne — one message has one consumer; waking the whole herd
  // would cost every other loop a spurious drain) plus one kAllQueues waiter.
  // Same arm-then-check contract as frames: the raise only ends waits entered
  // before it, so producers must push the work *before* ringing and consumers
  // must check their rings before calling PollWait. A PollWait(queue) sleeper
  // returns (possibly with 0 frames) when the sequence advanced across its
  // sleep so its caller can drain the ring.
  void RaiseQueueEvent(std::uint16_t queue);

  // TX-pool refill edge (NetBufPool::SetRefillCallback, registered per queue
  // by NetIf::Init): |netif|'s queue |queue| TX pool went dry under demand and
  // just regained a buffer. Raises kEvtWritable on every connection starved
  // on that pool and rings the queue's doorbell, so writable-interested loops
  // sleep through pool exhaustion instead of taking busy turns.
  void OnTxPoolRefill(NetIf* netif, std::uint16_t queue);

  // Snapshot type. The live counters are PER-LOOP: each PollWait(queue) bumps
  // its own queue's ukarch::CounterSlots block (PollWait(kAllQueues) has one
  // extra slot), so sharded loops never bounce a counter line.
  // wait_stats() sums the slots into a snapshot at read time;
  // wait_stats(queue) slices out one loop's view.
  struct WaitStats {
    std::uint64_t poll_iterations = 0;  // drain passes PollWait executed
    std::uint64_t blocked_waits = 0;    // times a caller actually slept
    std::uint64_t frame_wakeups = 0;    // woken by an RX interrupt
    std::uint64_t timer_wakeups = 0;    // woken by RTO/timeout deadline
    std::uint64_t queue_event_wakeups = 0;  // ended by RaiseQueueEvent
  };
  WaitStats wait_stats() const { return waits_.Sum(); }
  WaitStats wait_stats(std::uint16_t queue) const {
    return waits_.Load(PollSlot(queue));
  }

  ukplat::Clock* clock() { return clock_; }
  ukplat::MemRegion* mem() { return mem_; }

  // RCU introspection (tests): registered TCP connections in the current
  // published snapshot, and retired registry versions still awaiting a grace
  // period.
  std::size_t tcp_conn_count() const { return tcp_conns_.size(); }
  std::size_t rcu_pending() const { return rcu_.pending(); }

  // Retransmission timeout, virtual time. Exposed for loss tests. The
  // effective per-connection timeout is rto_cycles * the connection's current
  // backoff multiplier (doubles per consecutive RTO fire, capped, reset on
  // forward ACK progress).
  std::uint64_t rto_cycles = 720'000'000;  // 200 ms at 3.6 GHz
  // Upper bound on the per-connection RTO backoff multiplier.
  std::uint32_t rto_backoff_cap = 64;
  // Delayed-ACK time bound (RFC 1122's 500ms cap analogue): an ACK owed at
  // cycle T is guaranteed on the wire by T + delack_cycles even if the owning
  // loop sleeps — the deadline folds into NextTimerDeadline. It only fires
  // for data the app leaves unread: a reply, the first timer pass after the
  // read, or a parking PollWait pays the debt first.
  std::uint64_t delack_cycles = 72'000'000;  // 20 ms at 3.6 GHz
  // Modern fast path (NewReno + SACK + delayed ACKs + wscale offers). Flip
  // off to get the pre-modernization stop-and-go stack: no TCP options
  // offered, no cwnd gate, an ACK per in-order segment — kept as the
  // baseline the tab5 --loss bench compares against.
  bool tcp_modern = true;
  // TIME_WAIT linger, measured in Poll() cycles (a 2MSL equivalent for the
  // run-to-completion loop). Exposed so teardown tests stay fast.
  std::uint32_t time_wait_poll_budget = 64;

  // Snapshot type; the live counters are one shared ukarch::Counters block
  // bumped from whatever loop demuxes the packet.
  struct StackStats {
    std::uint64_t udp_rx = 0;
    std::uint64_t udp_tx = 0;
    std::uint64_t tcp_rx = 0;
    std::uint64_t icmp_rx = 0;
    std::uint64_t no_socket_drops = 0;
    std::uint64_t rst_sent = 0;
  };
  StackStats stats() const { return stats_.Load(); }

 private:
  friend class NetIf;
  friend class UdpSocket;
  friend class TcpSocket;
  friend class TcpListener;

  struct ConnKey {
    std::uint16_t local_port;
    Ip4Addr remote_ip;
    std::uint16_t remote_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  // The bool results report whether |nb| ownership moved to an upper layer
  // (UDP zero-copy delivery parks the netbuf in the socket queue). |queue| is
  // the RX queue the packet arrived on: the demux shards on it — replies are
  // emitted on the same queue, and sockets record it as their flow's queue.
  bool HandleIpPacket(NetIf* netif, std::uint16_t queue, uknetdev::NetBuf* nb,
                      const Ip4Header& ip, std::span<const std::uint8_t> payload);
  bool HandleUdp(NetIf* netif, std::uint16_t queue, uknetdev::NetBuf* nb,
                 const Ip4Header& ip, std::span<const std::uint8_t> payload);
  void HandleTcp(NetIf* netif, std::uint16_t queue, const Ip4Header& ip,
                 std::span<const std::uint8_t> payload);
  void HandleIcmp(NetIf* netif, std::uint16_t queue, const Ip4Header& ip,
                  std::span<const std::uint8_t> payload);
  void SendRst(NetIf* netif, const Ip4Header& ip, const TcpHeader& hdr,
               std::size_t payload_len, std::uint16_t queue);
  // Shared header-only TCP segment builder (SYN, SYN|ACK, RST, ACK...):
  // serialized in place in a TX netbuf, bursts on |queue|.
  bool SendTcpHeaderOnly(NetIf* netif, Ip4Addr dst, const TcpHeader& hdr,
                         std::uint16_t queue = 0);
  std::uint16_t AllocEphemeralPort();
  std::uint32_t NewIss();  // deterministic initial sequence numbers
  // Called by TcpSocket state transitions.
  void NotifyAccepted(TcpSocket* sock);
  void RemoveConnection(TcpSocket* sock);
  // TCP timer pass (RTO checks + TIME_WAIT reaping), shared by Poll and the
  // PollWait drain.
  void RunTcpTimers();
  // Sends every owed delayed ACK of the connections |queue|'s loop owns (all
  // of them for kAllQueues): PollWait runs it right before it parks.
  void FlushDelayedAcks(std::uint16_t queue);
  // Wakes PollWait sleepers for |queue| (and any-queue waiters). Called from
  // NetIf's RX interrupt handler — wakeup-grade work only.
  void WakeRxWaiters(std::uint16_t queue);
  // Sizes the per-queue wait queues to the widest interface.
  void EnsureWaitQueues();

  ukplat::MemRegion* mem_;
  ukplat::Clock* clock_;
  ukalloc::Allocator* alloc_;
  std::vector<std::unique_ptr<NetIf>> netifs_;
  // RCU-published registries: the demux hot path (HandleUdp/HandleTcp finds,
  // timer scans) acquire-loads a snapshot and never takes a lock; writers
  // (bind/connect/accept/teardown) are serialized inside each registry and
  // publish copy-on-write. Grace periods are tied to event-loop turn
  // boundaries: Poll()/PollWait announce quiescence on their loop's slot
  // (queue q -> slot q, Poll()/kAllQueues -> the shared extra slot). The
  // domain is declared first so it outlives the registries; retired map
  // versions drain in ~RcuDomain at the latest.
  uklock::RcuDomain rcu_;
  uklock::RcuRegistry<std::uint16_t, std::shared_ptr<UdpSocket>> udp_ports_{
      &rcu_};
  uklock::RcuRegistry<std::uint16_t, std::shared_ptr<TcpListener>>
      tcp_listeners_{&rcu_};
  uklock::RcuRegistry<ConnKey, std::shared_ptr<TcpSocket>> tcp_conns_{&rcu_};
  std::uint16_t next_ephemeral_ = 49152;
  std::uint32_t iss_counter_ = 10'000;
  std::atomic<std::uint64_t> pings_answered_{0};
  ukarch::Counters<StackStats> stats_;
  uksched::Scheduler* sched_ = nullptr;
  std::vector<std::unique_ptr<uksched::WaitQueue>> rx_waits_;  // one per queue
  std::unique_ptr<uksched::WaitQueue> any_wait_;  // PollWait(kAllQueues)
  // Sleepers currently holding each queue's interrupt armed. PollWait only
  // disarms a line on return when the last holder lets go — a kAllQueues
  // waiter returning must not kill the armed line of a still-blocked
  // per-queue sibling (that would be a lost wakeup). Atomic because a
  // kAllQueues waiter and a pinned waiter on different loops hold the same
  // slot concurrently.
  std::array<std::atomic<std::uint32_t>, kMaxQueueSlots> rx_arm_counts_{};
  // Per-loop wait accounting (and the RCU quiescence slot): slot q belongs
  // to the loop pumping PollWait(q); the extra slot at kMaxQueueSlots belongs
  // to PollWait(kAllQueues) callers.
  static constexpr std::size_t kAllQueuesSlot = kMaxQueueSlots;
  static std::size_t PollSlot(std::uint16_t queue) {
    return queue == kAllQueues ? kAllQueuesSlot : QueueSlot(queue);
  }
  ukarch::CounterSlots<WaitStats, kMaxQueueSlots + 1> waits_;
  // Delivered readiness edges (registered sinks). Release on publish,
  // acquire on the PollWait re-check: the edge's cause happens-before the
  // woken waiter's rescan.
  std::atomic<std::uint64_t> event_seq_{0};
  // Per-queue soft-event sequences (RaiseQueueEvent doorbells) plus their sum;
  // a kAllQueues waiter watches the sum, a pinned waiter its own slot. Fixed
  // size: a foreign-loop producer ringing a doorbell must never race a
  // resize.
  std::array<std::atomic<std::uint64_t>, kMaxQueueSlots> queue_event_seq_{};
  std::atomic<std::uint64_t> queue_event_total_{0};
};

}  // namespace uknet

#endif  // UKNET_STACK_H_
