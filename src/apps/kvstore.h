// apps/kvstore.h - the specialized UDP key-value store of §6.4 / Table 4.
//
// One server, four data paths, exactly the ladder the paper climbs:
//   kSocketSingle  — recvfrom/sendto, one syscall per packet;
//   kSocketBatch   — recvmmsg/sendmmsg, one syscall per 32-packet batch
//                    (one sendmmsg per run of same-source datagrams);
//   kUkNetdev      — no stack, no scheduler: poll-mode uknetdev bursts with
//                    hand-parsed Ethernet/IP/UDP, each reply written in place
//                    in its RX netbuf (the paper's specialized unikernel that
//                    matches DPDK with one core);
//   kDpdkStyle     — the same netdev path with one difference: each reply is
//                    written into a fresh TX-pool buffer (the DPDK framework's
//                    per-packet mbuf churn plus a copy), for the guest-DPDK
//                    rows.
// Both netdev modes share one request path: parse, execute against the
// queue's shard (or defer foreign keys to their owners over SPSC rings), and
// frame the Ethernet/IP/UDP reply in one place.
#ifndef APPS_KVSTORE_H_
#define APPS_KVSTORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <array>
#include <deque>

#include "apps/event_loop.h"
#include "apps/persist.h"
#include "posix/api.h"
#include "ukarch/counters.h"
#include "uknet/stack.h"
#include "uknet/wire_format.h"
#include "uknetdev/netdev.h"
#include "uksched/scheduler.h"
#include "uksched/spsc_ring.h"

namespace apps {

enum class KvMode { kSocketSingle, kSocketBatch, kUkNetdev, kDpdkStyle };

// Wire format: 'G'/'S' + u16 key [+ u16 value len + bytes]. Reply: value or 'E'.
// Multi-get: 'M' + u8 n + n*u16 keys; reply 'V' + u8 n + n*(u16 len + bytes),
// len 0xffff marking a missing key. Multi-get values are capped at
// KvServer::kMaxInlineValue bytes (they must fit a cross-shard ring slot).
struct KvRequest {
  bool is_set = false;
  std::uint16_t key = 0;
  std::string value;
};
std::vector<std::uint8_t> EncodeKvRequest(const KvRequest& req);
std::vector<std::uint8_t> EncodeKvMultiGet(std::span<const std::uint16_t> keys);

class KvServer {
 public:
  // Socket modes.
  KvServer(posix::PosixApi* api, std::uint16_t port, KvMode mode);
  // Raw netdev modes: parses frames itself; needs its own pools. |queues|
  // configures that many RX/TX queue pairs (clamped to the device maximum),
  // each with private pools — the sharded event-loop setup of §4: one loop
  // per queue, replies emitted on the queue the request arrived on.
  KvServer(uknetdev::NetDev* dev, ukplat::MemRegion* mem, ukalloc::Allocator* alloc,
           uknet::Ip4Addr ip, std::uint16_t port, KvMode mode,
           std::uint16_t queues = 1);

  bool Start();
  std::size_t PumpOnce();  // requests answered this turn (all queues)
  // One pump of a single queue: the per-queue event-loop body. Touches only
  // |queue|'s rings and pools (netdev modes).
  std::size_t PumpQueue(std::uint16_t queue);

  // ---- interrupt-driven pump ----------------------------------------------
  // Opts the server into blocking pumps. Must be called BEFORE Start() for
  // the netdev modes: queue setup registers the per-queue wakeup handlers.
  // |sched| is the scheduler whose current thread PumpQueueWait parks.
  void EnableWait(uksched::Scheduler* sched);
  // Blocking per-queue pump: drains like PumpQueue; when the queue is idle it
  // arms the RX interrupt, re-checks (arm-then-check, see uknetdev/netdev.h),
  // and blocks until a frame or |timeout_cycles| (relative; kNoWaitDeadline =
  // no timeout). Socket modes sleep through the shared apps::EventLoop (one
  // EpollWait over the server fd, which parks in NetStack::PollWait).
  // Without EnableWait (or off a scheduler thread) this is PumpQueue.
  std::size_t PumpQueueWait(std::uint16_t queue,
                            std::uint64_t timeout_cycles = kNoWaitDeadline);
  static constexpr std::uint64_t kNoWaitDeadline = uksched::Scheduler::kNoDeadline;

  // Snapshot types. The live counters are PER-LOOP (one cacheline-padded
  // ukarch::CounterSlots block per queue's loop): the all-loops accessors sum
  // the slots at read time and the (queue) overloads read one loop's slot, so
  // concurrent loops never write-share a counter line.
  struct WaitStats {
    std::uint64_t empty_pumps = 0;    // pump passes that found no request
    std::uint64_t blocked_waits = 0;  // times a pump loop actually slept
    std::uint64_t intr_fires = 0;     // RX interrupt handler invocations
    std::uint64_t timeouts = 0;       // waits ended by the caller's deadline
  };
  // Full snapshot: the wait accounting plus the request and shard counters.
  // A WaitStats is the base slice of it.
  struct Stats : WaitStats {
    std::uint64_t requests = 0;        // real client traffic only
    std::uint64_t probe_requests = 0;  // balancer health probes ('P' opcode)
    std::uint64_t ring_messages = 0;
    std::uint64_t cross_shard_ops = 0;
  };
  Stats stats() const { return loops_.Sum(); }
  Stats stats(std::uint16_t queue) const { return loops_.Load(queue); }
  WaitStats wait_stats() const { return stats(); }
  WaitStats wait_stats(std::uint16_t queue) const { return stats(queue); }

  std::uint64_t requests() const { return stats().requests; }
  std::uint64_t queue_requests(std::uint16_t queue) const {
    return stats(queue).requests;
  }
  std::uint16_t queue_count() const { return queues_; }

  // ---- shared-nothing sharding (§6 SMP scale-out) --------------------------
  // The store is split into one shard per queue, keyed by the same Toeplitz
  // machinery that steers frames: a client that sends key K over a flow
  // hashing to ShardForKey(K) gets parse→execute→reply entirely inside one
  // loop, no foreign cache lines. Requests for foreign keys (and multi-key
  // 'M' ops) travel between loops as messages over per-pair SPSC rings; the
  // owning loop executes against its own shard and rings the answer back.
  static std::uint16_t ShardForKey(std::uint16_t key, std::uint16_t nshards);
  std::size_t shard_size(std::uint16_t shard) const {
    return shard < shards_.size() ? shards_[shard].size() : 0;
  }
  // Shared-nothing audit counter: store accesses bucketed by (executing loop,
  // shard). The invariant the scale test asserts: every off-diagonal bucket
  // stays 0 — no loop ever touches a foreign shard, not even for cross-shard
  // ops (those execute on the owner via ring messages).
  std::uint64_t shard_accesses(std::uint16_t accessor, std::uint16_t shard) const {
    const std::size_t i = static_cast<std::size_t>(accessor) * queues_ + shard;
    return i < shard_accesses_.size()
               ? shard_accesses_[i].load(std::memory_order_relaxed)
               : 0;
  }
  std::uint64_t ring_messages() const { return stats().ring_messages; }
  std::uint64_t cross_shard_ops() const { return stats().cross_shard_ops; }

  // ---- durability (apps::Persist) ------------------------------------------
  // Wires the persistence tier in with one persist shard per queue: every
  // StoreSet is AOF-logged (keys canonicalized to decimal text) and each
  // PumpQueue flushes its own shard's buffer at turn end — the sharded
  // equivalent of the event-loop turn hook. |persist| must be configured with
  // shards == queue_count().
  void AttachPersist(Persist* persist);
  // Replays snapshot + AOF into the (empty) shards. Call before traffic.
  Persist::RecoverStats RecoverFromPersist();

  static constexpr std::size_t kMaxMultiKeys = 8;
  static constexpr std::size_t kMaxInlineValue = 64;  // ring-slot value cap
  // Pool introspection for zero-alloc assertions (netdev modes).
  const uknetdev::NetBufPool* tx_pool(std::uint16_t queue = 0) const {
    return queue < tx_pools_.size() ? tx_pools_[queue].get() : nullptr;
  }

 private:
  // Cross-shard ring message: a foreign-key GET/SET shipped to the shard
  // owner, or the owner's response. Plain data with an inline value so ring
  // slots never point into another loop's memory.
  struct ShardMsg {
    enum Type : std::uint8_t { kGet, kSet, kResp };
    std::uint8_t type = kGet;
    std::uint16_t from = 0;    // origin queue: responses ring back here
    std::uint32_t req_id = 0;  // origin's pending-op id
    std::uint8_t slot = 0;     // key index within the origin's op
    std::uint16_t key = 0;
    bool found = false;  // kResp: the key existed
    std::uint8_t vlen = 0;
    std::uint8_t val[kMaxInlineValue] = {};
  };
  using ShardRing = uksched::SpscRing<ShardMsg, 64>;

  // Where a reply goes: the requester's MAC, IP and UDP port.
  struct ReplyTo {
    uknetdev::MacAddr mac{};
    uknet::Ip4Addr ip = 0;
    std::uint16_t port = 0;
  };
  // A multi-get, or a single-key GET/SET on a foreign shard. Local keys
  // resolve at once; the op waits, with its reply addressing snapshotted (the
  // RX buffer goes back to its pool), until each kResp has filled its slot.
  struct PendingOp {
    std::uint32_t id = 0;
    char op = 'G';  // 'G' single get, 'S' single set, 'M' multi-get
    std::uint16_t queue = 0;  // arrival queue: the reply bursts from here
    ReplyTo reply_to;
    std::uint8_t nkeys = 0;
    std::uint8_t remaining = 0;  // outstanding ring responses
    struct Slot {
      std::uint16_t key = 0;
      bool found = false;
      std::uint8_t vlen = 0;  // a foreign SET's slot carries its value out
      std::uint8_t val[kMaxInlineValue] = {};
    };
    std::array<Slot, kMaxMultiKeys> slots{};
  };

  std::size_t PumpSocketSingle();
  std::size_t PumpSocketBatch();
  // One event-loop turn over the server fd (socket modes): blocks up to
  // |timeout_cycles| in EpollWait, returns requests answered.
  std::size_t PumpSocket(std::uint64_t timeout_cycles);
  bool SocketMode() const {
    return mode_ == KvMode::kSocketSingle || mode_ == KvMode::kSocketBatch;
  }
  std::size_t PumpNetdev(std::uint16_t queue);
  // Parses one received frame and answers it into the mode's reply buffer:
  // |nb| itself (kUkNetdev) or a fresh TX-pool buffer (kDpdkStyle). Returns
  // the framed reply buffer, or null when nothing is sent now. |nb| stays the
  // caller's to free unless it is the buffer returned.
  uknetdev::NetBuf* AnswerFrame(std::uint16_t queue, uknetdev::NetBuf* nb);
  // Executes one request against |queue|'s shard and writes the reply bytes
  // straight into |out| (usually the wire buffer itself). Returns reply
  // length, 0 when |cap| is too small or when the request was deferred: a
  // request touching foreign shards parks a PendingOp (addressed to
  // |reply_to|) and its ring messages go out. Never allocates on the
  // shard-local path. A null |reply_to| (socket modes) forces every key
  // local, which holds by construction when queues_ == 1.
  std::size_t HandleInto(std::uint16_t queue, std::span<const std::uint8_t> payload,
                         std::uint8_t* out, std::size_t cap, const ReplyTo* reply_to);
  // Parks |op| and rings one kGet (kSet for a SET) per foreign key to its
  // owner.
  void Defer(const PendingOp& op);
  // Writes the reply of a fully resolved op into |out|: the value or 'E'
  // ('G'), 'K' ('S'), or 'V' n + n * (u16 len + bytes) ('M'). Returns its
  // length.
  static std::size_t EncodeReply(const PendingOp& op, std::uint8_t* out);
  // Writes the Ethernet/IP/UDP headers to |to| at |frame|, around the
  // |reply_len| payload bytes already in place after them. Returns the frame
  // length. The one reply framer of both netdev modes.
  std::size_t FrameReply(std::uint8_t* frame, const ReplyTo& to,
                         std::size_t reply_len) const;
  // Bursts |n| reply buffers on |queue| and frees the ones the device did not
  // take. Returns how many were sent.
  std::uint16_t TxReplies(std::uint16_t queue, uknetdev::NetBuf** bufs,
                          std::uint16_t n);
  // Shard access helpers: the ONLY paths that touch shards_, so the
  // (accessor, shard) audit counters see every access.
  std::string* StoreFind(std::uint16_t accessor, std::uint16_t shard,
                         std::uint16_t key);
  void StoreSet(std::uint16_t accessor, std::uint16_t shard, std::uint16_t key,
                std::span<const std::uint8_t> value);
  // Ring plumbing (netdev modes, queues_ > 1).
  ShardRing* RingTo(std::uint16_t from, std::uint16_t to) {
    return rings_[static_cast<std::size_t>(from) * queues_ + to].get();
  }
  // Push with backpressure: a full ring parks the message in the per-pair
  // outbox, flushed at the head of every DrainRings turn.
  void RingSend(std::uint16_t from, std::uint16_t to, const ShardMsg& msg);
  // Doorbell: bump |to|'s sequence and wake exactly one sleeper of that loop.
  void WakeShard(std::uint16_t to);
  // Drains every inbound ring of |queue| (and retries its outboxes):
  // executes foreign GET/SETs against the local shard, completes pending ops
  // on responses. Returns messages processed.
  std::size_t DrainRings(std::uint16_t queue);
  // Builds and bursts the reply frame of a completed PendingOp from its
  // arrival queue's TX pool.
  void EmitDeferredReply(const PendingOp& op);

  KvMode mode_;
  posix::PosixApi* api_ = nullptr;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  // Socket modes multiplex the server fd through the shared event loop; the
  // readable dispatch runs the single/batch pump body.
  std::unique_ptr<EventLoop> loop_;

  uknetdev::NetDev* dev_ = nullptr;
  ukplat::MemRegion* mem_ = nullptr;
  ukalloc::Allocator* alloc_ = nullptr;
  uknet::Ip4Addr ip_ = 0;
  std::uint16_t queues_ = 1;
  std::vector<std::unique_ptr<uknetdev::NetBufPool>> tx_pools_;
  std::vector<std::unique_ptr<uknetdev::NetBufPool>> rx_pools_;

  // Per-loop counters: the loop pumping queue q is the only writer of slot
  // q. Socket modes use slot 0.
  ukarch::CounterSlots<Stats, uknet::kMaxQueueSlots> loops_;

  // One shard per queue; shards_[q] is owned by queue q's loop and only ever
  // touched by it (StoreFind/StoreSet assert the discipline via the audit
  // counters; the cold persistence paths — snapshot capture and boot-time
  // recovery — read/write shards directly but run before/outside loop
  // traffic). Socket modes degenerate to one shard.
  std::vector<std::unordered_map<std::uint16_t, std::string>> shards_;
  Persist* persist_ = nullptr;  // optional durability tier (unowned)
  // Audit counters, accessor-major [q][shard]. Atomic so a reader summing the
  // matrix never races the loops bumping their diagonal.
  std::vector<std::atomic<std::uint64_t>> shard_accesses_;

  // Cross-shard transport: queues_^2 SPSC rings (from-major), per-pair
  // overflow outboxes, per-queue pending ops and doorbell sequences.
  std::vector<std::unique_ptr<ShardRing>> rings_;
  std::vector<std::deque<ShardMsg>> outbox_;
  std::vector<std::deque<PendingOp>> pending_;
  std::vector<std::uint32_t> next_req_id_;
  // Doorbell sequences: written by the PRODUCING loop (WakeShard, release),
  // read by the target loop's arm-then-check (acquire) — the one counter here
  // that is a protocol word, not a statistic.
  std::vector<std::atomic<std::uint64_t>> ring_doorbells_;

  uksched::Scheduler* sched_ = nullptr;
  std::vector<std::unique_ptr<uksched::WaitQueue>> rx_waits_;  // netdev modes

  static constexpr int kBatch = 32;
};

}  // namespace apps

#endif  // APPS_KVSTORE_H_
