// perfbench/workload.h - what every workload gives the measurement harness.
//
// A workload owns one simulated world (server unikernel + client host on one
// wire) and a closed-loop load generator. The harness calls Step() until its
// time is up; each Step lets every client send what its window allows, runs
// one server turn, and reaps and verifies replies. All counts are cumulative
// over the run (folded across server restarts), so the harness reads a layer
// as the difference of two snapshots.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// Guest RAM of every workload's server instance. A kill wipes all of it.
constexpr std::uint64_t kGuestRamBytes = 32ull << 20;

struct Counters {
  std::uint64_t replies = 0;    // verified replies
  std::uint64_t attempted = 0;  // requests sent
  std::uint64_t failed = 0;     // wrong/error/missing replies, aborted conns,
                                // persist io_errors, failed saves
  std::uint64_t modeled_cycles = 0;  // world clock
  std::uint64_t heap_peak_bytes = 0;  // max over server incarnations
  std::uint64_t mallocs = 0;          // server heap
  std::int64_t client_ns = 0;         // the generator's own host time
  // uknetdev (decorator counts and device stats)
  std::uint64_t rx_bursts = 0;
  std::uint64_t empty_rx_bursts = 0;
  std::uint64_t rx_pkts = 0;
  std::uint64_t kicks = 0;
  // ukplat::Wire
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  // uknet (TCP sockets at both ends of every connection)
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_pure_acks = 0;
  std::uint64_t tcp_retransmissions = 0;
  // posix + apps::EventLoop
  std::uint64_t syscalls = 0;
  std::uint64_t loop_turns = 0;
  std::uint64_t empty_turns = 0;
  // apps::Persist / ukblockdev
  std::uint64_t aof_writes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t cow_preimages = 0;
  std::uint64_t user_write_bytes = 0;  // key + value bytes of acknowledged SETs
  std::uint64_t blk_write_bytes = 0;
  std::uint64_t largest_persist_file = 0;  // bytes, checked before each kill
  // apps::KvServer
  std::uint64_t cross_shard_ops = 0;
};

// One kill + reboot of the server instance, as the generator saw it.
struct RestartSample {
  double kill_ms = 0.0;     // teardown of the running instance
  double restart_ms = 0.0;  // kill start -> first verified reply
  double recover_ms = 0.0;  // RecoverFromPersist inside the kLate stage
  double recovered_keys = 0.0;
  std::vector<std::pair<std::string, double>> stages_us;  // BootReport
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One closed-loop step; returns replies verified by it.
  virtual std::size_t Step(std::vector<std::int64_t>* latencies_ns) = 0;
  // Stops sending new load; Step() then only completes what is in flight
  // (and any post-restart read-back).
  virtual void StopLoad() = 0;
  virtual bool Idle() const = 0;  // nothing in flight, nothing queued
  // Hard-kills and reboots the server; the restart sample completes when
  // the first verified reply from the new instance arrives during Step().
  virtual void Restart() = 0;
  virtual Counters Snapshot() const = 0;
  // Abandons everything still in flight, counting it as failed.
  virtual void FailOutstanding() = 0;
  // Per-queue PumpQueue busy time (udp-kv-4q only; empty elsewhere).
  virtual std::vector<std::int64_t> QueueBusyNs() const { return {}; }

  const std::vector<RestartSample>& restarts() const { return restarts_; }
  bool restart_pending() const { return restart_pending_; }

 protected:
  std::vector<RestartSample> restarts_;
  bool restart_pending_ = false;
  std::int64_t restart_t0_ = 0;

  // Call on the first verified reply after a reboot.
  void NoteVerifiedReply(std::int64_t now) {
    if (restart_pending_) {
      restarts_.back().restart_ms = static_cast<double>(now - restart_t0_) / 1e6;
      restart_pending_ = false;
    }
  }
};

// Workload names: resp-pipelined, resp-pingpong, durable-restart, udp-kv-4q.
// Builds the world, preloads it and warms it up. Null for an unknown name or
// a world that failed to come up.
std::unique_ptr<Workload> MakeRespWorkload(const std::string& name,
                                           std::uint64_t seed, Ledger* ledger);
std::unique_ptr<Workload> MakeUdpWorkload(std::uint64_t seed, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
