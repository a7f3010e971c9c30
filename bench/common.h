// bench/common.h - shared harness pieces for the per-figure benchmarks.
//
// Metric convention (documented in bench/BENCH.md, "Calibration"):
// server-side benchmarks run real code over the simulated fabric; all real
// CPU time of the loop is charged into the world's virtual clock at the
// simulated CPU speed, on top of the modeled privilege/device costs the
// environment profile adds. The
// reported throughput is requests / virtual-seconds, which makes runs
// deterministic in *shape* while still letting real implementation costs
// (allocators, parsers, ring operations) show through.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "apps/http.h"
#include "apps/kvstore.h"
#include "apps/redis.h"
#include "env/testbed.h"
#include "ukalloc/registry.h"
#include "uknetdev/virtio_net.h"
#include "uksched/scheduler.h"

namespace bench {

// Our C++ interpretation of the data path (simulated rings, bounds-checked
// guest memory, std containers) costs roughly 10x the cycles the equivalent
// production C code spends on the paper's i7-9700K. Real loop time is charged
// into the virtual clock scaled by this factor so that the *modeled*
// privilege/device costs sit in a realistic proportion to per-request CPU
// work. Calibrated against Fig 12's absolute rates; see bench/BENCH.md,
// "Calibration".
inline constexpr double kSimNormalization = 0.10;

// Syscall-equivalents the real applications issue per request under
// pipelining (read+write+epoll shares): calibration constants for the
// environment comparisons.
inline constexpr double kRedisSyscallsPerRequest = 0.6;
inline constexpr double kNginxSyscallsPerRequest = 5.0;

// One valid Ethernet+IPv4+UDP frame carrying |payload| to the kv server, as
// injected by the load-generator side of the kvstore benches. |src_port|
// selects the flow (and with it, the RSS queue the request lands on).
inline std::vector<std::uint8_t> BuildKvFrame(uknetdev::MacAddr dst_mac,
                                              uknet::Ip4Addr src_ip,
                                              uknet::Ip4Addr dst_ip,
                                              std::uint16_t dst_port,
                                              std::uint16_t src_port,
                                              std::span<const std::uint8_t> payload) {
  using namespace uknet;
  std::vector<std::uint8_t> frame(kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes +
                                  payload.size());
  EthHeader eth{dst_mac, uknetdev::MacAddr{{2, 0, 0, 0, 0, 9}}, kEthTypeIp4};
  eth.Serialize(frame.data());
  Ip4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - kEthHdrBytes);
  ip.proto = kIpProtoUdp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.Serialize(frame.data() + kEthHdrBytes);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  std::memcpy(frame.data() + kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes,
              payload.data(), payload.size());
  udp.Serialize(frame.data() + kEthHdrBytes + kIp4HdrBytes, src_ip, dst_ip, payload);
  return frame;
}

// The classic single-key GET frame (|key| must align with the flow's shard
// for the request to stay loop-local on a sharded server).
inline std::vector<std::uint8_t> BuildKvGetFrame(uknetdev::MacAddr dst_mac,
                                                 uknet::Ip4Addr src_ip,
                                                 uknet::Ip4Addr dst_ip,
                                                 std::uint16_t dst_port,
                                                 std::uint16_t src_port = 40000,
                                                 std::uint16_t key = 7) {
  apps::KvRequest req;
  req.is_set = false;
  req.key = key;
  std::vector<std::uint8_t> payload = apps::EncodeKvRequest(req);
  return BuildKvFrame(dst_mac, src_ip, dst_ip, dst_port, src_port, payload);
}

// ---- interrupt-driven idle harness (fig_idle_wakeup, tab4/fig_rss --wait) --------
//
// Runs the specialized uknetdev kvstore under a cooperative scheduler with a
// bursty duty cycle: the generator sends a 32-request burst, then sits idle
// for |think_turns| scheduler turns before the next one. A spin server pays a
// ring-check (kEmptyPumpCycles) for every idle pass through its loop; a
// blocking server arms the RX interrupt and halts, so its only idle passes
// are the arm-then-check verifications — the §3.1/§3.3 story in one number.

struct KvWaitRow {
  double kreq_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t idle_pumps = 0;   // pump passes that found no request
  std::uint64_t idle_cycles = 0;  // virtual cycles burned on those passes
  std::uint64_t wakeups = 0;      // RX interrupt fires (blocking mode)
  std::uint64_t idle_halts = 0;   // scheduler HLT-and-jump events (blocking)
  std::uint64_t per_queue_requests[8] = {0};
};

inline constexpr std::uint64_t kEmptyPumpCycles = 150;     // one idle ring check
inline constexpr std::uint64_t kKvRequestCycles = 1'000;   // modeled app work
inline constexpr std::uint64_t kThinkSliceCycles = 10'000; // generator think time

inline KvWaitRow RunKvScheduled(std::uint16_t queues, bool blocking,
                                int rounds = 400, int think_turns = 32) {
  ukplat::Clock clock;
  ukplat::Wire::Config wire_cfg;
  wire_cfg.queue_depth = 100000;
  ukplat::Wire wire(&clock, wire_cfg);
  ukplat::MemRegion mem(64 << 20);
  std::uint64_t heap_gpa = mem.Carve(48 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                        mem.At(heap_gpa, 48 << 20), 48 << 20);
  uknetdev::VirtioNet::Config cfg;
  cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  cfg.queue_size = 256;
  uknetdev::VirtioNet nic(&mem, &clock, &wire, cfg);
  apps::KvServer server(&nic, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
                        apps::KvMode::kUkNetdev, queues);
  auto sched_owner = uksched::MakeScheduler(alloc.get(), &clock);
  auto& sched = *sched_owner;
  if (blocking) {
    server.EnableWait(&sched);  // before Start(): queue setup hooks the intrs
  }
  KvWaitRow row;
  if (!server.Start()) {
    return row;
  }
  constexpr int kFlows = 16;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int f = 0; f < kFlows; ++f) {
    frames.push_back(BuildKvGetFrame(nic.mac(), uknet::MakeIp(10, 0, 0, 2),
                                     uknet::MakeIp(10, 0, 0, 1), 7777,
                                     static_cast<std::uint16_t>(41000 + f * 7)));
  }
  bool done = false;
  std::uint64_t done_cycles = 0;
  // Blocking pumps sleep with a bounded deadline only so they notice |done|
  // after the generator finishes. It must be MUCH longer than one duty cycle
  // — a slice comparable to the think gap expires mid-gap and manufactures
  // timeout wakeups the workload doesn't have; the final wake is a free
  // virtual-clock jump, so generosity costs nothing.
  const std::uint64_t wait_slice =
      64 * static_cast<std::uint64_t>(think_turns) * kThinkSliceCycles;
  for (std::uint16_t q = 0; q < server.queue_count(); ++q) {
    sched.CreateThread("pump", [&, q] {
      while (!done) {
        std::size_t n;
        if (blocking) {
          // Idle accounting comes from the server's own counters, read once
          // after the run (a per-call delta here would double-count across
          // queue threads: the shared counter moves while this one sleeps).
          n = server.PumpQueueWait(q, wait_slice);
        } else {
          n = server.PumpQueue(q);
          if (n == 0) {
            clock.Charge(kEmptyPumpCycles);
            ++row.idle_pumps;
            row.idle_cycles += kEmptyPumpCycles;
          }
          sched.Yield();
        }
        clock.Charge(n * kKvRequestCycles);
      }
    });
  }
  sched.CreateThread("generator", [&] {
    for (int r = 0; r < rounds; ++r) {
      for (int k = 0; k < 32; ++k) {
        wire.Send(1, frames[static_cast<std::size_t>(k) % kFlows]);
      }
      sched.Yield();  // the burst lands: wakeups (or the next spin pass) answer
      for (int t = 0; t < think_turns; ++t) {
        clock.Charge(kThinkSliceCycles);
        sched.Yield();
      }
      while (wire.Receive(1).has_value()) {
      }
    }
    done_cycles = clock.cycles();
    done = true;
  });
  sched.Run();
  row.requests = server.requests();
  row.wakeups = server.wait_stats().intr_fires;
  row.idle_halts = sched.stats().idle_advances;
  if (blocking) {
    // Every idle pass of a blocking pump is an arm-then-check verification;
    // price them like the spin loop's checks so the rows compare directly.
    // (A few hundred cycles per burst: charging them mid-run would not move
    // the virtual clock measurably, so the ledger reads them at the end.)
    row.idle_pumps = server.wait_stats().empty_pumps;
    row.idle_cycles = row.idle_pumps * kEmptyPumpCycles;
  }
  for (std::uint16_t q = 0; q < server.queue_count() && q < 8; ++q) {
    row.per_queue_requests[q] = server.queue_requests(q);
  }
  const double seconds = clock.model().CyclesToNs(done_cycles) / 1e9;
  row.kreq_s =
      seconds > 0 ? static_cast<double>(row.requests) / seconds / 1000.0 : 0.0;
  return row;
}

class RealTimer {
 public:
  RealTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedNs() const {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const char* title) {
  std::printf("==== %s ====\n", title);
}

struct NetBenchResult {
  double kreq_per_s = 0.0;
  std::uint64_t requests = 0;
  double virtual_ms = 0.0;
};

// Runs the redis-benchmark workload (30 conns, pipeline 16) under |profile|.
inline NetBenchResult RunRedisBench(const env::Profile& profile, bool use_set,
                                    int rounds = 1500) {
  env::TestBed bed(profile);
  apps::RedisServer server(&bed.api(), bed.server().alloc.get(), 6379);
  if (!server.Start()) {
    return {};
  }
  apps::RedisBenchClient::Config cfg;
  cfg.connections = 30;
  cfg.pipeline = 16;
  cfg.use_set = use_set;
  apps::RedisBenchClient bench(bed.client().stack.get(), env::TestBed::kServerIp, 6379,
                               cfg);
  auto pump = [&] {
    bed.Poll();
    server.PumpOnce();
  };
  if (!bench.ConnectAll(pump)) {
    return {};
  }
  bed.clock().Reset();
  std::uint64_t before = bench.replies();
  std::uint64_t syscall_cost = posix::SyscallShim::EntryCost(
      profile.dispatch, bed.clock().model());
  RealTimer timer;
  for (int i = 0; i < rounds; ++i) {
    bench.PumpOnce();
    bed.Poll();
    std::size_t handled = server.PumpOnce();
    // Per-request residuals: profile bloat, per-request syscall shares, and
    // the host/VMM net path per packet (~1 packet per 4 pipelined requests).
    bed.clock().Charge(profile.per_request_overhead * handled);
    bed.clock().Charge(static_cast<std::uint64_t>(
        kRedisSyscallsPerRequest * static_cast<double>(syscall_cost * handled)));
    bed.ChargeHostNetPath(handled / 2 + 1);
  }
  double real_ns = timer.ElapsedNs();
  bed.clock().Charge(bed.clock().model().NsToCycles(real_ns * kSimNormalization));
  NetBenchResult result;
  result.requests = bench.replies() - before;
  result.virtual_ms = bed.clock().milliseconds();
  result.kreq_per_s =
      static_cast<double>(result.requests) / (result.virtual_ms / 1e3) / 1e3;
  return result;
}

// Runs the wrk workload (30 conns, 612-byte page) under |profile| with a
// selectable allocator override.
inline NetBenchResult RunNginxBench(env::Profile profile, int rounds = 1200) {
  env::TestBed bed(profile);
  std::shared_ptr<vfscore::File> f;
  bed.vfs().Open("/index.html", vfscore::kWrite | vfscore::kCreate, &f);
  std::string body(612, 'u');
  f->Write(std::as_bytes(std::span(body.data(), body.size())));

  apps::HttpServer server(&bed.api(), 80, &bed.vfs());
  if (!server.Start()) {
    return {};
  }
  apps::WrkClient::Config cfg;
  cfg.connections = 30;
  cfg.pipeline = 8;
  apps::WrkClient wrk(bed.client().stack.get(), env::TestBed::kServerIp, 80, cfg);
  auto pump = [&] {
    bed.Poll();
    server.PumpOnce();
  };
  if (!wrk.ConnectAll(pump)) {
    return {};
  }
  bed.clock().Reset();
  std::uint64_t before = wrk.responses();
  std::uint64_t syscall_cost = posix::SyscallShim::EntryCost(
      profile.dispatch, bed.clock().model());
  RealTimer timer;
  for (int i = 0; i < rounds; ++i) {
    wrk.PumpOnce();
    bed.Poll();
    std::size_t handled = server.PumpOnce();
    bed.clock().Charge(profile.per_request_overhead * handled);
    bed.clock().Charge(static_cast<std::uint64_t>(
        kNginxSyscallsPerRequest * static_cast<double>(syscall_cost * handled)));
    bed.ChargeHostNetPath(handled + 1);  // 612B responses: ~1 packet per request
  }
  double real_ns = timer.ElapsedNs();
  bed.clock().Charge(bed.clock().model().NsToCycles(real_ns * kSimNormalization));
  NetBenchResult result;
  result.requests = wrk.responses() - before;
  result.virtual_ms = bed.clock().milliseconds();
  result.kreq_per_s =
      static_cast<double>(result.requests) / (result.virtual_ms / 1e3) / 1e3;
  return result;
}

}  // namespace bench

#endif  // BENCH_COMMON_H_
