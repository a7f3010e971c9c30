// Ablations for the design choices the cost model prices (bench/BENCH.md,
// "Calibration"):
//   1. interrupt-mode vs poll-mode uknetdev RX under rising load;
//   2. virtqueue/TX batch-size sweep (where batching pays);
//   3. syscall-shim indirection: direct vs table dispatch (real ns);
//   4. DCE granularity: per-object vs per-library elimination.
#include <chrono>
#include <cstdio>
#include <memory>

#include "ukalloc/registry.h"
#include "ukbuild/linker.h"
#include "uknetdev/virtio_net.h"
#include "posix/shim.h"

namespace {

// ---- 1: interrupt vs polling -----------------------------------------------

void NetdevModes() {
  std::printf("---- ablation 1: RX interrupt vs poll mode ----\n");
  std::printf("%-12s %14s %14s\n", "load(pkts)", "intr cycles/pkt", "poll cycles/pkt");
  for (int burst : {1, 4, 16, 64}) {
    double per_mode[2];
    for (int use_intr = 0; use_intr < 2; ++use_intr) {
      ukplat::Clock clock;
      ukplat::Wire::Config wcfg;
      wcfg.queue_depth = 10000;
      ukplat::Wire wire(&clock, wcfg);
      ukplat::MemRegion mem(32 << 20);
      std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
      auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                            mem.At(heap_gpa, 24 << 20), 24 << 20);
      uknetdev::VirtioNet::Config cfg;
      cfg.backend = uknetdev::VirtioBackend::kVhostUser;
      cfg.wire_side = 1;
      uknetdev::VirtioNet nic(&mem, &clock, &wire, cfg);
      nic.Configure(uknetdev::DevConf{});
      nic.TxQueueSetup(0, uknetdev::TxQueueConf{});
      auto pool = uknetdev::NetBufPool::Create(alloc.get(), &mem, 256, 2048);
      uknetdev::RxQueueConf rxc;
      rxc.buffer_pool = pool.get();
      int wakeups = 0;
      rxc.intr_handler = [&wakeups](std::uint16_t) { ++wakeups; };
      nic.RxQueueSetup(0, rxc);
      nic.Start();
      if (use_intr) {
        nic.RxIntrEnable(0);
      }
      std::uint64_t before = clock.cycles();
      std::uint64_t total = 0;
      for (int round = 0; round < 200; ++round) {
        for (int k = 0; k < burst; ++k) {
          wire.Send(0, std::vector<std::uint8_t>(64, 1));
        }
        nic.BackendPoll();
        uknetdev::NetBuf* pkts[64];
        std::uint16_t cnt = 64;
        nic.RxBurst(0, pkts, &cnt);
        for (int i = 0; i < cnt; ++i) {
          pkts[i]->pool->Free(pkts[i]);
        }
        total += cnt;
      }
      per_mode[use_intr] =
          static_cast<double>(clock.cycles() - before) / static_cast<double>(total);
    }
    std::printf("%-12d %14.0f %14.0f\n", burst, per_mode[1], per_mode[0]);
  }
  std::printf("(interrupt overhead amortizes away as bursts grow — §3.1's automatic "
              "transition to polling under load)\n\n");
}

// ---- 2: batch size sweep ------------------------------------------------------

void BatchSweep() {
  std::printf("---- ablation 2: TX batch size sweep (vhost-net) ----\n");
  std::printf("%-8s %16s\n", "batch", "cycles/pkt");
  for (int batch : {1, 2, 4, 8, 16, 32, 64}) {
    ukplat::Clock clock;
    ukplat::Wire::Config wcfg;
    wcfg.queue_depth = 100000;
    ukplat::Wire wire(&clock, wcfg);
    ukplat::MemRegion mem(32 << 20);
    std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
    auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                          mem.At(heap_gpa, 24 << 20), 24 << 20);
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = uknetdev::VirtioBackend::kVhostNet;
    uknetdev::VirtioNet nic(&mem, &clock, &wire, cfg);
    nic.Configure(uknetdev::DevConf{});
    nic.TxQueueSetup(0, uknetdev::TxQueueConf{});
    auto rx_pool = uknetdev::NetBufPool::Create(alloc.get(), &mem, 32, 2048);
    uknetdev::RxQueueConf rxc;
    rxc.buffer_pool = rx_pool.get();
    nic.RxQueueSetup(0, rxc);
    nic.Start();
    auto tx_pool = uknetdev::NetBufPool::Create(alloc.get(), &mem, 128, 2048);
    std::uint64_t sent = 0;
    for (int round = 0; round < 400; ++round) {
      uknetdev::NetBuf* pkts[64];
      for (int i = 0; i < batch; ++i) {
        pkts[i] = tx_pool->Alloc();
        pkts[i]->len = 64;
      }
      std::uint16_t cnt = static_cast<std::uint16_t>(batch);
      nic.TxBurst(0, pkts, &cnt);
      sent += cnt;
      while (wire.Receive(1).has_value()) {
      }
    }
    std::printf("%-8d %16.0f\n", batch,
                static_cast<double>(clock.cycles()) / static_cast<double>(sent));
  }
  std::printf("(the kick cost amortizes across the batch: why uknetdev is burst-based)\n\n");
}

// ---- 3: shim indirection -------------------------------------------------------

void ShimIndirection() {
  std::printf("---- ablation 3: direct vs shim-table dispatch (real ns/call) ----\n");
  ukplat::Clock clock;
  int nr = posix::SyscallNumber("getpid");
  volatile std::int64_t sink = 0;
  // Direct: a plain function call.
  auto direct_fn = +[]() -> std::int64_t { return 1; };
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    sink += direct_fn();
  }
  double direct_ns = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     2e6;
  // Through the handler table.
  posix::SyscallShim shim(&clock, posix::DispatchMode::kDirectCall);
  shim.Register(nr, [](const posix::SyscallArgs&) -> std::int64_t { return 1; });
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    sink += shim.Call(nr);
  }
  double table_ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count() /
                    2e6;
  std::printf("direct=%.2fns  shim-table=%.2fns  overhead=%.2fns (vs 60ns+ for a "
              "trap)\n\n",
              direct_ns, table_ns, table_ns - direct_ns);
  (void)sink;
}

// ---- 4: DCE granularity ----------------------------------------------------------

void DceGranularity() {
  std::printf("---- ablation 4: DCE granularity ----\n");
  ukbuild::Registry registry = ukbuild::Registry::Default();
  ukbuild::Linker linker(&registry);
  ukbuild::Config cfg;
  cfg.app = "redis";
  ukbuild::Image none = linker.Link(cfg);
  cfg.dce = true;
  ukbuild::Image object_level = linker.Link(cfg);
  // Library-level DCE can only drop whole libraries, which the dependency
  // closure already did — so it equals the no-DCE image.
  std::printf("no DCE: %.1f KB; per-object DCE: %.1f KB (saves %.1f%%); per-library "
              "DCE: %.1f KB (saves 0%%)\n",
              none.total_bytes / 1024.0, object_level.total_bytes / 1024.0,
              100.0 * (1.0 - static_cast<double>(object_level.total_bytes) /
                                 static_cast<double>(none.total_bytes)),
              none.total_bytes / 1024.0);
  std::printf("(object granularity is what makes --gc-sections worth it)\n");
}

}  // namespace

int main() {
  std::printf("==== Ablations ====\n");
  NetdevModes();
  BatchSweep();
  ShimIndirection();
  DceGranularity();
  return 0;
}
