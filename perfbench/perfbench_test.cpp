// Tests for the benchmark's own arithmetic (percentiles, medians, quartile
// spread, span self time), for the determinism of its host-speed reference,
// and for the transparency of its decorators: a server run through
// TracingNetDev, or a filesystem through TracingBlockDev and TracingFs, must
// produce exactly the bytes and modeled cycles it does without them.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "decorators.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "ukalloc/registry.h"
#include "ukblockdev/ramdisk.h"
#include "uknet/wire_format.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"
#include "vfscore/blockfs.h"
#include "vfscore/vfs.h"

namespace perfbench {
namespace {

TEST(Stats, PercentileIsNearestRankOverTheSamples) {
  Histogram h;
  for (int i = 100; i >= 1; --i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Percentile(0.50), 50.0);
  EXPECT_EQ(h.Percentile(0.99), 99.0);
  EXPECT_EQ(h.Percentile(1.00), 100.0);
  EXPECT_EQ(h.Percentile(0.001), 1.0);
  // 99th percentile of 100 samples leaves exactly one beyond it; of 1000,
  // ten -- the least a reported percentile needs.
  EXPECT_EQ(h.CountAbove(h.Percentile(0.99)), 1u);
  Histogram k;
  for (int i = 0; i < 1000; ++i) {
    k.Add(i < 990 ? 1 : 200);
  }
  EXPECT_EQ(k.Percentile(0.99), 1.0);
  EXPECT_EQ(k.CountAbove(k.Percentile(0.99)), 10u);

  Histogram one;
  one.Add(7);
  EXPECT_EQ(one.Percentile(0.99), 7.0);
  EXPECT_EQ(Histogram().Percentile(0.5), 0.0);
}

TEST(Stats, HistogramBucketsAreLogLinear) {
  // Exact below 2 * kSubBuckets; above, every value lands in a bucket whose
  // midpoint is within 1/(2 * kSubBuckets) of it, and the buckets tile the
  // integers without gaps.
  for (std::int64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::Index(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::Midpoint(Histogram::Index(v)), static_cast<double>(v));
  }
  std::size_t prev = Histogram::Index(2 * Histogram::kSubBuckets - 1);
  for (std::int64_t v = 2 * Histogram::kSubBuckets; v < (std::int64_t{1} << 20); ++v) {
    const std::size_t i = Histogram::Index(v);
    ASSERT_TRUE(i == prev || i == prev + 1) << v;
    ASSERT_NEAR(Histogram::Midpoint(i), static_cast<double>(v),
                static_cast<double>(v) / (2.0 * Histogram::kSubBuckets))
        << v;
    prev = i;
  }
  EXPECT_EQ(Histogram::Index(INT64_MAX), Histogram::kBuckets - 1);

  Histogram a;
  for (int i = 1; i <= 200; ++i) {
    a.Add(i);
  }
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.Percentile(0.5), 100.0);
  a.Clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(0.5), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
  q = QuartilesOf({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // [3,1,4,1,5,9,2,6,5,3]: quartiles [1.75, 3.5, 5.25], median 3.5
  const std::vector<double> v{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  EXPECT_DOUBLE_EQ(QuartileSpread(v), (5.25 - 1.75) / 3.5);
}

TEST(Reference, DoesTheSameWorkEveryRun) {
  // The reference must not depend on the seed or on anything else of the run:
  // two instances serve identical replies.
  ReferenceWork a;
  ReferenceWork b;
  EXPECT_GT(a.NsPerOp(5000), 0.0);
  EXPECT_GT(b.NsPerOp(5000), 0.0);
  EXPECT_NE(a.checksum(), 0u);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Ledger, SelfTimeIsSpanMinusCoveredChildTime) {
  Ledger l;
  l.set_enabled(true);
  ASSERT_TRUE(l.BeginAt(Layer::kLoop, 0));
  ASSERT_TRUE(l.BeginAt(Layer::kNetdevRx, 10));
  l.EndAt(40);
  ASSERT_TRUE(l.BeginAt(Layer::kPersist, 50));
  ASSERT_TRUE(l.BeginAt(Layer::kVfs, 52));
  l.EndAt(55);
  l.EndAt(60);
  l.EndAt(100);
  const Ledger::Totals& t = l.traced();
  EXPECT_EQ(t.Incl(Layer::kLoop), 100);
  EXPECT_EQ(t.Self(Layer::kLoop), 100 - 30 - 10);
  EXPECT_EQ(t.Self(Layer::kNetdevRx), 30);
  EXPECT_EQ(t.Incl(Layer::kPersist), 10);
  EXPECT_EQ(t.Self(Layer::kPersist), 7);
  EXPECT_EQ(t.Self(Layer::kVfs), 3);
  EXPECT_EQ(t.root_ns, 100);
  EXPECT_EQ(t.SelfSum(), t.root_ns);  // nothing unattributed
  EXPECT_EQ(l.depth(), 0);
}

TEST(Ledger, UntracedKeepsRootSpansOnly) {
  Ledger l;
  ASSERT_TRUE(l.BeginAt(Layer::kBackendPoll, 0));
  EXPECT_FALSE(l.BeginAt(Layer::kNetdevRx, 5));  // nested: declined
  l.EndAt(20);
  ASSERT_TRUE(l.BeginAt(Layer::kBoot, 30));
  l.EndAt(35);
  EXPECT_EQ(l.untraced().root_ns, 25);
  EXPECT_EQ(l.untraced().Self(Layer::kBackendPoll), 20);
  EXPECT_EQ(l.untraced().Incl(Layer::kNetdevRx), 0);
  EXPECT_EQ(l.ServingNs(), 20);  // restarts are not serving time
  EXPECT_EQ(l.traced().root_ns, 0);
}

// ---- decorator transparency -------------------------------------------------

std::vector<std::uint8_t> KvFrame(uknetdev::MacAddr dst, std::uint16_t src_port,
                                  const std::vector<std::uint8_t>& payload) {
  using namespace uknet;
  const Ip4Addr src_ip = MakeIp(10, 0, 0, 2);
  const Ip4Addr dst_ip = MakeIp(10, 0, 0, 1);
  std::vector<std::uint8_t> frame(kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes +
                                  payload.size());
  EthHeader{dst, uknetdev::MacAddr{{2, 0, 0, 0, 0, 9}}, kEthTypeIp4}.Serialize(frame.data());
  Ip4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - kEthHdrBytes);
  ip.proto = kIpProtoUdp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.Serialize(frame.data() + kEthHdrBytes);
  std::memcpy(frame.data() + kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes, payload.data(),
              payload.size());
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = 7777;
  udp.Serialize(frame.data() + kEthHdrBytes + kIp4HdrBytes, src_ip, dst_ip, payload);
  return frame;
}

struct KvRun {
  std::vector<std::vector<std::uint8_t>> replies;
  std::uint64_t cycles = 0;
  std::uint64_t rx_bursts = 0;
};

// SETs and GETs through a 2-queue raw-netdev KvServer, optionally behind the
// tracing decorator; every reply frame is kept.
KvRun RunKv(bool decorated, Ledger* ledger) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  ukplat::MemRegion mem(32 << 20);
  const std::uint64_t heap_gpa = mem.Carve(16 << 20, 4096);
  auto alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem.At(heap_gpa, 16 << 20),
                                        16 << 20);
  uknetdev::VirtioNet::Config cfg;
  cfg.backend = uknetdev::VirtioBackend::kVhostUser;
  cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, 1}};
  uknetdev::VirtioNet nic(&mem, &clock, &wire, cfg);
  TracingNetDev traced(&nic, ledger);
  uknetdev::NetDev* dev = decorated ? static_cast<uknetdev::NetDev*>(&traced) : &nic;
  apps::KvServer server(dev, &mem, alloc.get(), uknet::MakeIp(10, 0, 0, 1), 7777,
                        apps::KvMode::kUkNetdev, 2);
  KvRun run;
  if (!server.Start()) {
    return run;
  }
  for (std::uint16_t i = 0; i < 40; ++i) {
    apps::KvRequest req;
    req.is_set = i % 3 != 2;
    req.key = static_cast<std::uint16_t>(i % 7);
    req.value = std::string(16 + i, static_cast<char>('a' + i % 26));
    wire.Send(1, KvFrame(cfg.mac, static_cast<std::uint16_t>(40000 + i % 5),
                         apps::EncodeKvRequest(req)));
    if (i % 4 == 3) {
      Span root(ledger, Layer::kKvPump);
      server.PumpOnce();
    }
  }
  for (int i = 0; i < 4; ++i) {
    Span root(ledger, Layer::kKvPump);
    server.PumpOnce();
  }
  while (auto f = wire.Receive(1)) {
    run.replies.push_back(*f);
  }
  run.cycles = clock.cycles();
  run.rx_bursts = traced.counts().rx_bursts;
  return run;
}

TEST(Decorators, TracingNetDevIsByteForByteTransparent) {
  Ledger ledger;
  ledger.set_enabled(true);
  const KvRun raw = RunKv(false, &ledger);
  ledger.Reset();
  const KvRun traced = RunKv(true, &ledger);
  ASSERT_FALSE(raw.replies.empty());
  EXPECT_EQ(raw.replies, traced.replies);
  EXPECT_EQ(raw.cycles, traced.cycles);
  EXPECT_GT(traced.rx_bursts, 0u);
  EXPECT_GT(ledger.traced().Incl(Layer::kNetdevRx), 0);
  EXPECT_GT(ledger.traced().Incl(Layer::kNetdevTx), 0);
  EXPECT_EQ(ledger.traced().SelfSum(), ledger.traced().root_ns);
}

struct FsRun {
  std::vector<std::uint8_t> disk;
  std::string read_back;
  std::uint64_t write_bytes = 0;
};

// Writes, fsyncs, overwrites and reads files on blockfs over a RamDisk,
// optionally with the block device and the filesystem behind decorators.
FsRun RunFs(bool decorated, Ledger* ledger) {
  ukplat::MemRegion mem(8 << 20);
  ukblockdev::RamDisk disk(&mem, 4096);
  TracingBlockDev bdev(&disk, ledger);
  ukblockdev::BlockDev* dev = decorated ? static_cast<ukblockdev::BlockDev*>(&bdev) : &disk;
  vfscore::BlockFs fs(dev, &mem);
  TracingFs tfs(&fs, ledger);
  FsRun run;
  if (!ukarch::Ok(fs.EnsureFormatted())) {
    return run;
  }
  vfscore::Vfs vfs;
  if (!ukarch::Ok(vfs.Mount("/d", decorated ? static_cast<vfscore::FsDriver*>(&tfs) : &fs))) {
    return run;
  }
  Span root(ledger, Layer::kPersist);
  std::string data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(static_cast<char>('A' + (i * 7) % 53));
  }
  for (const char* name : {"/d/a", "/d/b"}) {
    std::shared_ptr<vfscore::File> f;
    if (!ukarch::Ok(vfs.Open(name, vfscore::kWrite | vfscore::kCreate, &f))) {
      return run;
    }
    f->Write(std::as_bytes(std::span(data.data(), data.size())));
    f->Fsync();
    f->WriteAt(5000, std::as_bytes(std::span(data.data(), 100)));
  }
  std::shared_ptr<vfscore::File> f;
  if (ukarch::Ok(vfs.Open("/d/b", vfscore::kRead, &f))) {
    run.read_back.resize(data.size());
    f->Read(std::as_writable_bytes(std::span(run.read_back.data(), run.read_back.size())));
  }
  run.disk = disk.backing();
  run.write_bytes = bdev.counts().write_bytes;
  return run;
}

TEST(Decorators, TracingBlockDevAndFsAreByteForByteTransparent) {
  Ledger ledger;
  ledger.set_enabled(true);
  const FsRun raw = RunFs(false, &ledger);
  ledger.Reset();
  const FsRun traced = RunFs(true, &ledger);
  ASSERT_EQ(raw.read_back.size(), 20000u);
  EXPECT_EQ(raw.read_back, traced.read_back);
  EXPECT_TRUE(raw.disk == traced.disk);
  EXPECT_GT(traced.write_bytes, 40000u);
  EXPECT_GT(ledger.traced().Incl(Layer::kVfs), 0);
  EXPECT_GT(ledger.traced().Incl(Layer::kBlockdev), 0);
  EXPECT_EQ(ledger.traced().SelfSum(), ledger.traced().root_ns);
}

}  // namespace
}  // namespace perfbench
