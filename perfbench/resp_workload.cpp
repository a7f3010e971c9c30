// perfbench/resp_workload.cpp - the three TCP workloads: resp-pipelined,
// resp-pingpong and durable-restart.
//
// Server under test: the unikraft-kvm profile (direct-call syscalls, QEMU
// VMM model, its allocator and virtio backend) booted through a
// ukboot::Instance whose inittab builds virtio-net, optionally blockfs over a
// RamDisk, the TCP/IP stack, and the RESP RedisServer on apps::EventLoop.
// Every device and filesystem the server touches is wrapped in a forwarding
// decorator, so the traced pass can split its time by layer.
//
// Load generator: 4 TCP connections from a second host on the same wire,
// driven closed loop (a connection sends its next pipeline batch only once
// the previous one is fully answered). Each connection owns the keys
// congruent to its index mod 4, and TCP keeps a connection's replies in
// order, so the expected reply of every request is known exactly when it is
// sent.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/persist.h"
#include "apps/redis.h"
#include "apps/resp.h"
#include "decorators.h"
#include "env/profile.h"
#include "env/testbed.h"
#include "generator.h"
#include "posix/api.h"
#include "ukblockdev/ramdisk.h"
#include "ukboot/instance.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"
#include "vfscore/blockfs.h"
#include "vfscore/vfs.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::uint16_t kPort = 6379;
constexpr int kConns = 4;
const uknetdev::MacAddr kServerMac{{2, 0, 0, 0, 0, 1}};
// 32 MiB: two ~2.2 MB snapshot generations plus the AOF segments they need.
constexpr std::uint64_t kDiskSectors = 65536;
// A BGSAVE of the 2.2 MB dataset finishes in ~35 turns at 64 KiB per turn.
// At the 4 KiB default it takes ~550 turns, and the SETs logged meanwhile
// (up to 16 per turn) push the AOF segment past BlockFs::kMaxFileBytes.
constexpr std::size_t kSnapshotChunkBytes = 64 * 1024;

struct RespConfig {
  int pipeline = 1;
  double set_share = 0.0;
  std::size_t value_bytes = 64;
  std::uint32_t keys = 16384;
  bool durable = false;
  std::uint64_t restart_every = 0;  // normal requests between hard kills
  std::uint64_t bgsave_every = 0;   // acknowledged SETs between BGSAVEs
  std::uint64_t warmup_replies = 0;
};

RespConfig ConfigFor(const std::string& name) {
  RespConfig c;
  if (name == "resp-pipelined") {
    c.pipeline = 32;
    c.set_share = 0.10;
    c.warmup_replies = 20000;
  } else if (name == "resp-pingpong") {
    c.pipeline = 1;
    c.warmup_replies = 2000;
  } else {  // durable-restart
    c.pipeline = 4;
    c.set_share = 0.80;
    c.value_bytes = 1024;
    // 2048 x 1 KiB keeps a snapshot near 2.2 MB and an AOF segment (sealed
    // at each BGSAVE, ~2048 SETs plus those logged while the save runs) near
    // 2.1 MB, both well under vfscore::BlockFs::kMaxFileBytes (4.2 MB). A
    // save every 1024 SETs would be safe too, but its start and finish turns
    // would then delay ~1% of requests, right where p99 falls.
    c.keys = 2048;
    c.durable = true;
    // Each reboot reads back every key written since the last one (~all
    // 2048); restarting every 16k requests keeps that read-back near 11% of
    // the traffic, so it does not become a second latency mode that p50
    // lands between.
    c.restart_every = 16384;
    c.bgsave_every = 2048;
    c.warmup_replies = 1000;
  }
  return c;
}

// The server unikernel. The inittab is registered once and replayed by every
// Boot(); Kill() tears down everything it built, in reverse order, without
// any orderly shutdown of the server (only the disk survives).
class RespUnikernel {
 public:
  RespUnikernel(ukplat::Clock* clock, ukplat::Wire* wire, Ledger* ledger,
                bool durable, uknetdev::MacAddr client_mac)
      : clock_(clock), wire_(wire), ledger_(ledger), durable_(durable) {
    const env::Profile profile = env::Profile::UnikraftKvm();
    ukboot::InstanceConfig icfg;
    icfg.name = "redis";
    icfg.memory_bytes = kGuestRamBytes;
    icfg.allocator = profile.allocator;
    icfg.vmm = profile.vmm;
    icfg.nics = 1;
    instance_ = std::make_unique<ukboot::Instance>(icfg);
    instance_->RegisterInit(
        ukboot::InitStage::kBus, "virtio-net",
        [this, backend = profile.backend](ukboot::Instance& inst) {
          uknetdev::VirtioNet::Config cfg;
          cfg.backend = backend;
          cfg.wire_side = 0;
          cfg.mac = kServerMac;
          cfg.queue_size = 256;
          nic_ = std::make_unique<uknetdev::VirtioNet>(&inst.mem(), clock_, wire_, cfg);
          dev_ = std::make_unique<TracingNetDev>(nic_.get(), ledger_);
          return ukarch::Status::kOk;
        });
    if (durable_) {
      instance_->RegisterInit(
          ukboot::InitStage::kRootfs, "blockfs", [this](ukboot::Instance& inst) {
            if (disk_ == nullptr) {
              disk_ = std::make_unique<ukblockdev::RamDisk>(&inst.mem(), kDiskSectors);
            }
            bdev_ = std::make_unique<TracingBlockDev>(disk_.get(), ledger_);
            blockfs_ = std::make_unique<vfscore::BlockFs>(bdev_.get(), &inst.mem());
            const ukarch::Status st = blockfs_->EnsureFormatted();
            if (!ukarch::Ok(st)) {
              return st;
            }
            fs_ = std::make_unique<TracingFs>(blockfs_.get(), ledger_);
            return vfs_.Mount("/persist", fs_.get());
          });
    }
    instance_->RegisterInit(
        ukboot::InitStage::kSys, "netstack",
        [this, client_mac](ukboot::Instance& inst) {
          stack_ = std::make_unique<uknet::NetStack>(&inst.mem(), clock_, inst.heap());
          uknet::NetIf::Config ifcfg;
          ifcfg.ip = env::TestBed::kServerIp;
          ifcfg.queues = 1;
          uknet::NetIf* netif = stack_->AddInterface(dev_.get(), ifcfg);
          if (netif == nullptr) {
            return ukarch::Status::kNoMem;
          }
          netif->AddArpEntry(env::TestBed::kClientIp, client_mac);
          return ukarch::Status::kOk;
        });
    instance_->RegisterInit(
        ukboot::InitStage::kLate, "redis",
        [this, dispatch = profile.dispatch](ukboot::Instance& inst) {
          api_ = std::make_unique<posix::PosixApi>(clock_, &vfs_, stack_.get(), dispatch);
          server_ = std::make_unique<apps::RedisServer>(api_.get(), inst.heap(), kPort);
          if (!server_->Start()) {
            return ukarch::Status::kNoMem;
          }
          if (durable_) {
            apps::Persist::Config pcfg;
            pcfg.dir = "/persist";
            pcfg.fsync = apps::Persist::FsyncPolicy::kEveryTurn;
            pcfg.snapshot_chunk_bytes = kSnapshotChunkBytes;
            persist_ = std::make_unique<apps::Persist>(&vfs_, pcfg);
            // Hooks run in registration order, so these two bracket the
            // OnTurnEnd hook AttachPersist registers.
            server_->loop().AddTurnEndHook(
                [this] { persist_span_ = ledger_->Begin(Layer::kPersist); });
            server_->AttachPersist(persist_.get());
            server_->loop().AddTurnEndHook([this] {
              if (persist_span_) {
                ledger_->End();
                persist_span_ = false;
              }
            });
            const std::int64_t t0 = NowNs();
            server_->RecoverFromPersist();
            recover_ms_ = static_cast<double>(NowNs() - t0) / 1e6;
          }
          return ukarch::Status::kOk;
        });
  }

  ~RespUnikernel() { Kill(); }
  RespUnikernel(const RespUnikernel&) = delete;
  RespUnikernel& operator=(const RespUnikernel&) = delete;

  ukboot::BootReport Boot() {
    Span span(ledger_, Layer::kBoot);
    ukboot::BootReport report = instance_->Boot();
    alive_ = report.ok;
    return report;
  }

  // Returns the host milliseconds the teardown took.
  double Kill() {
    if (!alive_) {
      return 0.0;
    }
    Span span(ledger_, Layer::kBoot);
    const std::int64_t t0 = NowNs();
    server_.reset();
    persist_.reset();
    api_.reset();
    stack_.reset();
    dev_.reset();
    nic_.reset();
    if (durable_) {
      vfs_.Unmount("/persist");
      fs_.reset();
      blockfs_.reset();
      bdev_.reset();
    }
    wire_->ResetPort(0);
    instance_->Shutdown();
    alive_ = false;
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

  // One server turn, as three root spans: the device side (vhost thread),
  // the stack's RX pump, and one event-loop turn (epoll, RESP, replies).
  void Turn() {
    {
      Span span(ledger_, Layer::kBackendPoll);
      nic_->BackendPoll();
    }
    {
      Span span(ledger_, Layer::kNetPoll);
      stack_->Poll();
    }
    std::size_t commands = 0;
    {
      Span span(ledger_, Layer::kLoop);
      commands = server_->PumpOnce();
    }
    ++turns_;
    empty_turns_ += commands == 0 ? 1 : 0;
  }

  // Starts a BGSAVE; false when it could not start.
  bool StartBackgroundSave() {
    Span span(ledger_, Layer::kPersist);
    return persist_->StartBackgroundSave();
  }

  // Adds this incarnation's counters (read through the public stats
  // accessors) to |c|.
  void AddTo(Counters* c) const {
    if (!alive_) {
      return;
    }
    const ukalloc::AllocStats& heap = instance_->heap()->stats();
    c->mallocs += heap.malloc_calls;
    c->heap_peak_bytes = std::max(c->heap_peak_bytes, heap.peak_bytes);
    c->rx_bursts += dev_->counts().rx_bursts;
    c->empty_rx_bursts += dev_->counts().empty_rx_bursts;
    c->rx_pkts += dev_->counts().rx_pkts;
    c->kicks += nic_->kicks();
    c->syscalls += api_->shim().calls();
    for (int fd = 0; fd < 64; ++fd) {
      if (auto sock = api_->fdtab().Get<uknet::TcpSocket>(fd)) {
        AddTcp(sock->tcp_stats(), c);
      }
    }
    if (persist_ != nullptr) {
      const apps::Persist::Stats& ps = persist_->stats();
      c->aof_writes += ps.aof_writes;
      c->fsyncs += ps.fsyncs;
      c->cow_preimages += ps.cow_preimages;
      c->failed += ps.io_errors + ps.snapshots_aborted;
      c->blk_write_bytes += bdev_->counts().write_bytes;
    }
  }

  static void AddTcp(const uknet::TcpSocket::TcpStats& s, Counters* c) {
    c->tcp_segments += s.segments_sent;
    c->tcp_pure_acks += s.pure_acks_sent;
    c->tcp_retransmissions += s.retransmissions;
  }

  // Size of the largest file the durability tier holds (snapshots and AOF
  // segments), read through the same traced filesystem.
  std::uint64_t LargestPersistFile() {
    std::vector<vfscore::DirEntry> entries;
    vfs_.ReadDir("/persist", &entries);
    std::uint64_t largest = 0;
    for (const vfscore::DirEntry& e : entries) {
      vfscore::NodeStat st;
      if (ukarch::Ok(vfs_.Stat("/persist/" + e.name, &st))) {
        largest = std::max(largest, st.size);
      }
    }
    return largest;
  }

  apps::RedisServer& server() { return *server_; }
  apps::Persist* persist() { return persist_.get(); }
  double recover_ms() const { return recover_ms_; }
  std::uint64_t turns() const { return turns_; }
  std::uint64_t empty_turns() const { return empty_turns_; }

 private:
  ukplat::Clock* clock_;
  ukplat::Wire* wire_;
  Ledger* ledger_;
  bool durable_;
  std::unique_ptr<ukboot::Instance> instance_;
  bool alive_ = false;

  std::unique_ptr<uknetdev::VirtioNet> nic_;
  std::unique_ptr<TracingNetDev> dev_;
  std::unique_ptr<ukblockdev::RamDisk> disk_;  // survives every kill
  std::unique_ptr<TracingBlockDev> bdev_;
  std::unique_ptr<vfscore::BlockFs> blockfs_;
  std::unique_ptr<TracingFs> fs_;
  vfscore::Vfs vfs_;
  std::unique_ptr<uknet::NetStack> stack_;
  std::unique_ptr<posix::PosixApi> api_;
  std::unique_ptr<apps::RedisServer> server_;
  std::unique_ptr<apps::Persist> persist_;
  bool persist_span_ = false;
  double recover_ms_ = 0.0;
  std::uint64_t turns_ = 0;
  std::uint64_t empty_turns_ = 0;
};

class RespWorkload final : public Workload {
 public:
  RespWorkload(RespConfig config, std::uint64_t seed, Ledger* ledger)
      : config_(config),
        seed_(seed),
        rng_(seed),
        ledger_(ledger),
        wire_(&clock_),
        client_(&clock_, &wire_, 1, env::TestBed::kClientIp, ukalloc::Backend::kTlsf,
                uknetdev::VirtioBackend::kVhostUser, 64ull << 20, 1),
        server_(&clock_, &wire_, ledger, config.durable, client_.nic->mac()),
        version_(config.keys, 0),
        dirty_(config.keys, 0) {
    client_.netif->AddArpEntry(env::TestBed::kServerIp, kServerMac);
    // Key names are 12 to 27 bytes long, drawn from the seed: the seed picks
    // the inputs, so every size-dependent cost differs a little per seed.
    key_names_.reserve(config.keys);
    for (std::uint32_t k = 0; k < config.keys; ++k) {
      std::string name = "key:" + std::to_string(k) + ":";
      const std::size_t len = 12 + rng_.Below(16);
      while (name.size() < len) {
        name.push_back(static_cast<char>('a' + rng_.Below(26)));
      }
      key_names_.push_back(std::move(name));
    }
  }

  ~RespWorkload() override {
    for (Conn& c : conns_) {
      if (c.sock != nullptr) {
        c.sock->Close();
      }
    }
  }

  // Boot, connect, preload, warm up. False when the world did not come up.
  bool SetUp() {
    if (!server_.Boot().ok || !ConnectAll()) {
      return false;
    }
    if (config_.durable) {
      // Through the wire, so the data is logged and survives the kills.
      for (std::uint32_t k = 0; k < config_.keys; ++k) {
        conns_[k % kConns].queued.push_back({'S', k});
      }
    } else {
      std::string value;
      for (std::uint32_t k = 0; k < config_.keys; ++k) {
        FillValue(&value, seed_, k, 0, config_.value_bytes);
        if (!server_.server().store().Set(key_names_[k], value)) {
          return false;
        }
      }
    }
    // The durable preload rides the warm-up: its SETs are replies too.
    const std::uint64_t target =
        config_.warmup_replies + (config_.durable ? config_.keys : 0);
    std::vector<std::int64_t> lat;
    for (int guard = 0; guard < 5'000'000 && replies_ < target; ++guard) {
      lat.clear();
      Step(&lat);
    }
    return replies_ >= target && failed_ == 0 && !broken_;
  }

  std::size_t Step(std::vector<std::int64_t>* latencies_ns) override {
    if (broken_) {
      return 0;  // the server did not come back; the harness's stall guard fails the run
    }
    const std::int64_t c0 = NowNs();
    client_.stack->Poll();
    std::size_t got = 0;
    for (Conn& c : conns_) {
      got += Reap(c, latencies_ns);
    }
    for (Conn& c : conns_) {
      FillWindow(c);
    }
    client_ns_ += NowNs() - c0;

    if (bgsave_due_ && !server_.persist()->save_active()) {
      bgsave_due_ = false;
      if (!server_.StartBackgroundSave()) {
        ++failed_;
      }
    }
    server_.Turn();
    if (restart_due_ && Idle()) {
      restart_due_ = false;
      Restart();
    }
    return got;
  }

  void StopLoad() override { loading_ = false; }

  bool Idle() const override {
    for (const Conn& c : conns_) {
      if (!c.inflight.empty() || !c.queued.empty() || c.out_off < c.out.size()) {
        return false;
      }
    }
    return true;
  }

  void Restart() override {
    if (config_.durable) {
      // Every snapshot and AOF segment must stay below BlockFs's file cap.
      Span span(ledger_, Layer::kBoot);
      largest_file_ = std::max(largest_file_, server_.LargestPersistFile());
      failed_ += largest_file_ >= vfscore::BlockFs::kMaxFileBytes ? 1 : 0;
    }
    restart_t0_ = NowNs();
    RestartSample sample;
    server_.AddTo(&retired_);
    sample.kill_ms = server_.Kill();
    for (Conn& c : conns_) {
      RespUnikernel::AddTcp(c.sock->tcp_stats(), &retired_);
      c.sock->Close();
      c.sock = nullptr;
      c.rx.clear();
      c.rx_off = 0;
    }
    const ukboot::BootReport report = server_.Boot();
    if (!report.ok || !ConnectAll()) {
      ++failed_;
      broken_ = true;
      return;
    }
    for (const ukboot::BootStageTime& st : report.stages) {
      sample.stages_us.emplace_back(st.name, st.real_ns / 1e3);
    }
    if (config_.durable) {
      sample.recover_ms = server_.recover_ms();
      sample.recovered_keys = static_cast<double>(server_.server().store().size());
      // Every write acknowledged since the previous boot must read back; with
      // none, one seeded key stands in for the first verified reply.
      std::size_t queued = 0;
      for (std::uint32_t k = 0; k < config_.keys; ++k) {
        if (dirty_[k] != 0) {
          conns_[k % kConns].queued.push_back({'G', k});
          dirty_[k] = 0;
          ++queued;
        }
      }
      if (queued == 0) {
        const auto k = static_cast<std::uint32_t>(rng_.Below(config_.keys));
        conns_[k % kConns].queued.push_back({'G', k});
      }
    } else {
      conns_[0].queued.push_back({'P', 0});
    }
    restarts_.push_back(std::move(sample));
    restart_pending_ = true;
  }

  Counters Snapshot() const override {
    Counters c = retired_;
    c.replies = replies_;
    c.attempted = attempted_;
    c.failed += failed_;
    c.modeled_cycles = clock_.cycles();
    c.client_ns = client_ns_;
    c.wire_frames = wire_.frames_sent();
    c.wire_bytes = wire_.bytes_sent();
    c.user_write_bytes = user_write_bytes_;
    c.largest_persist_file = largest_file_;
    c.loop_turns = server_.turns();
    c.empty_turns = server_.empty_turns();
    for (const Conn& conn : conns_) {
      if (conn.sock != nullptr) {
        RespUnikernel::AddTcp(conn.sock->tcp_stats(), &c);
      }
    }
    server_.AddTo(&c);
    return c;
  }

  void FailOutstanding() override {
    for (Conn& c : conns_) {
      failed_ += c.inflight.size() + c.queued.size();
      c.inflight.clear();
      c.queued.clear();
    }
  }

 private:
  struct Request {
    char kind;  // 'G' GET, 'S' SET, 'P' PING
    std::uint32_t key;
  };
  struct Pending {
    std::int64_t sent_ns;
    char kind;
    std::uint32_t key;
    std::uint32_t version;  // GET: version expected; SET: version written
  };
  struct Conn {
    std::shared_ptr<uknet::TcpSocket> sock;
    std::string out;  // the current batch; out_off bytes already accepted
    std::size_t out_off = 0;
    std::string rx;
    std::size_t rx_off = 0;
    std::deque<Pending> inflight;
    std::deque<Request> queued;  // preload / read-back / probe, sent first
  };


  bool ConnectAll() {
    conns_.resize(kConns);
    for (Conn& c : conns_) {
      c.sock = client_.stack->TcpConnect(env::TestBed::kServerIp, kPort);
      if (c.sock == nullptr) {
        return false;
      }
    }
    for (int i = 0; i < 10000; ++i) {
      const bool all = std::all_of(conns_.begin(), conns_.end(),
                                   [](const Conn& c) { return c.sock->connected(); });
      if (all) {
        return true;
      }
      client_.stack->Poll();
      server_.Turn();
    }
    return false;
  }

  void Append(Conn& c, char kind, std::uint32_t key, std::int64_t now) {
    const std::string& name = key_names_[key];
    if (kind == 'S') {
      const std::uint32_t v = ++version_[key];
      FillValue(&value_, seed_, key, v, config_.value_bytes);
      apps::RespCommandInto(c.out, {"SET", name, value_});
      c.inflight.push_back({now, kind, key, v});
    } else if (kind == 'G') {
      apps::RespCommandInto(c.out, {"GET", name});
      c.inflight.push_back({now, kind, key, version_[key]});
    } else {
      apps::RespCommandInto(c.out, {"PING"});
      c.inflight.push_back({now, kind, 0, 0});
    }
    ++attempted_;
  }

  // Closed loop: a connection's next batch goes out only once the previous
  // one is fully answered. Queued requests (preload, read-back, probe) go
  // before normal traffic.
  void FillWindow(Conn& c) {
    if (c.inflight.empty() && c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
      const std::int64_t now = NowNs();
      const std::size_t index = static_cast<std::size_t>(&c - conns_.data());
      const std::uint32_t owned = config_.keys / kConns;
      for (int i = 0; i < config_.pipeline; ++i) {
        if (!c.queued.empty()) {
          Append(c, c.queued.front().kind, c.queued.front().key, now);
          c.queued.pop_front();
        } else if (loading_ && !restart_due_ && !restart_pending_) {
          const std::uint32_t key =
              static_cast<std::uint32_t>(index + kConns * rng_.Below(owned));
          Append(c, rng_.Chance(config_.set_share) ? 'S' : 'G', key, now);
          if (config_.restart_every != 0 && ++since_restart_ >= config_.restart_every) {
            since_restart_ = 0;
            restart_due_ = true;
          }
        }
      }
    }
    if (c.out_off < c.out.size()) {
      const std::int64_t n = c.sock->Send(std::span(
          reinterpret_cast<const std::uint8_t*>(c.out.data()) + c.out_off,
          c.out.size() - c.out_off));
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      }
    }
  }

  // Parses and verifies every complete reply buffered on |c|.
  std::size_t Reap(Conn& c, std::vector<std::int64_t>* latencies_ns) {
    std::uint8_t buf[16384];
    for (;;) {
      const std::int64_t n = c.sock->Recv(buf);
      if (n <= 0) {
        break;
      }
      c.rx.append(reinterpret_cast<const char*>(buf), static_cast<std::size_t>(n));
    }
    std::size_t got = 0;
    while (!c.inflight.empty()) {
      const char* p = c.rx.data() + c.rx_off;
      const std::size_t avail = c.rx.size() - c.rx_off;
      const char* eol = apps::FindCrlf(p, avail);
      if (eol == nullptr) {
        break;
      }
      const std::size_t line = static_cast<std::size_t>(eol - p);
      const Pending& pd = c.inflight.front();
      bool ok = false;
      std::size_t used = line + 2;
      if (p[0] == '$' && pd.kind == 'G') {
        const long len = std::strtol(p + 1, nullptr, 10);
        if (len >= 0) {
          used += static_cast<std::size_t>(len) + 2;
          if (avail < used) {
            break;
          }
          FillValue(&value_, seed_, pd.key, pd.version, config_.value_bytes);
          ok = static_cast<std::size_t>(len) == value_.size() &&
               std::memcmp(eol + 2, value_.data(), value_.size()) == 0;
        }
      } else if (p[0] == '+') {
        const std::string_view status(p + 1, line - 1);
        ok = (pd.kind == 'S' && status == "OK") || (pd.kind == 'P' && status == "PONG");
      }
      c.rx_off += used;
      const std::int64_t now = NowNs();
      if (ok) {
        ++replies_;
        ++got;
        latencies_ns->push_back(now - pd.sent_ns);
        NoteVerifiedReply(now);
        if (pd.kind == 'S') {
          dirty_[pd.key] = 1;
          user_write_bytes_ += key_names_[pd.key].size() + config_.value_bytes;
          if (config_.bgsave_every != 0 && ++sets_since_save_ >= config_.bgsave_every) {
            sets_since_save_ = 0;
            bgsave_due_ = true;
          }
        }
      } else {
        ++failed_;
      }
      c.inflight.pop_front();
    }
    if (c.rx_off == c.rx.size()) {
      c.rx.clear();
      c.rx_off = 0;
    } else if (c.rx_off > (1u << 16)) {
      c.rx.erase(0, c.rx_off);
      c.rx_off = 0;
    }
    return got;
  }

  RespConfig config_;
  std::uint64_t seed_;
  Rng rng_;
  Ledger* ledger_;
  ukplat::Clock clock_;
  ukplat::Wire wire_;
  env::SimHost client_;
  RespUnikernel server_;
  std::vector<Conn> conns_;

  // The model: the version each key was last written with (values are a
  // function of it), and the keys written since the last boot.
  std::vector<std::string> key_names_;
  std::vector<std::uint32_t> version_;
  std::vector<std::uint8_t> dirty_;

  bool loading_ = true;
  bool restart_due_ = false;
  bool bgsave_due_ = false;
  bool broken_ = false;
  std::uint64_t since_restart_ = 0;
  std::uint64_t sets_since_save_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t user_write_bytes_ = 0;
  std::uint64_t largest_file_ = 0;
  std::int64_t client_ns_ = 0;
  Counters retired_;  // counters of killed incarnations and closed sockets
  std::string value_;
};

}  // namespace

std::unique_ptr<Workload> MakeRespWorkload(const std::string& name,
                                           std::uint64_t seed, Ledger* ledger) {
  auto w = std::make_unique<RespWorkload>(ConfigFor(name), seed, ledger);
  if (!w->SetUp()) {
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
