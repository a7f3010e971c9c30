// perfbench/udp_workload.cpp - udp-kv-4q: the specialized key-value server
// of the paper's Table 4 (apps::KvServer coded straight against uknetdev, no
// TCP/IP stack, no posix layer) with 4 RSS queues, one pump per queue.
//
// The generator writes raw UDP frames onto the wire: 4 flows, each with a
// source port chosen so the device's RSS hash steers it to its own queue,
// and a window of 32 requests in flight per flow. 90% GET / 10% SET of 64 B
// values; SETs go to keys the flow's own shard owns, and 1 GET in 8 reads a
// key another shard owns, which the server resolves over its shard rings
// (cross-shard ops). A flow never has two requests on one key in flight, so
// a GET reply (the bare value, which starts with its key) and a SET reply
// ('K', in order per flow) each match exactly one request.
#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/kvstore.h"
#include "decorators.h"
#include "env/profile.h"
#include "generator.h"
#include "ukboot/instance.h"
#include "uknet/wire_format.h"
#include "uknetdev/rss.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::uint16_t kKvPort = 7777;
constexpr std::uint16_t kQueues = 4;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kHomeKeys = 512;    // per flow, in its own shard
constexpr std::size_t kForeignKeys = 64;  // per flow, in other shards
constexpr std::size_t kValueBytes = 64;   // = KvServer::kMaxInlineValue
constexpr double kSetShare = 0.10;
constexpr double kForeignGetShare = 0.125;
constexpr std::uint64_t kWarmupReplies = 20000;
const uknetdev::MacAddr kServerMac{{2, 0, 0, 0, 0, 1}};
const uknetdev::MacAddr kClientMac{{2, 0, 0, 0, 0, 9}};
const uknet::Ip4Addr kServerIp = uknet::MakeIp(10, 0, 0, 1);
const uknet::Ip4Addr kClientIp = uknet::MakeIp(10, 0, 0, 2);

std::vector<std::uint8_t> BuildFrame(std::uint16_t src_port,
                                     std::span<const std::uint8_t> payload) {
  using namespace uknet;
  std::vector<std::uint8_t> frame(kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes +
                                  payload.size());
  EthHeader{kServerMac, kClientMac, kEthTypeIp4}.Serialize(frame.data());
  Ip4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - kEthHdrBytes);
  ip.proto = kIpProtoUdp;
  ip.src = kClientIp;
  ip.dst = kServerIp;
  ip.Serialize(frame.data() + kEthHdrBytes);
  std::memcpy(frame.data() + kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes,
              payload.data(), payload.size());
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = kKvPort;
  udp.Serialize(frame.data() + kEthHdrBytes + kIp4HdrBytes, kClientIp, kServerIp,
                payload);
  return frame;
}

class UdpWorkload final : public Workload {
 public:
  UdpWorkload(std::uint64_t seed, Ledger* ledger)
      : seed_(seed), rng_(seed), ledger_(ledger), wire_(&clock_, WireConfig()),
        version_(65536, 0), busy_key_(65536, 0), busy_ns_(kQueues, 0) {
    ukboot::InstanceConfig icfg;
    icfg.name = "kvstore";
    icfg.memory_bytes = kGuestRamBytes;
    icfg.allocator = env::Profile::UnikraftKvm().allocator;
    icfg.vmm = env::Profile::UnikraftKvm().vmm;
    icfg.nics = 1;
    instance_ = std::make_unique<ukboot::Instance>(icfg);
    instance_->RegisterInit(
        ukboot::InitStage::kBus, "virtio-net", [this](ukboot::Instance& inst) {
          uknetdev::VirtioNet::Config cfg;
          cfg.backend = uknetdev::VirtioBackend::kVhostUser;  // poll mode (§6.4)
          cfg.wire_side = 0;
          cfg.mac = kServerMac;
          cfg.queue_size = 256;
          cfg.max_queue_pairs = kQueues;
          nic_ = std::make_unique<uknetdev::VirtioNet>(&inst.mem(), &clock_, &wire_, cfg);
          dev_ = std::make_unique<TracingNetDev>(nic_.get(), ledger_);
          return ukarch::Status::kOk;
        });
    instance_->RegisterInit(
        ukboot::InitStage::kLate, "kvstore", [this](ukboot::Instance& inst) {
          server_ = std::make_unique<apps::KvServer>(dev_.get(), &inst.mem(), inst.heap(),
                                                     kServerIp, kKvPort,
                                                     apps::KvMode::kUkNetdev, kQueues);
          return server_->Start() && server_->queue_count() == kQueues
                     ? ukarch::Status::kOk
                     : ukarch::Status::kNoMem;
        });
    AssignFlows();
  }

  ~UdpWorkload() override { Kill(); }

  bool SetUp() {
    if (!Boot().ok) {
      return false;
    }
    // Preload every key over the flow its shard belongs to: local SETs.
    for (Flow& f : flows_) {
      for (std::uint16_t k : f.home) {
        f.queued.push_back({'S', k});
      }
    }
    for (const Flow& f : flows_) {
      for (std::uint16_t k : f.foreign) {
        flows_[apps::KvServer::ShardForKey(k, kQueues)].queued.push_back({'S', k});
      }
    }
    const std::uint64_t target = kWarmupReplies + kQueues * (kHomeKeys + kForeignKeys);
    std::vector<std::int64_t> lat;
    for (int guard = 0; guard < 5'000'000 && replies_ < target; ++guard) {
      lat.clear();
      Step(&lat);
    }
    return replies_ >= target && failed_ == 0;
  }

  std::size_t Step(std::vector<std::int64_t>* latencies_ns) override {
    if (server_ == nullptr) {
      return 0;  // the server did not come back; the harness's stall guard fails the run
    }
    const std::int64_t c0 = NowNs();
    std::size_t got = 0;
    while (auto frame = wire_.Receive(1)) {
      got += Verify(*frame, latencies_ns);
    }
    for (Flow& f : flows_) {
      FillWindow(f);
    }
    client_ns_ += NowNs() - c0;

    {
      Span span(ledger_, Layer::kBackendPoll);
      nic_->BackendPoll();
    }
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      const std::int64_t t0 = NowNs();
      {
        Span span(ledger_, Layer::kKvPump);
        server_->PumpQueue(q);
      }
      busy_ns_[q] += NowNs() - t0;
    }
    return got;
  }

  void StopLoad() override { loading_ = false; }

  bool Idle() const override {
    for (const Flow& f : flows_) {
      if (!f.gets.empty() || !f.sets.empty() || !f.queued.empty() || f.probes != 0) {
        return false;
      }
    }
    return true;
  }

  void Restart() override {
    restart_t0_ = NowNs();
    RestartSample sample;
    AddServer(&retired_);
    sample.kill_ms = Kill();
    const ukboot::BootReport report = Boot();
    if (!report.ok) {
      ++failed_;
      return;
    }
    for (const ukboot::BootStageTime& st : report.stages) {
      sample.stages_us.emplace_back(st.name, st.real_ns / 1e3);
    }
    flows_[0].queued.push_back({'P', 0});
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
    AddServer(&c);
    return c;
  }

  void FailOutstanding() override {
    for (Flow& f : flows_) {
      failed_ += f.gets.size() + f.sets.size() + f.queued.size() + f.probes;
      for (const auto& [key, pd] : f.gets) {
        busy_key_[key] = 0;
      }
      for (const Pending& pd : f.sets) {
        busy_key_[pd.key] = 0;
      }
      f.gets.clear();
      f.sets.clear();
      f.queued.clear();
      f.probes = 0;
    }
  }

  std::vector<std::int64_t> QueueBusyNs() const override { return busy_ns_; }

 private:
  struct Pending {
    std::int64_t sent_ns = 0;
    std::uint16_t key = 0;
    std::uint32_t version = 0;
  };
  struct Request {
    char kind;  // 'G', 'S', 'P'
    std::uint16_t key;
  };
  struct Flow {
    std::uint16_t port = 0;
    std::vector<std::uint16_t> home;
    std::vector<std::uint16_t> foreign;
    std::unordered_map<std::uint16_t, Pending> gets;  // by key
    std::deque<Pending> sets;                         // replies come in order
    std::deque<Request> queued;
    std::size_t probes = 0;
    std::int64_t probe_sent_ns = 0;
    std::size_t InFlight() const { return gets.size() + sets.size() + probes; }
  };

  static ukplat::Wire::Config WireConfig() {
    ukplat::Wire::Config cfg;
    cfg.queue_depth = 1 << 16;
    return cfg;
  }

  // Source ports aligned one-to-one with the RSS queues, then disjoint key
  // sets: each flow's home keys live in its own queue's shard, its foreign
  // keys in the others'.
  void AssignFlows() {
    flows_.resize(kQueues);
    std::vector<bool> have(kQueues, false);
    for (std::uint16_t port = 41000; std::count(have.begin(), have.end(), true) < kQueues;
         ++port) {
      const std::uint8_t ping = 'P';
      const std::vector<std::uint8_t> probe = BuildFrame(port, std::span(&ping, 1));
      const std::uint16_t q = uknetdev::RssQueueForFrame(probe.data(), probe.size(), kQueues);
      if (!have[q]) {
        have[q] = true;
        flows_[q].port = port;
      }
    }
    for (std::uint32_t k = 0; k < 65536; ++k) {
      const auto key = static_cast<std::uint16_t>(k);
      const std::uint16_t shard = apps::KvServer::ShardForKey(key, kQueues);
      Flow& home = flows_[shard];
      Flow& other = flows_[(shard + 1) % kQueues];
      if (home.home.size() < kHomeKeys) {
        home.home.push_back(key);
      } else if (other.foreign.size() < kForeignKeys) {
        other.foreign.push_back(key);
      }
    }
  }

  ukboot::BootReport Boot() {
    Span span(ledger_, Layer::kBoot);
    return instance_->Boot();
  }

  double Kill() {
    if (server_ == nullptr) {
      return 0.0;
    }
    Span span(ledger_, Layer::kBoot);
    const std::int64_t t0 = NowNs();
    server_.reset();
    dev_.reset();
    nic_.reset();
    wire_.ResetPort(0);
    instance_->Shutdown();
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

  void AddServer(Counters* c) const {
    if (server_ == nullptr) {
      return;
    }
    const ukalloc::AllocStats& heap = instance_->heap()->stats();
    c->mallocs += heap.malloc_calls;
    c->heap_peak_bytes = std::max(c->heap_peak_bytes, heap.peak_bytes);
    c->rx_bursts += dev_->counts().rx_bursts;
    c->empty_rx_bursts += dev_->counts().empty_rx_bursts;
    c->rx_pkts += dev_->counts().rx_pkts;
    c->kicks += nic_->kicks();
    c->cross_shard_ops += server_->cross_shard_ops();
  }

  void ValueFor(std::uint16_t key, std::uint32_t version) {
    FillValue(&value_, seed_, key, version, kValueBytes);
    value_[0] = static_cast<char>(key & 0xff);
    value_[1] = static_cast<char>(key >> 8);
  }

  void Send(Flow& f, char kind, std::uint16_t key, std::int64_t now) {
    payload_.clear();
    payload_.push_back(static_cast<std::uint8_t>(kind));
    if (kind == 'P') {
      ++f.probes;
      f.probe_sent_ns = now;
    } else {
      payload_.push_back(static_cast<std::uint8_t>(key & 0xff));
      payload_.push_back(static_cast<std::uint8_t>(key >> 8));
      busy_key_[key] = 1;
      if (kind == 'S') {
        const std::uint32_t v = ++version_[key];
        ValueFor(key, v);
        payload_.push_back(static_cast<std::uint8_t>(kValueBytes & 0xff));
        payload_.push_back(static_cast<std::uint8_t>(kValueBytes >> 8));
        payload_.insert(payload_.end(), value_.begin(), value_.end());
        f.sets.push_back({now, key, v});
      } else {
        f.gets[key] = Pending{now, key, version_[key]};
      }
    }
    wire_.Send(1, BuildFrame(f.port, payload_));
    ++attempted_;
  }

  // Picks a key of |keys| that has no request in flight (0 if none free).
  bool PickFree(const std::vector<std::uint16_t>& keys, std::uint16_t* out) {
    std::size_t i = rng_.Below(keys.size());
    for (std::size_t tries = 0; tries < keys.size(); ++tries, i = (i + 1) % keys.size()) {
      if (busy_key_[keys[i]] == 0) {
        *out = keys[i];
        return true;
      }
    }
    return false;
  }

  // Closed loop: tops the flow's window back up to kWindow.
  void FillWindow(Flow& f) {
    const std::int64_t now = NowNs();
    while (f.InFlight() < kWindow && !f.queued.empty()) {
      Send(f, f.queued.front().kind, f.queued.front().key, now);
      f.queued.pop_front();
    }
    while (loading_ && !restart_pending_ && f.InFlight() < kWindow) {
      std::uint16_t key = 0;
      if (rng_.Chance(kSetShare)) {
        if (!PickFree(f.home, &key)) {
          break;
        }
        Send(f, 'S', key, now);
      } else {
        const bool foreign = rng_.Chance(kForeignGetShare);
        if (!PickFree(foreign ? f.foreign : f.home, &key)) {
          break;
        }
        Send(f, 'G', key, now);
      }
    }
  }

  std::size_t Verify(const std::vector<std::uint8_t>& raw, std::vector<std::int64_t>* lat) {
    using namespace uknet;
    const std::span<const std::uint8_t> frame(raw);
    if (frame.size() < kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes) {
      ++failed_;
      return 0;
    }
    auto ip = Ip4Header::Parse(frame.subspan(kEthHdrBytes));
    if (!ip.has_value() || ip->proto != kIpProtoUdp) {
      ++failed_;
      return 0;
    }
    auto body = frame.subspan(kEthHdrBytes + ip->header_len, ip->total_len - ip->header_len);
    auto udp = UdpHeader::Parse(body, ip->src, ip->dst);
    auto flow = std::find_if(flows_.begin(), flows_.end(),
                             [&](const Flow& f) { return udp && f.port == udp->dst_port; });
    if (!udp.has_value() || flow == flows_.end()) {
      ++failed_;
      return 0;
    }
    const auto reply = body.subspan(kUdpHdrBytes, udp->length - kUdpHdrBytes);
    const std::int64_t now = NowNs();
    std::int64_t sent = 0;
    bool ok = false;
    if (reply.size() == 1 && reply[0] == 'K' && !flow->sets.empty()) {
      const Pending pd = flow->sets.front();
      flow->sets.pop_front();
      busy_key_[pd.key] = 0;
      user_write_bytes_ += 2 + kValueBytes;
      sent = pd.sent_ns;
      ok = true;
    } else if (reply.size() == 1 && reply[0] == 'P' && flow->probes != 0) {
      --flow->probes;
      sent = flow->probe_sent_ns;
      ok = true;
    } else if (reply.size() == kValueBytes) {
      const auto key = static_cast<std::uint16_t>(reply[0] | (reply[1] << 8));
      auto it = flow->gets.find(key);
      if (it != flow->gets.end()) {
        ValueFor(key, it->second.version);
        ok = std::memcmp(reply.data(), value_.data(), kValueBytes) == 0;
        sent = it->second.sent_ns;
        busy_key_[key] = 0;
        flow->gets.erase(it);
      }
    }
    if (!ok) {
      ++failed_;
      return 0;
    }
    ++replies_;
    lat->push_back(now - sent);
    NoteVerifiedReply(now);
    return 1;
  }

  std::uint64_t seed_;
  Rng rng_;
  Ledger* ledger_;
  ukplat::Clock clock_;
  ukplat::Wire wire_;
  std::unique_ptr<ukboot::Instance> instance_;
  std::unique_ptr<uknetdev::VirtioNet> nic_;
  std::unique_ptr<TracingNetDev> dev_;
  std::unique_ptr<apps::KvServer> server_;
  std::vector<Flow> flows_;

  std::vector<std::uint32_t> version_;  // the model: last written version per key
  std::vector<std::uint8_t> busy_key_;
  std::vector<std::int64_t> busy_ns_;  // per-queue PumpQueue host time
  bool loading_ = true;
  std::uint64_t replies_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t user_write_bytes_ = 0;
  std::int64_t client_ns_ = 0;
  Counters retired_;
  std::string value_;
  std::vector<std::uint8_t> payload_;
};

}  // namespace

std::unique_ptr<Workload> MakeUdpWorkload(std::uint64_t seed, Ledger* ledger) {
  auto w = std::make_unique<UdpWorkload>(seed, ledger);
  if (!w->SetUp()) {
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
