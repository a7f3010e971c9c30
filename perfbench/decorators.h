// perfbench/decorators.h - forwarding wrappers that time calls into a layer's
// public interface from outside it.
//
// Each decorator forwards every call unchanged to the object it wraps (the
// unit tests check they are byte-for-byte transparent) and, while the ledger
// traces, records one span per call. Counts are kept always: they cost an
// increment and never depend on timing.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <memory>

#include "trace.h"
#include "ukblockdev/blockdev.h"
#include "uknetdev/netdev.h"
#include "vfscore/node.h"

namespace perfbench {

class TracingNetDev final : public uknetdev::NetDev {
 public:
  struct Counts {
    std::uint64_t rx_bursts = 0;
    std::uint64_t empty_rx_bursts = 0;
    std::uint64_t rx_pkts = 0;
  };

  TracingNetDev(uknetdev::NetDev* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  uknetdev::DevInfo Info() const override { return inner_->Info(); }
  uknetdev::MacAddr mac() const override { return inner_->mac(); }
  ukarch::Status Configure(const uknetdev::DevConf& conf) override {
    return inner_->Configure(conf);
  }
  ukarch::Status TxQueueSetup(std::uint16_t q, const uknetdev::TxQueueConf& c) override {
    return inner_->TxQueueSetup(q, c);
  }
  ukarch::Status RxQueueSetup(std::uint16_t q, const uknetdev::RxQueueConf& c) override {
    return inner_->RxQueueSetup(q, c);
  }
  ukarch::Status Start() override { return inner_->Start(); }
  int TxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt, std::uint16_t* cnt) override;
  int RxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt, std::uint16_t* cnt) override;
  ukarch::Status RxIntrEnable(std::uint16_t q) override { return inner_->RxIntrEnable(q); }
  ukarch::Status RxIntrDisable(std::uint16_t q) override { return inner_->RxIntrDisable(q); }
  Stats stats() const override { return inner_->stats(); }
  Stats QueueStats(std::uint16_t q) const override { return inner_->QueueStats(q); }

  const Counts& counts() const { return counts_; }

 private:
  uknetdev::NetDev* inner_;
  Ledger* ledger_;
  Counts counts_;
};

class TracingBlockDev final : public ukblockdev::BlockDev {
 public:
  struct Counts {
    std::uint64_t submits = 0;
    std::uint64_t write_bytes = 0;
  };

  TracingBlockDev(ukblockdev::BlockDev* inner, Ledger* ledger);
  ~TracingBlockDev() override { inner_->SetCompletionHandler(nullptr); }
  TracingBlockDev(const TracingBlockDev&) = delete;
  TracingBlockDev& operator=(const TracingBlockDev&) = delete;

  const char* name() const override { return inner_->name(); }
  ukblockdev::Geometry geometry() const override { return inner_->geometry(); }
  bool Submit(ukblockdev::Request* req) override;
  std::size_t ProcessCompletions(std::size_t max) override;

  const Counts& counts() const { return counts_; }

 private:
  ukblockdev::BlockDev* inner_;
  Ledger* ledger_;
  Counts counts_;
};

// vfscore has no single device-like interface: an FsDriver hands
// out a tree of nodes. The decorator wraps the filesystem's root and every node
// reached from it, so each file or directory operation below the mount is
// one span.
class TracingFs final : public vfscore::FsDriver {
 public:
  TracingFs(vfscore::FsDriver* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  const char* fs_name() const override { return inner_->fs_name(); }
  ukarch::Status Mount(std::shared_ptr<vfscore::Node>* root) override;

 private:
  vfscore::FsDriver* inner_;
  Ledger* ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
