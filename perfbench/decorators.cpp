#include "decorators.h"

namespace perfbench {

int TracingNetDev::TxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt,
                           std::uint16_t* cnt) {
  Span span(ledger_, Layer::kNetdevTx);
  return inner_->TxBurst(queue, pkt, cnt);
}

int TracingNetDev::RxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt,
                           std::uint16_t* cnt) {
  Span span(ledger_, Layer::kNetdevRx);
  const int flags = inner_->RxBurst(queue, pkt, cnt);
  ++counts_.rx_bursts;
  counts_.rx_pkts += *cnt;
  counts_.empty_rx_bursts += *cnt == 0 ? 1 : 0;
  return flags;
}

TracingBlockDev::TracingBlockDev(ukblockdev::BlockDev* inner, Ledger* ledger)
    : inner_(inner), ledger_(ledger) {
  // Completions fire on the wrapped device; re-raise them here so a handler
  // installed on the decorator sees exactly what it would see on the device.
  inner_->SetCompletionHandler(
      [this](ukblockdev::Request* req) { Complete(req, req->result); });
}

bool TracingBlockDev::Submit(ukblockdev::Request* req) {
  Span span(ledger_, Layer::kBlockdev);
  const bool ok = inner_->Submit(req);
  if (ok) {
    ++counts_.submits;
    if (req->op == ukblockdev::Request::Op::kWrite) {
      counts_.write_bytes +=
          std::uint64_t{req->count} * inner_->geometry().sector_bytes;
    }
  }
  return ok;
}

std::size_t TracingBlockDev::ProcessCompletions(std::size_t max) {
  Span span(ledger_, Layer::kBlockdev);
  return inner_->ProcessCompletions(max);
}

namespace {

class TracingNode final : public vfscore::Node {
 public:
  TracingNode(std::shared_ptr<vfscore::Node> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  vfscore::NodeType type() const override { return inner_->type(); }
  vfscore::NodeStat Stat() const override { return inner_->Stat(); }

  ukarch::Status Lookup(std::string_view name,
                        std::shared_ptr<vfscore::Node>* out) override {
    Span span(ledger_, Layer::kVfs);
    return Wrap(inner_->Lookup(name, out), out);
  }
  ukarch::Status Create(std::string_view name, vfscore::NodeType ntype,
                        std::shared_ptr<vfscore::Node>* out) override {
    Span span(ledger_, Layer::kVfs);
    return Wrap(inner_->Create(name, ntype, out), out);
  }
  ukarch::Status Remove(std::string_view name) override {
    Span span(ledger_, Layer::kVfs);
    return inner_->Remove(name);
  }
  ukarch::Status ReadDir(std::vector<vfscore::DirEntry>* out) override {
    Span span(ledger_, Layer::kVfs);
    return inner_->ReadDir(out);
  }
  std::int64_t Read(std::uint64_t offset, std::span<std::byte> out) override {
    Span span(ledger_, Layer::kVfs);
    return inner_->Read(offset, out);
  }
  std::int64_t Write(std::uint64_t offset, std::span<const std::byte> in) override {
    Span span(ledger_, Layer::kVfs);
    return inner_->Write(offset, in);
  }
  ukarch::Status Truncate(std::uint64_t size) override {
    Span span(ledger_, Layer::kVfs);
    return inner_->Truncate(size);
  }
  ukarch::Status Fsync() override {
    Span span(ledger_, Layer::kVfs);
    return inner_->Fsync();
  }

 private:
  ukarch::Status Wrap(ukarch::Status st, std::shared_ptr<vfscore::Node>* out) {
    if (ukarch::Ok(st) && out != nullptr && *out != nullptr) {
      *out = std::make_shared<TracingNode>(std::move(*out), ledger_);
    }
    return st;
  }

  std::shared_ptr<vfscore::Node> inner_;
  Ledger* ledger_;
};

}  // namespace

ukarch::Status TracingFs::Mount(std::shared_ptr<vfscore::Node>* root) {
  ukarch::Status st = inner_->Mount(root);
  if (ukarch::Ok(st) && *root != nullptr) {
    *root = std::make_shared<TracingNode>(std::move(*root), ledger_);
  }
  return st;
}

}  // namespace perfbench
