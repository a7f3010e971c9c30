// perfbench/trace.h - span ledger for the traced pass.
//
// Spans are recorded from OUTSIDE the library: around the server calls the
// workload loop makes (root spans) and inside the forwarding decorators and
// turn-end hooks it installs (nested spans). Each closed span adds its
// duration to its layer's inclusive time and its duration minus the time its
// direct children covered to the layer's self time, so the self times of all
// layers sum to the root spans' total: nothing the server did goes
// unattributed.
//
// Root spans are always timed (server_ns_per_req needs them with tracing
// off); nested spans only while tracing is enabled. Totals are kept apart
// per tracing state so a run can alternate traced and untraced slices.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBackendPoll,  // VirtioNet::BackendPoll called by the loop (vhost thread)
  kNetdevRx,     // NetDev::RxBurst through the decorator
  kNetdevTx,     // NetDev::TxBurst through the decorator
  kNetPoll,      // NetStack::Poll called by the loop
  kLoop,         // one apps::EventLoop turn (RedisServer::PumpOnce)
  kPersist,      // Persist::OnTurnEnd (turn-end hooks) or a BGSAVE start
  kVfs,          // vfscore node operations through the decorator
  kBlockdev,     // BlockDev::Submit / ProcessCompletions through the decorator
  kKvPump,       // KvServer::PumpQueue
  kBoot,         // kill + reboot of the server instance (not serving time)
  kCount,
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  static constexpr int kLayers = static_cast<int>(Layer::kCount);

  struct Totals {
    std::array<std::int64_t, kLayers> incl_ns{};
    std::array<std::int64_t, kLayers> self_ns{};
    std::int64_t root_ns = 0;  // sum of root spans

    std::int64_t Incl(Layer l) const { return incl_ns[static_cast<int>(l)]; }
    std::int64_t Self(Layer l) const { return self_ns[static_cast<int>(l)]; }
    std::int64_t SelfSum() const {
      std::int64_t s = 0;
      for (std::int64_t v : self_ns) {
        s += v;
      }
      return s;
    }
    // The server's serving time: every root span except restarts, which
    // restart_ms reports on its own.
    std::int64_t ServingNs() const { return root_ns - Incl(Layer::kBoot); }
  };

  // Switch only between root spans: a span's totals go where it ends.
  void set_enabled(bool on) { enabled_ = on; }
  void Reset() { totals_ = {}; }

  // Root spans are always recorded; nested spans only while enabled.
  // Returns whether a span was opened (End() must follow exactly then).
  bool Begin(Layer layer) { return BeginAt(layer, NowNs()); }
  void End() { EndAt(NowNs()); }

  // Test seams: open / close the innermost span at an explicit timestamp.
  bool BeginAt(Layer layer, std::int64_t now) {
    if ((depth_ > 0 && !enabled_) || depth_ == kMaxDepth) {
      return false;
    }
    stack_[depth_++] = Frame{layer, now, 0};
    return true;
  }
  void EndAt(std::int64_t now) {
    const Frame& f = stack_[--depth_];
    const std::int64_t d = now - f.start;
    Totals& t = totals_[enabled_ ? 1 : 0];
    const int l = static_cast<int>(f.layer);
    t.incl_ns[l] += d;
    t.self_ns[l] += d - f.child;
    if (depth_ > 0) {
      stack_[depth_ - 1].child += d;
    } else {
      t.root_ns += d;
    }
  }

  int depth() const { return depth_; }
  const Totals& traced() const { return totals_[1]; }
  const Totals& untraced() const { return totals_[0]; }
  std::int64_t ServingNs() const {
    return totals_[0].ServingNs() + totals_[1].ServingNs();
  }

 private:
  struct Frame {
    Layer layer = Layer::kCount;
    std::int64_t start = 0;
    std::int64_t child = 0;
  };
  static constexpr int kMaxDepth = 16;

  bool enabled_ = false;
  int depth_ = 0;
  std::array<Frame, kMaxDepth> stack_{};
  std::array<Totals, 2> totals_{};
};

// RAII span; a no-op when the ledger declined to open it.
class Span {
 public:
  Span(Ledger* ledger, Layer layer)
      : ledger_(ledger), open_(ledger != nullptr && ledger->Begin(layer)) {}
  ~Span() {
    if (open_) {
      ledger_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  bool open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
