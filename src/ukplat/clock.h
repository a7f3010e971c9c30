// ukplat/clock.h - virtual cycle ledger and hardware cost model.
//
// The paper's measurements were taken on an Intel i7-9700K @ 3.6 GHz behind
// KVM/Xen. We cannot take VM exits in this environment, so every modeled
// hardware/hypervisor event (trap, KPTI flush, VM exit, vhost kick, interrupt
// injection, wire transfer) charges cycles to a Clock owned by the simulated
// world. Real data-structure work (ring updates, copies, parsing) still
// executes for real; only privilege/device-crossing costs are charged.
//
// The constants come from the paper's own Table 1 (syscall costs) plus widely
// published KVM exit/vhost numbers; bench/BENCH.md ("Calibration") documents
// the calibration.
#ifndef UKPLAT_CLOCK_H_
#define UKPLAT_CLOCK_H_

#include <cstddef>
#include <cstdint>

namespace ukplat {

// Cycle costs of modeled events. All values are cycles on the paper's 3.6 GHz
// machine unless stated otherwise.
struct CostModel {
  double cpu_ghz = 3.6;

  // Table 1 of the paper.
  std::uint64_t function_call = 4;          // plain call/ret
  std::uint64_t syscall_trap_mitigated = 222;   // Linux syscall with KPTI etc.
  std::uint64_t syscall_trap_plain = 154;   // Linux syscall, mitigations off
  std::uint64_t binary_compat_dispatch = 84;    // Unikraft run-time syscall translation

  // Hypervisor events (public KVM numbers, order-of-magnitude).
  std::uint64_t vm_exit = 1800;             // lightweight VM exit + entry
  std::uint64_t vhost_kick = 1100;          // eventfd signal to vhost thread
  std::uint64_t irq_inject = 700;           // posted interrupt into the guest
  std::uint64_t pio_exit = 2400;            // port-IO exit (QEMU device emu)

  // Per-packet backend processing (Fig 19's vhost-net vs vhost-user gap):
  // vhost-net traverses the host kernel tap path per packet; vhost-user is a
  // DPDK-style userspace poller touching only the rings.
  std::uint64_t vhost_net_per_packet = 950;
  std::uint64_t vhost_user_per_packet = 160;

  // Data movement: ~16 bytes/cycle sustained copy bandwidth.
  double copy_cycles_per_byte = 0.0625;

  // Per-hop wire cost: serialization handled by Wire using link_gbps.
  double link_gbps = 10.0;

  std::uint64_t CopyCost(std::size_t bytes) const {
    return static_cast<std::uint64_t>(static_cast<double>(bytes) * copy_cycles_per_byte);
  }

  double CyclesToNs(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / cpu_ghz;
  }

  std::uint64_t NsToCycles(double ns) const {
    return static_cast<std::uint64_t>(ns * cpu_ghz);
  }
};

// Monotonic virtual clock. One per simulated world; components hold a pointer
// and charge the events they model. Never wraps in practice (2^64 cycles).
class Clock {
 public:
  explicit Clock(CostModel model = CostModel{}) : model_(model) {}

  void Charge(std::uint64_t cycles) { cycles_ += cycles; }
  void ChargeCopy(std::size_t bytes) { cycles_ += model_.CopyCost(bytes); }

  std::uint64_t cycles() const { return cycles_; }
  double nanoseconds() const { return model_.CyclesToNs(cycles_); }
  double microseconds() const { return nanoseconds() / 1e3; }
  double milliseconds() const { return nanoseconds() / 1e6; }

  const CostModel& model() const { return model_; }

  void Reset() { cycles_ = 0; }

 private:
  CostModel model_;
  std::uint64_t cycles_ = 0;
};

// Scoped delta measurement against a Clock, for per-phase boot accounting.
class ClockSpan {
 public:
  explicit ClockSpan(const Clock& clock) : clock_(clock), start_(clock.cycles()) {}
  std::uint64_t ElapsedCycles() const { return clock_.cycles() - start_; }
  double ElapsedNs() const { return clock_.model().CyclesToNs(ElapsedCycles()); }

 private:
  const Clock& clock_;
  std::uint64_t start_;
};

}  // namespace ukplat

#endif  // UKPLAT_CLOCK_H_
