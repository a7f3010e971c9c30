// posix/shim.h - the syscall shim layer (§4) with its four dispatch modes.
//
// Table 1 of the paper compares: Linux syscalls (with and without
// mitigations), Unikraft's run-time binary-compat translation, and plain
// function calls. The shim reproduces all four paths over one handler table:
//
//   kDirectCall      — what natively-linked Unikraft apps get: the "syscall"
//                      compiles to a function call (4 cycles).
//   kShimTable       — one indirection through the registered handler table
//                      (what the syscall-shim macro registration produces).
//   kBinaryCompat    — run-time syscall translation as in HermiTux/OSv-style
//                      binary compatibility on Unikraft (84 cycles).
//   kLinuxTrap       — a real Linux guest syscall, mitigations on (222) or
//   kLinuxTrapFast   — off (154).
//
// The cycle constants charge the virtual clock; the handler-table dispatch is
// real code, so the *relative* cost ladder in Table 1 is reproduced by
// construction and measured by bench/tab1_syscall_cost.
#ifndef POSIX_SHIM_H_
#define POSIX_SHIM_H_

#include <array>
#include <cstdint>
#include <functional>

#include "posix/syscalls.h"
#include "ukplat/clock.h"
#include "uksched/scheduler.h"

namespace posix {

enum class DispatchMode {
  kDirectCall,
  kShimTable,
  kBinaryCompat,
  kLinuxTrap,
  kLinuxTrapFast,
};

struct SyscallArgs {
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0;
};
using SyscallHandler = std::function<std::int64_t(const SyscallArgs&)>;

class SyscallShim {
 public:
  SyscallShim(ukplat::Clock* clock, DispatchMode mode,
              uksched::Scheduler* sched = nullptr)
      : clock_(clock), mode_(mode), sched_(sched) {}

  // Registers the handler for syscall |nr| (the uk_syscall_r_* macro analog).
  void Register(int nr, SyscallHandler handler);
  bool Handles(int nr) const {
    return nr >= 0 && nr <= kMaxSyscallNr && table_[static_cast<std::size_t>(nr)] != nullptr;
  }

  // Invokes syscall |nr|: charges the mode's entry cost, runs a preemption
  // point (kernel entry), dispatches, auto-stubs -ENOSYS for unregistered
  // numbers (§4.1: "which our shim layer automatically does").
  std::int64_t Call(int nr, const SyscallArgs& args = SyscallArgs{});

  DispatchMode mode() const { return mode_; }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t enosys_calls() const { return enosys_; }

  // Entry cost in cycles for |mode| under |model| (Table 1 constants).
  static std::uint64_t EntryCost(DispatchMode mode, const ukplat::CostModel& model);

 private:
  ukplat::Clock* clock_;
  DispatchMode mode_;
  uksched::Scheduler* sched_;
  std::array<SyscallHandler, kMaxSyscallNr + 1> table_{};
  std::uint64_t calls_ = 0;
  std::uint64_t enosys_ = 0;
};

}  // namespace posix

#endif  // POSIX_SHIM_H_
