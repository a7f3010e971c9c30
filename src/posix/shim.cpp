#include "posix/shim.h"

#include "ukarch/status.h"

namespace posix {

std::uint64_t SyscallShim::EntryCost(DispatchMode mode, const ukplat::CostModel& model) {
  switch (mode) {
    case DispatchMode::kDirectCall: return model.function_call;
    case DispatchMode::kShimTable: return model.function_call * 2;  // one indirection
    case DispatchMode::kBinaryCompat: return model.binary_compat_dispatch;
    case DispatchMode::kLinuxTrap: return model.syscall_trap_mitigated;
    case DispatchMode::kLinuxTrapFast: return model.syscall_trap_plain;
  }
  return 0;
}

void SyscallShim::Register(int nr, SyscallHandler handler) {
  if (nr >= 0 && nr <= kMaxSyscallNr) {
    table_[static_cast<std::size_t>(nr)] = std::move(handler);
  }
}

std::int64_t SyscallShim::Call(int nr, const SyscallArgs& args) {
  ++calls_;
  clock_->Charge(EntryCost(mode_, clock_->model()));
  if (sched_ != nullptr) {
    sched_->PreemptPoint();  // syscalls are the kernel-entry preemption points
  }
  if (nr < 0 || nr > kMaxSyscallNr || table_[static_cast<std::size_t>(nr)] == nullptr) {
    ++enosys_;
    return ukarch::Raw(ukarch::Status::kNoSys);
  }
  return table_[static_cast<std::size_t>(nr)](args);
}

}  // namespace posix
