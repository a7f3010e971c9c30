// posix/syscalls.h - x86_64 Linux syscall number space (0..313) and the set
// Unikraft implements (§4.1: "we have implementations for 146 syscalls").
//
// The number->name table drives Fig 5's heatmap and Fig 7's per-application
// support computation; the supported set is the one the syscall shim
// dispatches, everything else auto-stubs to -ENOSYS exactly like the paper's
// shim layer does.
#ifndef POSIX_SYSCALLS_H_
#define POSIX_SYSCALLS_H_

#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

namespace posix {

inline constexpr int kMaxSyscallNr = 313;  // finit_module, like the paper's Fig 5

// Name of syscall |nr| on x86_64 ("" for gaps). Stable data table.
std::string_view SyscallName(int nr);
// Reverse lookup; -1 when unknown.
int SyscallNumber(std::string_view name);

// The 146 syscalls the simulated Unikraft implements or stubs meaningfully.
const std::set<int>& SupportedSyscalls();


}  // namespace posix

#endif  // POSIX_SYSCALLS_H_
