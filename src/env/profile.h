// env/profile.h - the execution environments of Figs 12/13/17 and Table 4.
//
// Every baseline (Linux native/guest/container, OSv, Rump, Lupine, HermiTux,
// Mirage, Unikraft) is the *same application code* run under a profile that
// sets the mechanically different parts:
//   * how a syscall enters the kernel (DispatchMode — Table 1 costs),
//   * whether packets traverse a VMM (virtio backend + VMM I/O quality),
//   * the default allocator the image was built with,
//   * a residual per-request overhead for systems the paper identifies as
//     carrying bloat that configuration could not remove (Rump, HermiTux).
#ifndef ENV_PROFILE_H_
#define ENV_PROFILE_H_

#include <string>
#include <vector>

#include "posix/shim.h"
#include "ukalloc/registry.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/vmm.h"

namespace env {

struct Profile {
  std::string name;
  posix::DispatchMode dispatch = posix::DispatchMode::kDirectCall;
  bool virtualized = true;                       // packets cross a VMM
  ukplat::VmmModel vmm = ukplat::VmmModel::Qemu();
  uknetdev::VirtioBackend backend = uknetdev::VirtioBackend::kVhostNet;
  ukalloc::Backend allocator = ukalloc::Backend::kTlsf;
  // Host kernel network-stack cycles per packet for non-virtualized runs
  // (native/container); containers add the veth/bridge hop.
  std::uint64_t host_net_per_packet = 2000;
  // Guest-side network stack cycles per packet: ~2000 for full Linux guest
  // kernels, 0 for unikernel stacks (whose light path runs for real here).
  std::uint64_t guest_stack_per_packet = 0;
  // Residual per-request bloat (cycles) the paper attributes to systems that
  // could not be slimmed by configuration.
  std::uint64_t per_request_overhead = 0;

  static Profile UnikraftKvm();
  static Profile LinuxNative();
  static Profile LinuxKvm();
  static Profile LinuxFirecracker();
  static Profile DockerNative();
  static Profile OsvKvm();
  static Profile RumpKvm();
  static Profile LupineKvm();
  static Profile LupineFirecracker();
  static Profile HermituxUhyve();

  // The ten platforms of Figs 12/13, slowest-first like the paper plots.
  static const std::vector<Profile>& Fig12Set();
};

}  // namespace env

#endif  // ENV_PROFILE_H_
