#include "env/profile.h"

namespace env {

using posix::DispatchMode;
using ukalloc::Backend;
using uknetdev::VirtioBackend;
using ukplat::VmmModel;

Profile Profile::UnikraftKvm() {
  return Profile{.name = "unikraft-kvm",
                 .dispatch = DispatchMode::kDirectCall,
                 .virtualized = true,
                 .vmm = VmmModel::Qemu(),
                 .allocator = Backend::kMimalloc};
}

Profile Profile::LinuxNative() {
  return Profile{.name = "linux-native",
                 .dispatch = DispatchMode::kLinuxTrap,
                 .virtualized = false,
                 .allocator = Backend::kTlsf,
                 .host_net_per_packet = 2000};
}

Profile Profile::LinuxKvm() {
  return Profile{.name = "linux-kvm",
                 .dispatch = DispatchMode::kLinuxTrap,
                 .virtualized = true,
                 .vmm = VmmModel::Qemu(),
                 .allocator = Backend::kTlsf,
                 .guest_stack_per_packet = 2000,  // guest kernel skb path
                 .per_request_overhead = 900};    // distro guest bloat
}

Profile Profile::LinuxFirecracker() {
  Profile p = LinuxKvm();
  p.name = "linux-fc";
  p.vmm = VmmModel::Firecracker();
  return p;
}

Profile Profile::DockerNative() {
  Profile p = LinuxNative();
  p.name = "docker-native";
  p.host_net_per_packet = 2600;  // + veth pair and bridge traversal
  return p;
}

Profile Profile::OsvKvm() {
  return Profile{.name = "osv-kvm",
                 .dispatch = DispatchMode::kBinaryCompat,
                 .virtualized = true,
                 .vmm = VmmModel::Qemu(),
                 .allocator = Backend::kTlsf,
                 .guest_stack_per_packet = 700,  // OSv's BSD-derived stack
                 .per_request_overhead = 500};
}

Profile Profile::RumpKvm() {
  return Profile{.name = "rump-kvm",
                 .dispatch = DispatchMode::kBinaryCompat,
                 .virtualized = true,
                 .vmm = VmmModel::Qemu(),
                 .allocator = Backend::kBuddy,
                 .guest_stack_per_packet = 1800,  // NetBSD stack
                 .per_request_overhead = 2800};   // unmaintained, unconfigurable
}

Profile Profile::LupineKvm() {
  return Profile{.name = "lupine-kvm",
                 .dispatch = DispatchMode::kLinuxTrapFast,  // KML: ring-0 app
                 .virtualized = true,
                 .vmm = VmmModel::Qemu(),
                 .allocator = Backend::kTlsf,
                 .guest_stack_per_packet = 2000,  // it is still the Linux stack
                 .per_request_overhead = 600};    // trimmed but some bloat remains (§5.3)
}

Profile Profile::LupineFirecracker() {
  Profile p = LupineKvm();
  p.name = "lupine-fc";
  p.vmm = VmmModel::Firecracker();
  return p;
}

Profile Profile::HermituxUhyve() {
  return Profile{.name = "hermitux-uhyve",
                 .dispatch = DispatchMode::kBinaryCompat,
                 .virtualized = true,
                 .vmm = VmmModel::UHyve(),  // no virtio support (§5.3)
                 .allocator = Backend::kBuddy,
                 .guest_stack_per_packet = 600,
                 .per_request_overhead = 5200};
}

const std::vector<Profile>& Profile::Fig12Set() {
  static const std::vector<Profile> kSet = {
      HermituxUhyve(), LinuxFirecracker(), LupineFirecracker(), RumpKvm(), LinuxKvm(),
      LupineKvm(),     DockerNative(),     OsvKvm(),            LinuxNative(),
      UnikraftKvm()};
  return kSet;
}

}  // namespace env
