// env/testbed.h - a two-machine testbed: server host under a Profile, client
// host on the other end of the wire (the paper's second Shuttle box running
// wrk / redis-benchmark / testpmd).
#ifndef ENV_TESTBED_H_
#define ENV_TESTBED_H_

#include <memory>

#include "env/profile.h"
#include "posix/api.h"
#include "uknet/stack.h"
#include "uknetdev/loopback.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"
#include "vfscore/ramfs.h"

namespace env {

// Queue pairs the testbed configures per interface. Defaults to 1; the
// UKRAFT_QUEUES environment variable overrides it (clamped to [1, 4]) so CI
// can run the whole suite with queue-sharded datapaths (ci.sh sets 2 for the
// sanitizer leg).
std::uint16_t QueuesFromEnv();

// One simulated machine: guest RAM, allocator, NIC, stack.
struct SimHost {
  SimHost(ukplat::Clock* clock, ukplat::Wire* wire, int side, uknet::Ip4Addr ip,
          ukalloc::Backend alloc_backend, uknetdev::VirtioBackend net_backend,
          std::size_t mem_bytes = 64ull << 20, std::uint16_t queues = 0 /* env */);

  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::VirtioNet> nic;
  std::unique_ptr<uknet::NetStack> stack;
  uknet::NetIf* netif = nullptr;
};

// The full experiment world for one Profile.
class TestBed {
 public:
  explicit TestBed(Profile profile);

  // Per-packet path cost differences for non-virtualized profiles are charged
  // by the NIC backend already (virtio); native/container profiles instead
  // charge the host kernel path per packet here.
  void ChargeHostNetPath(std::size_t packets);

  ukplat::Clock& clock() { return clock_; }
  ukplat::Wire& wire() { return *wire_; }
  SimHost& server() { return *server_; }
  SimHost& client() { return *client_; }
  posix::PosixApi& api() { return *api_; }
  vfscore::Vfs& vfs() { return vfs_; }
  const Profile& profile() const { return profile_; }

  // Pumps both sides once.
  void Poll();

  static constexpr uknet::Ip4Addr kServerIp = 0x0a000001;  // 10.0.0.1
  static constexpr uknet::Ip4Addr kClientIp = 0x0a000002;  // 10.0.0.2

 private:
  Profile profile_;
  ukplat::Clock clock_;
  std::unique_ptr<ukplat::Wire> wire_;
  std::unique_ptr<SimHost> server_;
  std::unique_ptr<SimHost> client_;
  vfscore::Vfs vfs_;
  std::unique_ptr<vfscore::RamFs> ramfs_;
  std::unique_ptr<posix::PosixApi> api_;
};

}  // namespace env

#endif  // ENV_TESTBED_H_
