// env/fleet.h - the fleet testbed: one Wire (switch mode) hosting a churn
// client, an apps::L4Balancer, and N redis backend unikernels each booted
// through a real ukboot::Instance.
//
// This is the paper's deployment story made executable: many tiny
// specialized VMs behind a balancer instead of one big VM, with boot latency
// as a *serving* metric — KillBackend() destroys a backend's NIC and stack
// mid-traffic and BootBackend() replays the full inittab (paging, allocator,
// scheduler, virtio bring-up, stack, server) against the same guest RAM, so
// cold-start-to-first-served-reply is measured over real boot stages, not a
// constant.
//
// Wire port map: 0 = client host, 1 = balancer host, 2+i = backend i. MACs
// are derived from the port, so a respawned backend reuses its predecessor's
// L2 address and the survivors' ARP entries stay valid.
#ifndef ENV_FLEET_H_
#define ENV_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/l4_balancer.h"
#include "apps/persist.h"
#include "apps/redis.h"
#include "env/testbed.h"
#include "posix/api.h"
#include "ukblockdev/ramdisk.h"
#include "ukboot/instance.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/clock.h"
#include "ukplat/wire.h"
#include "vfscore/blockfs.h"
#include "vfscore/vfs.h"

namespace env {

class FleetTestBed {
 public:
  struct Config {
    int backends = 2;
    std::uint16_t vip_port = 6379;      // what clients dial
    std::uint16_t backend_port = 6400;  // what each backend redis serves
    std::uint64_t probe_interval_cycles = 3'000'000;
    std::uint64_t probe_timeout_cycles = 12'000'000;
    std::size_t backend_memory_bytes = 48ull << 20;
  };

  // One backend unikernel: the Instance owns guest RAM and the boot
  // sequence; NIC, stack and server are built by its inittab on every Boot()
  // and torn down (reverse order) by Kill(). `report` holds the most recent
  // boot's per-stage timings.
  struct BackendHost {
    BackendHost(FleetTestBed* fleet, int index);

    // The serving identity: "b<i>" for the first boot, "b<i>-r<n>" after n
    // respawns. Seeded into the redis store under key "id" so a client can
    // tell which instance (and which incarnation) answered.
    std::string id() const;

    std::unique_ptr<ukboot::Instance> instance;
    std::unique_ptr<uknetdev::VirtioNet> nic;
    std::unique_ptr<uknet::NetStack> stack;
    uknet::NetIf* netif = nullptr;
    vfscore::Vfs vfs;
    // The durable root: the ramdisk's backing bytes live host-side, so —
    // like a cloud block volume — they survive Shutdown()+Boot(). Created
    // once per BackendHost, never torn down by KillBackend.
    std::unique_ptr<ukblockdev::RamDisk> disk;
    // Per-boot persistence stack over |disk|: the kRootfs inittab stage
    // formats-or-mounts blockfs at /persist, the kLate stage recovers the
    // store through apps::Persist (snapshot + AOF tail replay).
    std::unique_ptr<vfscore::BlockFs> blockfs;
    std::unique_ptr<apps::Persist> persist;
    apps::Persist::RecoverStats last_recover;
    std::unique_ptr<posix::PosixApi> api;
    std::unique_ptr<apps::RedisServer> server;
    ukboot::BootReport report;

    FleetTestBed* fleet;
    int index = 0;
    int wire_port = 0;
    uknet::Ip4Addr ip = 0;
    int incarnation = 0;  // bumped by every successful boot
    bool alive = false;
  };

  explicit FleetTestBed(Config config);
  ~FleetTestBed();

  FleetTestBed(const FleetTestBed&) = delete;
  FleetTestBed& operator=(const FleetTestBed&) = delete;

  // (Re)boots backend |i| through its full inittab and wires ARP with the
  // balancer. Returns the boot report (also stored on the BackendHost).
  ukboot::BootReport BootBackend(int i);

  // Hard kill: server, posix layer, stack and NIC are destroyed, the wire
  // port forgets its MAC, and the Instance shuts down to pre-boot state.
  // In-flight frames to the backend fall on the floor — exactly what the
  // balancer's probe timeout must detect.
  void KillBackend(int i);

  // One non-blocking turn of every live component: client stack, balancer
  // (loop + probe timers), every live backend (stack + server loop).
  void PumpAll();
  // Pumps until |done| returns true; false when |max_turns| ran out.
  bool PumpUntil(const std::function<bool()>& done, int max_turns = 200000);

  ukplat::Clock& clock() { return clock_; }
  ukplat::Wire& wire() { return *wire_; }
  SimHost& client_host() { return *client_; }
  SimHost& balancer_sim() { return *balancer_host_; }
  uknet::NetStack* client_stack() { return client_->stack.get(); }
  apps::L4Balancer& balancer() { return *balancer_; }
  posix::PosixApi& balancer_api() { return *balancer_api_; }
  BackendHost& backend(int i) { return *backends_[i]; }
  const Config& config() const { return config_; }

  // Modeled CPU cost of one PumpAll() turn; keeps the virtual clock moving
  // when traffic stalls so cycle-based probe deadlines can expire.
  static constexpr std::uint64_t kTurnCycles = 20'000;

  static constexpr uknet::Ip4Addr kClientIp = 0x0a000064;    // 10.0.0.100
  static constexpr uknet::Ip4Addr kBalancerIp = 0x0a000001;  // 10.0.0.1
  static uknet::Ip4Addr BackendIp(int i) {
    return 0x0a00000a + static_cast<uknet::Ip4Addr>(i);  // 10.0.0.10+i
  }

 private:
  friend struct BackendHost;

  Config config_;
  ukplat::Clock clock_;
  std::unique_ptr<ukplat::Wire> wire_;
  std::unique_ptr<SimHost> client_;
  std::unique_ptr<SimHost> balancer_host_;
  vfscore::Vfs balancer_vfs_;
  std::unique_ptr<posix::PosixApi> balancer_api_;
  std::unique_ptr<apps::L4Balancer> balancer_;
  std::vector<std::unique_ptr<BackendHost>> backends_;
};

// Connection-churn driver: |concurrency| slots, each running the short-lived
// client lifecycle connect -> GET id -> read reply -> close -> reconnect
// against the balancer VIP, entirely over raw TcpSockets on the client
// host's stack. Completed replies are tallied per serving backend id, which
// is how scenario tests observe steering (and re-steering after a kill).
class FleetChurnClient {
 public:
  FleetChurnClient(uknet::NetStack* stack, uknet::Ip4Addr vip,
                   std::uint16_t port, int concurrency);

  // Advances every slot one step; returns replies completed this call.
  // While paused, finished slots do not reopen (drain-to-idle).
  std::size_t Pump();
  void set_running(bool running) { running_ = running; }
  // True when no slot holds a live connection (after a drain).
  bool idle() const;

  std::uint64_t completed() const { return completed_; }
  // Connections that died before delivering a reply (RST from the balancer
  // or mid-flow teardown); churn scenarios assert bounds on this.
  std::uint64_t aborted() const { return aborted_; }
  const std::unordered_map<std::string, std::uint64_t>& by_backend() const {
    return by_backend_;
  }

 private:
  struct Slot {
    std::shared_ptr<uknet::TcpSocket> sock;
    std::string rx;
    bool sent = false;
  };

  void StepSlot(Slot& slot, std::size_t* done);

  uknet::NetStack* stack_;
  uknet::Ip4Addr vip_;
  std::uint16_t port_;
  std::vector<Slot> slots_;
  bool running_ = true;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  std::unordered_map<std::string, std::uint64_t> by_backend_;
};

}  // namespace env

#endif  // ENV_FLEET_H_
