// apps/l4_balancer.h - flow-hash L4 load balancer for the fleet testbed.
//
// The paper's deployment story is many tiny specialized VMs behind a
// balancer, not one big VM. This is that front door: a TCP proxy that
// steers each client flow to one of N backend instances by the same
// symmetric Toeplitz flow hash (`ukarch::FlowHash4`) that RSS uses to pick
// queues — consistent, direction-independent, and stable across the life of
// the flow. Steering is slot-indexed (hash % N with a deterministic walk to
// the next healthy slot), so when one backend dies only the flows that
// hashed onto the dead slot move; every other backend keeps its established
// connections untouched. That invariant is what the fleet scenario tests
// assert ("zero resets on survivors") and what makes kill/respawn safe
// under load.
//
// The splice is two apps::StreamServer instances on the balancer's one
// EventLoop: the client side listens on the VIP, the backend side opens one
// connection per flow with StreamServer::Connect, and each side's on_data
// submits to the other. Both directions get the scaffold's interest-tracked
// flush and close-after-drain; the balancer itself keeps only which fd is
// spliced to which. Health is active: each slot is probed on a virtual-clock
// interval over a backend-side connection that announces itself with
// StreamServer::kProbePreamble (so backends keep probes out of their request
// stats) and must answer within a timeout or the slot goes down — taking its
// proxied flows with it, since a dead backend will never answer them anyway.
// Draining slots finish their flows but receive no new ones.
#ifndef APPS_L4_BALANCER_H_
#define APPS_L4_BALANCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "apps/event_loop.h"
#include "apps/stream_server.h"
#include "posix/api.h"
#include "ukplat/clock.h"

namespace apps {

class L4Balancer {
 public:
  enum class BackendState { kUp, kDown, kDraining };

  struct BackendConfig {
    uknet::Ip4Addr ip = 0;
    std::uint16_t port = 0;
  };

  struct Config {
    std::uint16_t vip_port = 7000;  // the one port clients see
    // Probe payload sent after kProbePreamble; must elicit at least one
    // reply byte from the backend protocol (RESP PING for redis backends).
    std::string probe_request = "*1\r\n$4\r\nPING\r\n";
    std::uint64_t probe_interval_cycles = 2'000'000;
    std::uint64_t probe_timeout_cycles = 8'000'000;
  };

  struct Stats {
    std::uint64_t flows_opened = 0;
    std::uint64_t flows_failed = 0;     // no healthy backend at open
    std::uint64_t fallback_steers = 0;  // hash slot unhealthy, walked on
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_ok = 0;
    std::uint64_t probes_failed = 0;
    std::uint64_t backend_down_events = 0;
  };

  L4Balancer(posix::PosixApi* api, ukplat::Clock* clock, Config config);
  ~L4Balancer() = default;

  L4Balancer(const L4Balancer&) = delete;
  L4Balancer& operator=(const L4Balancer&) = delete;

  // Adds a steering slot; returns its index. Call before Start().
  int AddBackend(BackendConfig backend);

  // Administrative drain: the slot keeps its flows but gets no new ones.
  void SetDrain(int slot, bool drain);

  BackendState state(int slot) const { return backends_[slot].state; }

  // Listens on vip_port and registers with the loop. False on failure.
  bool Start();

  // One event-loop turn (0 = non-blocking) plus timer work: probe
  // scheduling and probe-timeout reaping run off the virtual clock.
  std::size_t PumpOnce(std::uint64_t timeout_cycles = 0);

  // The slot a flow from |ip|:|port| steers to with current health, or -1.
  // Exposed so tests can predict and assert placement.
  int SteerSlot(uknet::Ip4Addr ip, std::uint16_t port) const;

  const Stats& stats() const { return stats_; }

 private:
  struct Backend {
    BackendConfig config;
    BackendState state = BackendState::kUp;
    // In-flight probe connection (-1 when none) and its deadline.
    int probe_fd = -1;
    std::uint64_t probe_deadline = 0;
    std::uint64_t next_probe_at = 0;
  };

  // One end of a spliced flow, indexed by its fd in ends_.
  struct FlowEnd {
    int peer = -1;        // the fd at the other end; -1: not spliced
    int slot = -1;        // the backend slot the flow steers to
    bool client = false;  // a client_ connection (else a backend_ one)
  };

  // Closes every proxied flow on the slot (a dead backend never answers
  // them) and stops steering to it until a probe succeeds.
  void MarkDown(int slot);
  StreamServer::Handler ClientHandler();
  StreamServer::Handler BackendHandler();
  void OnClientOpen(StreamServer::Conn& conn);
  // Forgets the flow |fd| belongs to. Returns the other end's fd, or -1.
  int Unsplice(int fd);
  void RunTimers();
  void StartProbe(int slot);
  void FinishProbe(int slot, bool ok);
  // The slot whose in-flight probe is |fd|, or -1.
  int ProbeSlot(int fd) const;
  int PickSlot(std::uint32_t hash, bool* fell_back) const;

  posix::PosixApi* api_;
  ukplat::Clock* clock_;
  Config config_;
  std::string probe_bytes_;  // kProbePreamble + probe_request, one write
  EventLoop loop_;
  StreamServer client_;   // listens on the VIP
  StreamServer backend_;  // flow upstreams and health probes
  std::vector<Backend> backends_;
  std::vector<FlowEnd> ends_;  // one per fd-table slot
  Stats stats_;
};

}  // namespace apps

#endif  // APPS_L4_BALANCER_H_
