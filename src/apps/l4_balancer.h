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
// The client side rides the shared apps::StreamServer scaffold (accept
// drain, interest-tracked flush, close-after-drain); the backend side is
// balancer-owned connect sockets on the same EventLoop, spliced to their
// client fd in both directions with backlog-tracked interest. Health is
// active: each slot is probed on a virtual-clock interval over a real TCP
// connection that announces itself with StreamServer::kProbePreamble (so
// backends keep probes out of their request stats) and must answer within a
// timeout or the slot goes down — taking its proxied flows with it, since a
// dead backend will never answer them anyway. Draining slots finish their
// flows but receive no new ones.
#ifndef APPS_L4_BALANCER_H_
#define APPS_L4_BALANCER_H_

#include <cstdint>
#include <map>
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
    std::uint64_t bytes_in = 0;   // client -> backend
    std::uint64_t bytes_out = 0;  // backend -> client
  };

  L4Balancer(posix::PosixApi* api, ukplat::Clock* clock, Config config);
  ~L4Balancer() = default;

  L4Balancer(const L4Balancer&) = delete;
  L4Balancer& operator=(const L4Balancer&) = delete;

  // Adds a steering slot; returns its index. Call before Start().
  int AddBackend(BackendConfig backend);

  // Administrative state flips. MarkDown closes every proxied flow on the
  // slot (a dead backend never answers them); drain just stops new flows.
  void MarkDown(int slot);
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
  EventLoop& loop() { return loop_; }
  StreamServer& stream() { return server_; }

 private:
  struct Backend {
    BackendConfig config;
    BackendState state = BackendState::kUp;
    // In-flight probe connection (-1 when none) and its deadline.
    int probe_fd = -1;
    std::uint64_t probe_deadline = 0;
    std::uint64_t next_probe_at = 0;
    bool probe_sent = false;
  };

  // One proxied backend connection, keyed by its fd in upstreams_.
  struct Upstream {
    int client_fd = -1;
    int slot = -1;
    bool established = false;
    std::string pending;  // client bytes queued until connect/backlog drains
    uknet::EventMask interest = 0;
  };

  StreamServer::Handler MakeHandler();
  void OnClientOpen(StreamServer::Conn& conn);
  void OnClientData(StreamServer::Conn& conn, std::string_view data);
  void OnClientClose(StreamServer::Conn& conn);
  void OnUpstreamEvent(int ufd, uknet::EventMask events);
  void FlushUpstream(int ufd, Upstream& up);
  void CloseUpstream(int ufd, bool close_client);
  void RunTimers();
  void StartProbe(int slot);
  void FinishProbe(int slot, bool ok);
  void OnProbeEvent(int slot, uknet::EventMask events);
  int PickSlot(std::uint32_t hash, bool* fell_back) const;

  posix::PosixApi* api_;
  ukplat::Clock* clock_;
  Config config_;
  EventLoop loop_;
  StreamServer server_;
  std::vector<Backend> backends_;
  std::map<int, Upstream> upstreams_;      // backend fd -> splice state
  std::map<int, int> client_to_upstream_;  // client fd -> backend fd
  Stats stats_;
};

}  // namespace apps

#endif  // APPS_L4_BALANCER_H_
