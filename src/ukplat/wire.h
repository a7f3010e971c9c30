// ukplat/wire.h - Ethernet fabric between N simulated NICs.
//
// Historically a point-to-point 10G cable between two Shuttle boxes (the
// paper's network experiments); the fleet testbed generalized it into a small
// learning switch so one wire can host an L4 balancer plus N backend
// instances. Frames are real byte vectors; the wire charges serialization
// delay from the cost model's link rate and enforces an MTU and an optional
// per-port queue depth (frames beyond it are dropped and counted, which the
// TCP tests use to exercise retransmission).
//
// Switching model: each port has its own RX queue. Send(port, frame) learns
// src-MAC -> port, then delivers to the learned port for a known unicast dst
// and floods every other port otherwise (broadcast/unknown unicast, which is
// how ARP finds a backend the switch has never heard from). With exactly two
// ports this degenerates to the old point-to-point behavior: everything sent
// from port 0 arrives at port 1 and vice versa.
#ifndef UKPLAT_WIRE_H_
#define UKPLAT_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ukplat/clock.h"

namespace ukplat {

class Wire {
 public:
  struct Config {
    std::size_t mtu = 1500;          // payload bytes per frame (excl. 14B header)
    std::size_t queue_depth = 1024;  // frames buffered per port
    double drop_rate = 0.0;          // deterministic 1-in-N drop if > 0 (N=1/rate)
  };

  explicit Wire(Clock* clock) : Wire(clock, Config{}) {}
  Wire(Clock* clock, Config config) : clock_(clock), config_(config) {
    ports_.resize(2);
  }

  // Sends a frame out of |port| into the switch. Returns false if the frame
  // was delivered to no port (oversize, deterministic drop, or every
  // destination queue full).
  bool Send(int port, std::vector<std::uint8_t> frame);

  // Receives the next frame queued for |port|.
  std::optional<std::vector<std::uint8_t>> Receive(int port);

  std::size_t Pending(int port) const {
    const auto idx = static_cast<std::size_t>(port);
    return idx < ports_.size() ? ports_[idx].rx.size() : 0;
  }

  // Wire-activity signal: |fn| is invoked (synchronously) after a frame is
  // queued toward |port|. This is the stand-in for the vhost/device thread
  // noticing traffic for a NIC whose guest is halted: the virtio driver
  // registers a callback that pumps its device side so an armed RX interrupt
  // can fire even while the guest never polls. The callback may call Send()
  // itself (replies); the wire keeps no state across the invocation. Pass
  // nullptr to unregister (a NIC being destroyed must do so).
  void SetSignalFn(int port, std::function<void()> fn) {
    EnsurePort(port);
    ports_[static_cast<std::size_t>(port)].signal = std::move(fn);
  }

  // Makes |port| exist (with an empty RX queue) so flooded frames reach it.
  // A NIC must attach its port when it is created: a station that has never
  // transmitted is otherwise invisible to broadcast/unknown-unicast delivery.
  void AttachPort(int port) { EnsurePort(port); }

  // Forgets everything learned about |port|: its RX queue, signal callback
  // and any MAC addresses the switch associated with it. Used when the NIC on
  // that port is torn down (instance kill) so a respawned instance reusing
  // the port starts from a clean slate.
  void ResetPort(int port);

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  const Config& config() const { return config_; }

 private:
  struct Port {
    std::deque<std::vector<std::uint8_t>> rx;
    std::function<void()> signal;
  };

  void EnsurePort(int port) {
    const auto need = static_cast<std::size_t>(port) + 1;
    if (ports_.size() < need) ports_.resize(need);
  }
  bool DeliverTo(std::size_t port, const std::vector<std::uint8_t>& frame);

  Clock* clock_;
  Config config_;
  std::vector<Port> ports_;
  std::unordered_map<std::uint64_t, std::size_t> mac_table_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t send_seq_ = 0;
};

}  // namespace ukplat

#endif  // UKPLAT_WIRE_H_
