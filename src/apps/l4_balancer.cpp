#include "apps/l4_balancer.h"

#include "ukarch/hash.h"

namespace apps {

L4Balancer::L4Balancer(posix::PosixApi* api, ukplat::Clock* clock,
                       Config config)
    : api_(api),
      clock_(clock),
      config_(std::move(config)),
      probe_bytes_(std::string(StreamServer::kProbePreamble) +
                   config_.probe_request),
      loop_(api),
      client_(api, &loop_, ClientHandler()),
      backend_(api, &loop_, BackendHandler()),
      ends_(api->fdtab().capacity()) {}

StreamServer::Handler L4Balancer::ClientHandler() {
  StreamServer::Handler h;
  h.on_open = [this](StreamServer::Conn& c) { OnClientOpen(c); };
  h.on_data = [this](StreamServer::Conn& c, std::string_view data) {
    const int ufd = ends_[c.fd].peer;
    if (ufd < 0) {
      return;  // no backend: the conn is on its way down
    }
    backend_.Submit(ufd, data);
  };
  h.on_close = [this](StreamServer::Conn& c) {
    const int ufd = Unsplice(c.fd);
    if (ufd >= 0) {
      backend_.Close(ufd);
    }
  };
  return h;
}

StreamServer::Handler L4Balancer::BackendHandler() {
  StreamServer::Handler h;
  h.on_data = [this](StreamServer::Conn& c, std::string_view data) {
    if (const int cfd = ends_[c.fd].peer; cfd >= 0) {
      client_.Submit(cfd, data);
    } else if (const int slot = ProbeSlot(c.fd); slot >= 0) {
      FinishProbe(slot, true);  // any reply byte proves liveness
    }
  };
  h.on_close = [this](StreamServer::Conn& c) {
    // Backend FIN, reset or refused connect: flush what the client already
    // has, then close it. A probe that ends unanswered is a failed probe.
    const int cfd = Unsplice(c.fd);
    if (cfd >= 0) {
      client_.CloseAfterFlush(cfd);
    } else if (const int slot = ProbeSlot(c.fd); slot >= 0) {
      FinishProbe(slot, false);
    }
  };
  return h;
}

int L4Balancer::AddBackend(BackendConfig backend) {
  Backend b;
  b.config = backend;
  backends_.push_back(b);
  return static_cast<int>(backends_.size()) - 1;
}

void L4Balancer::MarkDown(int slot) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  if (b.state == BackendState::kDown) {
    return;
  }
  b.state = BackendState::kDown;
  ++stats_.backend_down_events;
  // A dead backend will never answer its in-flight requests: tear those
  // flows down now so their clients can reconnect and re-steer. Every other
  // slot's flows are untouched — that is the consistent-steering contract.
  for (std::size_t fd = 0; fd < ends_.size(); ++fd) {
    if (ends_[fd].client && ends_[fd].slot == slot) {
      client_.Close(static_cast<int>(fd));  // on_close unsplices both ends
    }
  }
}

void L4Balancer::SetDrain(int slot, bool drain) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  if (drain && b.state == BackendState::kUp) {
    b.state = BackendState::kDraining;
  } else if (!drain && b.state == BackendState::kDraining) {
    b.state = BackendState::kUp;
  }
}

bool L4Balancer::Start() { return client_.Listen(config_.vip_port); }

int L4Balancer::PickSlot(std::uint32_t hash, bool* fell_back) const {
  const std::size_t n = backends_.size();
  *fell_back = false;
  if (n == 0) {
    return -1;
  }
  const std::size_t start = hash % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = (start + i) % n;
    if (backends_[s].state == BackendState::kUp) {
      *fell_back = i != 0;
      return static_cast<int>(s);
    }
  }
  return -1;
}

int L4Balancer::SteerSlot(uknet::Ip4Addr ip, std::uint16_t port) const {
  bool fell_back = false;
  return PickSlot(ukarch::FlowHash4(ip, port, 0, config_.vip_port),
                  &fell_back);
}

void L4Balancer::OnClientOpen(StreamServer::Conn& conn) {
  auto sock = api_->fdtab().Get<uknet::TcpSocket>(conn.fd);
  if (sock == nullptr) {
    client_.CloseAfterFlush(conn.fd);
    return;
  }
  // The steering key is the client's flow tuple against the VIP — the same
  // symmetric Toeplitz hash RSS uses, so placement is deterministic and a
  // reconnecting client lands back on its slot (unless that slot died).
  const std::uint32_t hash = ukarch::FlowHash4(
      sock->remote_ip(), sock->remote_port(), 0, config_.vip_port);
  bool fell_back = false;
  const int slot = PickSlot(hash, &fell_back);
  int ufd = -1;
  if (slot >= 0) {
    const BackendConfig& be = backends_[static_cast<std::size_t>(slot)].config;
    ufd = backend_.Connect(be.ip, be.port);
  }
  if (ufd < 0) {
    ++stats_.flows_failed;
    client_.CloseAfterFlush(conn.fd);
    return;
  }
  ends_[conn.fd] = FlowEnd{ufd, slot, true};
  ends_[ufd] = FlowEnd{conn.fd, slot, false};
  ++stats_.flows_opened;
  stats_.fallback_steers += fell_back ? 1 : 0;
}

int L4Balancer::Unsplice(int fd) {
  const int peer = ends_[fd].peer;
  if (peer < 0) {
    return -1;
  }
  // Both ends go before either closes: the peer's on_close then finds
  // nothing and does not come back here.
  ends_[fd] = FlowEnd{};
  ends_[peer] = FlowEnd{};
  return peer;
}

void L4Balancer::StartProbe(int slot) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  const int pfd = backend_.Connect(b.config.ip, b.config.port);
  if (pfd < 0) {
    FinishProbe(slot, false);
    return;
  }
  b.probe_fd = pfd;
  b.probe_deadline = clock_->cycles() + config_.probe_timeout_cycles;
  ++stats_.probes_sent;
  // Preamble + request in one write, queued behind the handshake, so the
  // backend scaffold sees the probe marker on the connection's first chunk.
  backend_.Submit(pfd, probe_bytes_);
}

int L4Balancer::ProbeSlot(int fd) const {
  for (std::size_t s = 0; s < backends_.size(); ++s) {
    if (backends_[s].probe_fd == fd) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

void L4Balancer::FinishProbe(int slot, bool ok) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  const int pfd = b.probe_fd;
  b.probe_fd = -1;  // first: the close below must not finish it again
  if (pfd >= 0) {
    backend_.Close(pfd);
  }
  b.next_probe_at = clock_->cycles() + config_.probe_interval_cycles;
  if (ok) {
    ++stats_.probes_ok;
    if (b.state == BackendState::kDown) {
      b.state = BackendState::kUp;  // revived (e.g. respawn at same address)
    }
  } else {
    ++stats_.probes_failed;
    if (b.state != BackendState::kDown) {
      MarkDown(slot);
    }
  }
}

void L4Balancer::RunTimers() {
  const std::uint64_t now = clock_->cycles();
  for (std::size_t s = 0; s < backends_.size(); ++s) {
    Backend& b = backends_[s];
    if (b.probe_fd >= 0) {
      if (now >= b.probe_deadline) {
        FinishProbe(static_cast<int>(s), false);  // silent backend: dead
      }
      continue;
    }
    // Down slots keep getting probed: a respawned instance at the same
    // address is re-admitted by its first successful probe.
    if (now >= b.next_probe_at && b.state != BackendState::kDraining) {
      StartProbe(static_cast<int>(s));
    }
  }
}

std::size_t L4Balancer::PumpOnce(std::uint64_t timeout_cycles) {
  const std::size_t dispatched = loop_.PumpOnce(timeout_cycles);
  RunTimers();
  return dispatched;
}

}  // namespace apps
