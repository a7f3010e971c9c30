#include "apps/l4_balancer.h"

#include "ukarch/hash.h"
#include "ukarch/status.h"

namespace apps {

namespace {

constexpr int kConnectInProgress =
    static_cast<int>(ukarch::Status::kInProgress);

std::string_view AsView(const std::uint8_t* p, std::int64_t n) {
  return std::string_view(reinterpret_cast<const char*>(p),
                          static_cast<std::size_t>(n));
}

}  // namespace

L4Balancer::L4Balancer(posix::PosixApi* api, ukplat::Clock* clock,
                       Config config)
    : api_(api),
      clock_(clock),
      config_(std::move(config)),
      loop_(api),
      server_(api, &loop_, MakeHandler()) {}

StreamServer::Handler L4Balancer::MakeHandler() {
  StreamServer::Handler h;
  h.on_open = [this](StreamServer::Conn& c) { OnClientOpen(c); };
  h.on_data = [this](StreamServer::Conn& c, std::string_view data) {
    OnClientData(c, data);
  };
  h.on_close = [this](StreamServer::Conn& c) { OnClientClose(c); };
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
  std::vector<int> victims;
  for (const auto& [ufd, up] : upstreams_) {
    if (up.slot == slot) {
      victims.push_back(ufd);
    }
  }
  for (int ufd : victims) {
    CloseUpstream(ufd, /*close_client=*/true);
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

bool L4Balancer::Start() { return server_.Listen(config_.vip_port); }

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
    server_.CloseAfterFlush(conn.fd);
    return;
  }
  // The steering key is the client's flow tuple against the VIP — the same
  // symmetric Toeplitz hash RSS uses, so placement is deterministic and a
  // reconnecting client lands back on its slot (unless that slot died).
  const std::uint32_t hash = ukarch::FlowHash4(
      sock->remote_ip(), sock->remote_port(), 0, config_.vip_port);
  bool fell_back = false;
  const int slot = PickSlot(hash, &fell_back);
  if (slot < 0) {
    ++stats_.flows_failed;
    server_.CloseAfterFlush(conn.fd);
    return;
  }
  const BackendConfig& be = backends_[static_cast<std::size_t>(slot)].config;
  int ufd = api_->Socket(posix::SockType::kStream);
  if (ufd < 0) {
    ++stats_.flows_failed;
    server_.CloseAfterFlush(conn.fd);
    return;
  }
  const int rc = api_->Connect(ufd, be.ip, be.port);
  if (rc != 0 && rc != kConnectInProgress) {
    api_->Close(ufd);
    ++stats_.flows_failed;
    server_.CloseAfterFlush(conn.fd);
    return;
  }
  // Writable interest doubles as the connect-completion edge.
  if (!loop_.Add(ufd, uknet::kEvtReadable | uknet::kEvtWritable,
                 [this](int fd, uknet::EventMask ev) {
                   OnUpstreamEvent(fd, ev);
                 })) {
    api_->Close(ufd);
    ++stats_.flows_failed;
    server_.CloseAfterFlush(conn.fd);
    return;
  }
  Upstream up;
  up.client_fd = conn.fd;
  up.slot = slot;
  up.interest = uknet::kEvtReadable | uknet::kEvtWritable;
  upstreams_.emplace(ufd, std::move(up));
  client_to_upstream_[conn.fd] = ufd;
  ++stats_.flows_opened;
  stats_.fallback_steers += fell_back ? 1 : 0;
}

void L4Balancer::OnClientData(StreamServer::Conn& conn, std::string_view data) {
  auto it = client_to_upstream_.find(conn.fd);
  if (it == client_to_upstream_.end()) {
    return;  // upstream already gone; the conn is on its way down
  }
  auto uit = upstreams_.find(it->second);
  if (uit == upstreams_.end()) {
    return;
  }
  stats_.bytes_in += data.size();
  uit->second.pending.append(data);
  FlushUpstream(it->second, uit->second);
}

void L4Balancer::OnClientClose(StreamServer::Conn& conn) {
  auto it = client_to_upstream_.find(conn.fd);
  if (it == client_to_upstream_.end()) {
    return;
  }
  CloseUpstream(it->second, /*close_client=*/false);
}

void L4Balancer::FlushUpstream(int ufd, Upstream& up) {
  if (up.established) {
    while (!up.pending.empty()) {
      std::int64_t n = api_->Send(
          ufd,
          std::span(reinterpret_cast<const std::uint8_t*>(up.pending.data()),
                    up.pending.size()));
      if (n <= 0) {
        break;  // backend send buffer full; kEvtWritable resumes the flush
      }
      up.pending.erase(0, static_cast<std::size_t>(n));
    }
  }
  // Pre-establishment keeps writable interest armed for the connect edge;
  // after that it tracks the backlog exactly like StreamServer's flush.
  const uknet::EventMask want =
      !up.established || !up.pending.empty()
          ? (uknet::kEvtReadable | uknet::kEvtWritable)
          : uknet::kEvtReadable;
  if (want != up.interest && loop_.Mod(ufd, want)) {
    up.interest = want;
  }
}

void L4Balancer::CloseUpstream(int ufd, bool close_client) {
  auto it = upstreams_.find(ufd);
  if (it == upstreams_.end()) {
    return;
  }
  const int client_fd = it->second.client_fd;
  // Unlink first: the client-side close below re-enters OnClientClose, which
  // must not find the mapping and recurse.
  client_to_upstream_.erase(client_fd);
  upstreams_.erase(it);
  loop_.Del(ufd);
  api_->Close(ufd);
  if (close_client) {
    server_.Close(client_fd);
  }
}

void L4Balancer::OnUpstreamEvent(int ufd, uknet::EventMask events) {
  auto it = upstreams_.find(ufd);
  if (it == upstreams_.end()) {
    return;
  }
  if ((events & uknet::kEvtErr) != 0) {
    // Connection refused or reset by the backend: this flow is gone.
    CloseUpstream(ufd, /*close_client=*/true);
    return;
  }
  Upstream& up = it->second;
  if (!up.established) {
    auto sock = api_->fdtab().Get<uknet::TcpSocket>(ufd);
    if (sock != nullptr && sock->connected()) {
      up.established = true;
    }
  }
  if ((events & uknet::kEvtReadable) != 0) {
    std::uint8_t buf[8192];
    for (;;) {
      std::int64_t n = api_->Recv(ufd, buf);
      if (n > 0) {
        stats_.bytes_out += static_cast<std::uint64_t>(n);
        server_.Submit(up.client_fd, AsView(buf, n));
        if (upstreams_.count(ufd) == 0) {
          return;  // Submit closed the pair (client had want_close pending)
        }
        continue;
      }
      if (n == 0) {
        // Backend FIN: flush what we have to the client, then close it.
        const int client_fd = up.client_fd;
        CloseUpstream(ufd, /*close_client=*/false);
        server_.CloseAfterFlush(client_fd);
        return;
      }
      break;
    }
  }
  FlushUpstream(ufd, up);
}

void L4Balancer::StartProbe(int slot) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  int pfd = api_->Socket(posix::SockType::kStream);
  if (pfd < 0) {
    return;  // fd pressure; retry next interval
  }
  const int rc = api_->Connect(pfd, b.config.ip, b.config.port);
  if (rc != 0 && rc != kConnectInProgress) {
    api_->Close(pfd);
    FinishProbe(slot, false);
    return;
  }
  if (!loop_.Add(pfd, uknet::kEvtReadable | uknet::kEvtWritable,
                 [this, slot](int, uknet::EventMask ev) {
                   OnProbeEvent(slot, ev);
                 })) {
    api_->Close(pfd);
    return;
  }
  b.probe_fd = pfd;
  b.probe_sent = false;
  b.probe_deadline = clock_->cycles() + config_.probe_timeout_cycles;
  ++stats_.probes_sent;
}

void L4Balancer::FinishProbe(int slot, bool ok) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  if (b.probe_fd >= 0) {
    loop_.Del(b.probe_fd);
    api_->Close(b.probe_fd);
    b.probe_fd = -1;
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

void L4Balancer::OnProbeEvent(int slot, uknet::EventMask events) {
  Backend& b = backends_[static_cast<std::size_t>(slot)];
  const int pfd = b.probe_fd;
  if (pfd < 0) {
    return;
  }
  if ((events & uknet::kEvtErr) != 0) {
    FinishProbe(slot, false);
    return;
  }
  if (!b.probe_sent) {
    auto sock = api_->fdtab().Get<uknet::TcpSocket>(pfd);
    if (sock != nullptr && sock->connected()) {
      // Preamble + request in one write so the backend scaffold can detect
      // the probe marker on the connection's first chunk.
      std::string req(StreamServer::kProbePreamble);
      req.append(config_.probe_request);
      api_->Send(pfd,
                 std::span(reinterpret_cast<const std::uint8_t*>(req.data()),
                           req.size()));
      b.probe_sent = true;
    }
  }
  if ((events & uknet::kEvtReadable) != 0) {
    std::uint8_t buf[256];
    if (api_->Recv(pfd, buf) > 0) {
      FinishProbe(slot, true);  // any reply byte proves liveness
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
