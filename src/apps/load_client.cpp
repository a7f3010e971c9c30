#include "apps/load_client.h"

namespace apps {

PipelinedClient::PipelinedClient(uknet::NetStack* stack, uknet::Ip4Addr server,
                                 std::uint16_t port, int connections,
                                 int pipeline)
    : stack_(stack),
      server_(server),
      port_(port),
      connections_(connections),
      pipeline_(pipeline) {}

bool PipelinedClient::ConnectAll(const std::function<void()>& pump) {
  for (int i = 0; i < connections_; ++i) {
    auto sock = stack_->TcpConnect(server_, port_);
    if (sock == nullptr) {
      return false;
    }
    conns_.push_back(Conn{.sock = std::move(sock)});
  }
  for (int rounds = 0; rounds < 50000; ++rounds) {
    bool all = true;
    for (Conn& c : conns_) {
      all = all && c.sock->connected();
    }
    if (all) {
      return true;
    }
    pump();
  }
  return false;
}

std::size_t PipelinedClient::PumpOnce() {
  std::size_t done = 0;
  std::uint8_t buf[8192];
  for (Conn& c : conns_) {
    if (c.sock->failed()) {
      continue;
    }
    // Keep the pipeline full: once the last batch is out, the whole top-up
    // is encoded into the reused batch buffer and leaves in one send. A tail
    // the socket did not take is resent first, so requests never interleave.
    if (c.sent == c.batch.size() && c.in_flight < pipeline_) {
      c.batch.clear();
      c.sent = 0;
      c.ends.clear();
      c.ends_done = 0;
      while (c.in_flight + static_cast<int>(c.ends.size()) < pipeline_) {
        AppendRequest(c.batch);
        c.ends.push_back(c.batch.size());
      }
    }
    if (c.sent < c.batch.size()) {
      std::int64_t n = c.sock->Send(std::span(
          reinterpret_cast<const std::uint8_t*>(c.batch.data()) + c.sent,
          c.batch.size() - c.sent));
      if (n > 0) {
        c.sent += static_cast<std::size_t>(n);
      }
      while (c.ends_done < c.ends.size() && c.ends[c.ends_done] <= c.sent) {
        ++c.ends_done;
        ++c.in_flight;
      }
    }
    for (;;) {
      std::int64_t n = c.sock->Recv(buf);
      if (n <= 0) {
        break;
      }
      c.rx.append(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    }
    std::size_t got = ConsumeComplete(&c.rx);
    c.in_flight -= static_cast<int>(got);
    completed_ += got;
    done += got;
  }
  return done;
}

void PipelinedClient::SetBufferCaps(std::size_t send_cap, std::size_t recv_cap) {
  for (Conn& c : conns_) {
    c.sock->SetBufferCaps(send_cap, recv_cap);
  }
}

std::int64_t PipelinedClient::in_flight() const {
  std::int64_t total = 0;
  for (const Conn& c : conns_) {
    total += c.in_flight;
  }
  return total;
}

}  // namespace apps
