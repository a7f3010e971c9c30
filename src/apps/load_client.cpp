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
    conns_.push_back(Conn{std::move(sock), {}, 0});
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
    // Keep the pipeline full: the whole top-up is encoded into the reused
    // batch buffer and leaves in one send.
    if (c.in_flight < pipeline_) {
      batch_.clear();
      int batched = 0;
      while (c.in_flight + batched < pipeline_) {
        AppendRequest(batch_);
        ++batched;
      }
      std::int64_t n = c.sock->Send(std::span(
          reinterpret_cast<const std::uint8_t*>(batch_.data()), batch_.size()));
      if (n == static_cast<std::int64_t>(batch_.size())) {
        c.in_flight += batched;
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

}  // namespace apps
