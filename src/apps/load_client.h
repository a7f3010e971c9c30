// apps/load_client.h - the one connect/pipeline/reap body behind the load
// generators (RedisBenchClient, WrkClient).
//
// N TCP connections straight on the client host's uknet stack. Each pump
// tops every connection's pipeline up to its depth with one coalesced send —
// the way redis-benchmark and wrk write a whole pipeline in one write() —
// then drains the socket and counts the replies that are complete. A send
// the socket takes only in part keeps its unsent tail, which goes out before
// any new request is encoded; a request counts as in flight once its last
// byte was accepted. A protocol supplies two hooks: encode one request,
// count complete replies. Each connection's batch buffer is reused across
// pumps, so the send path allocates nothing per pump.
#ifndef APPS_LOAD_CLIENT_H_
#define APPS_LOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uknet/stack.h"

namespace apps {

class PipelinedClient {
 public:
  virtual ~PipelinedClient() = default;

  PipelinedClient(const PipelinedClient&) = delete;
  PipelinedClient& operator=(const PipelinedClient&) = delete;

  // Opens every connection, running |pump| until all are established. False
  // if a connect fails or the handshakes do not finish in 50000 rounds.
  bool ConnectAll(const std::function<void()>& pump);
  // Issues pipelined requests and reaps replies; returns replies completed.
  std::size_t PumpOnce();
  // Applies TcpSocket::SetBufferCaps to every connection (after ConnectAll).
  void SetBufferCaps(std::size_t send_cap, std::size_t recv_cap);
  // Requests sent in full whose replies are not complete yet, all connections.
  std::int64_t in_flight() const;

 protected:
  PipelinedClient(uknet::NetStack* stack, uknet::Ip4Addr server,
                  std::uint16_t port, int connections, int pipeline);

  // Appends one request to |batch|.
  virtual void AppendRequest(std::string& batch) = 0;
  // Consumes the complete replies at the front of |rx|; returns how many.
  virtual std::size_t ConsumeComplete(std::string* rx) = 0;

  std::uint64_t completed() const { return completed_; }

 private:
  struct Conn {
    std::shared_ptr<uknet::TcpSocket> sock;
    std::string rx;
    int in_flight = 0;
    // The encoded batch; [sent, batch.size()) has not been accepted yet.
    std::string batch;
    std::size_t sent = 0;
    // End offset in |batch| of each of its requests; the first |ends_done|
    // were accepted whole and count in |in_flight|.
    std::vector<std::size_t> ends;
    std::size_t ends_done = 0;
  };

  uknet::NetStack* stack_;
  uknet::Ip4Addr server_;
  std::uint16_t port_;
  int connections_;
  int pipeline_;
  std::vector<Conn> conns_;
  std::uint64_t completed_ = 0;
};

}  // namespace apps

#endif  // APPS_LOAD_CLIENT_H_
