// apps/stream_server.h - the shared TCP stream-server scaffold.
//
// Every TCP connection in apps/ runs through this one piece of machinery:
// drain the accept queue on kEvtAcceptable, recv each readable connection
// until a short read, flush a pending-output buffer with interest tracking
// (watch kEvtWritable only while bytes are backlogged so an idle connection
// lets the loop sleep), and close after the drain once the peer sent FIN or
// the app asked for teardown. RedisServer, HttpServer and the tab5 echo are the
// server side; the L4 balancer's backend leg and health probes are the client
// side (Connect). The protocol is reduced to three callbacks.
//
// The scaffold does not own its EventLoop, so several instances can share one
// loop (the balancer runs its client and backend sides that way) and a
// handler may close any connection of any instance, its own included.
#ifndef APPS_STREAM_SERVER_H_
#define APPS_STREAM_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "apps/event_loop.h"
#include "posix/api.h"
#include "uknet/stack.h"

namespace apps {

class StreamServer {
 public:
  struct Conn {
    int fd = -1;
    // Handler-owned scratch: the scaffold never reads or writes |in| or
    // |user| — byte-assembling protocols (HTTP) buffer partial requests in
    // |in|, stateful parsers (RESP) live behind |user|.
    std::string in;
    std::shared_ptr<void> user;
    // Scaffold-owned: bytes appended by the handler are flushed with
    // interest tracking; |want_close| closes once the backlog drains.
    std::string out;
    bool peer_eof = false;
    bool want_close = false;
    // Scaffold-owned: set when the connection announced itself as balancer
    // health-probe traffic (kProbePreamble as its first bytes). Protocol
    // handlers consult it to keep probes out of their request stats.
    bool probe = false;
    bool preamble_checked = false;
    uknet::EventMask interest = uknet::kEvtReadable;
  };

  struct Handler {
    // Ran once per accepted or connected connection; seed c.user here.
    std::function<void(Conn&)> on_open;
    // Ran per received chunk: consume |data| (and/or buffer it in c.in),
    // append replies to c.out, set c.want_close to close after the flush.
    std::function<void(Conn&, std::string_view data)> on_data;
    // Ran right before the fd closes (error, FIN, or want_close).
    std::function<void(Conn&)> on_close;
  };

  StreamServer(posix::PosixApi* api, EventLoop* loop, Handler handler)
      : api_(api), loop_(loop), handler_(std::move(handler)) {}
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  // Binds, listens and registers the acceptor with the loop.
  bool Listen(std::uint16_t port);

  // The client side: opens a non-blocking connection to |ip|:|port| and
  // adopts it (on_open runs before this returns). Returns the fd, or -1. The
  // handshake need not be complete: bytes submitted before it finishes wait
  // in the socket's send buffer and leave once the SYN|ACK arrives, and a
  // refused connect closes the connection through on_close.
  int Connect(uknet::Ip4Addr ip, std::uint16_t port);

  // Health-probe announcement: a connection whose first received bytes are
  // exactly this preamble is marked Conn::probe and counted in probe_conns()
  // instead of polluting protocol stats; the bytes after the preamble flow to
  // the handler as normal. The balancer sends preamble+request in one write,
  // so the scaffold only tests the first chunk of a connection.
  static constexpr std::string_view kProbePreamble = "\x01PROBE\x01";

  // Appends bytes to |fd|'s pending output and flushes with interest
  // tracking — for proxy-style apps that produce data for a connection from
  // outside its own on_data dispatch (an upstream replied). Returns false if
  // the fd is not a connection of this server.
  bool Submit(int fd, std::string_view data);

  // Closes |fd| once its pending output drains (immediately if none).
  void CloseAfterFlush(int fd);

  // Immediate teardown: runs on_close, deregisters and closes the fd now,
  // discarding any unflushed output (dead-upstream path).
  //
  // Both closes are safe from any handler, on any connection of any
  // instance. The one exception to "now" is the connection whose on_data is
  // running: it stops receiving at once and is torn down when its dispatch
  // unwinds, so the handler's Conn& stays valid until it returns. on_close
  // runs once per connection; a Close of it from inside its own on_close is
  // a no-op.
  void Close(int fd);

  std::size_t connections() const { return conns_.size(); }
  std::uint64_t probe_conns() const { return probe_conns_; }

 private:
  void OnAcceptable();
  // Registers |fd| with the loop and runs on_open. False when the loop
  // cannot watch it (the fd is closed — an unregistered conn would leak).
  bool Adopt(int fd);
  void OnConnEvent(int fd, uknet::EventMask events);
  // Flushes pending replies; keeps kEvtWritable interest while bytes remain.
  void FlushOut(int fd, Conn& conn);

  posix::PosixApi* api_;
  EventLoop* loop_;
  Handler handler_;
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  // The connection whose OnConnEvent is on the stack, and whether a handler
  // closed it meanwhile (the teardown waits for the dispatch to unwind).
  int dispatching_ = -1;
  bool dispatch_closed_ = false;
  std::uint64_t probe_conns_ = 0;
};

}  // namespace apps

#endif  // APPS_STREAM_SERVER_H_
