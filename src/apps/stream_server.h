// apps/stream_server.h - the shared TCP stream-server scaffold.
//
// RedisServer, HttpServer and the tab5 event-loop echo grew three identical
// copies of the same machinery: drain the accept queue on kEvtAcceptable,
// recv-loop each readable connection, flush a pending-output buffer with
// interest tracking (watch kEvtWritable only while bytes are backlogged so an
// idle connection lets the loop sleep), and close after the drain once the
// peer sent FIN or the app asked for teardown. This scaffold is that copy,
// extracted once, with the protocol reduced to three callbacks.
//
// It is also the fork point for SMP scale-out (§6): the scaffold does not own
// its EventLoop, so N instances can ride N per-queue loops while a steering
// hook on the listening instance hands each accepted fd to the instance whose
// loop owns the connection's RSS queue (accept-steer-dispatch) — every loop
// runs this one code path.
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
    // Ran once per accepted/adopted connection; seed c.user here.
    std::function<void(Conn&)> on_open;
    // Ran per received chunk: consume |data| (and/or buffer it in c.in),
    // append replies to c.out, set c.want_close to close after the flush.
    std::function<void(Conn&, std::string_view data)> on_data;
    // Ran right before the fd closes (error, FIN, or want_close).
    std::function<void(Conn&)> on_close;
  };

  // Steering hook for the listening instance: maps a freshly accepted fd to
  // the StreamServer that must own it (return this/nullptr to keep it local).
  // The chosen instance may run on another loop; the caller is responsible
  // for waking that loop (NetStack::RaiseQueueEvent on its queue).
  using Steer = std::function<StreamServer*(int fd)>;

  StreamServer(posix::PosixApi* api, EventLoop* loop, Handler handler)
      : api_(api), loop_(loop), handler_(std::move(handler)) {}
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  // Binds, listens and registers the acceptor with the loop. One listening
  // instance per port; sharded siblings receive their fds via Adopt.
  bool Listen(std::uint16_t port);
  void SetSteer(Steer steer) { steer_ = std::move(steer); }

  // Registers an fd accepted elsewhere (the steering acceptor) with this
  // instance's loop and runs on_open. False when the loop cannot watch it
  // (the fd is closed — an unregistered conn would leak).
  bool Adopt(int fd);

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
  void Close(int fd);

  // The connection state for |fd|, or nullptr. Valid until the next close.
  Conn* Find(int fd) {
    auto it = conns_.find(fd);
    return it == conns_.end() ? nullptr : &it->second;
  }

  std::size_t connections() const { return conns_.size(); }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t probe_conns() const { return probe_conns_; }
  EventLoop* loop() { return loop_; }

 private:
  void OnAcceptable();
  void OnConnEvent(int fd, uknet::EventMask events);
  void CloseConn(int fd);
  // Flushes pending replies; keeps kEvtWritable interest while bytes remain.
  void FlushOut(int fd, Conn& conn);

  posix::PosixApi* api_;
  EventLoop* loop_;
  Handler handler_;
  Steer steer_;
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  std::uint64_t accepted_ = 0;
  std::uint64_t probe_conns_ = 0;
};

}  // namespace apps

#endif  // APPS_STREAM_SERVER_H_
