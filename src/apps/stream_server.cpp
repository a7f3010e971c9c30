#include "apps/stream_server.h"

#include "ukarch/status.h"

namespace apps {

StreamServer::~StreamServer() {
  // Connections registered with a still-live loop are detached so a handler
  // dispatch can never reach into a destroyed server. fds stay with the
  // PosixApi owner (tests tear the whole world down together).
  for (auto& [fd, conn] : conns_) {
    loop_->Del(fd);
  }
  if (listen_fd_ >= 0) {
    loop_->Del(listen_fd_);
  }
}

bool StreamServer::Listen(std::uint16_t port) {
  listen_fd_ = api_->Socket(posix::SockType::kStream);
  if (listen_fd_ < 0 || api_->Bind(listen_fd_, port) != 0) {
    return false;
  }
  if (api_->Listen(listen_fd_) != 0) {
    return false;
  }
  return loop_->Add(listen_fd_, uknet::kEvtAcceptable,
                    [this](int, uknet::EventMask) { OnAcceptable(); });
}

void StreamServer::OnAcceptable() {
  // Drain the whole accept queue: one readiness event may cover several
  // completed handshakes (level-triggered, but why take extra turns).
  for (;;) {
    int fd = api_->Accept(listen_fd_);
    if (fd < 0) {
      break;
    }
    Adopt(fd);  // on failure Adopt closed the fd
  }
}

int StreamServer::Connect(uknet::Ip4Addr ip, std::uint16_t port) {
  const int fd = api_->Socket(posix::SockType::kStream);
  if (fd < 0) {
    return -1;
  }
  const int rc = api_->Connect(fd, ip, port);
  if (rc != 0 && rc != static_cast<int>(ukarch::Status::kInProgress)) {
    api_->Close(fd);
    return -1;
  }
  return Adopt(fd) ? fd : -1;
}

bool StreamServer::Adopt(int fd) {
  if (!loop_->Add(fd, uknet::kEvtReadable,
                  [this](int cfd, uknet::EventMask ev) { OnConnEvent(cfd, ev); })) {
    api_->Close(fd);  // cannot watch it: an unregistered conn would leak
    return false;
  }
  auto [it, inserted] = conns_.emplace(fd, Conn{});
  it->second.fd = fd;
  if (handler_.on_open) {
    handler_.on_open(it->second);
  }
  return true;
}

void StreamServer::Close(int fd) {
  if (fd == dispatching_) {
    dispatch_closed_ = true;  // OnConnEvent tears it down on unwind
    return;
  }
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  // Unlinked before on_close runs, so a re-entrant close of the same fd from
  // the handler finds nothing; the node keeps the Conn alive for the call.
  auto node = conns_.extract(it);
  loop_->Del(fd);
  if (handler_.on_close) {
    handler_.on_close(node.mapped());
  }
  api_->Close(fd);
}

void StreamServer::FlushOut(int fd, Conn& conn) {
  while (!conn.out.empty()) {
    std::int64_t n = api_->Send(
        fd, std::span(reinterpret_cast<const std::uint8_t*>(conn.out.data()),
                      conn.out.size()));
    if (n <= 0) {
      break;  // send buffer full; the kEvtWritable edge resumes the flush
    }
    conn.out.erase(0, static_cast<std::size_t>(n));
  }
  // Interest tracks the backlog: watch for writable only while bytes are
  // pending, so an idle connection reports nothing and the loop can sleep.
  const uknet::EventMask want =
      conn.out.empty() ? uknet::kEvtReadable
                       : (uknet::kEvtReadable | uknet::kEvtWritable);
  if (want != conn.interest && loop_->Mod(fd, want)) {
    conn.interest = want;
  }
}

bool StreamServer::Submit(int fd, std::string_view data) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return false;
  }
  Conn& conn = it->second;
  conn.out.append(data);
  FlushOut(fd, conn);
  if ((conn.peer_eof || conn.want_close) && conn.out.empty()) {
    Close(fd);
  }
  return true;
}

void StreamServer::CloseAfterFlush(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  it->second.want_close = true;
  FlushOut(fd, it->second);
  if (it->second.out.empty()) {
    Close(fd);
  }
}

void StreamServer::OnConnEvent(int fd, uknet::EventMask events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = it->second;
  if ((events & uknet::kEvtErr) != 0) {
    Close(fd);  // reset: nothing left to flush
    return;
  }
  std::uint8_t buf[8192];
  dispatching_ = fd;
  while (!dispatch_closed_) {
    std::int64_t n = api_->Recv(fd, buf);
    if (n > 0) {
      std::string_view data(reinterpret_cast<char*>(buf),
                            static_cast<std::size_t>(n));
      if (!conn.preamble_checked) {
        conn.preamble_checked = true;
        if (data.substr(0, kProbePreamble.size()) == kProbePreamble) {
          conn.probe = true;
          ++probe_conns_;
          data.remove_prefix(kProbePreamble.size());
        }
      }
      if (!data.empty() && handler_.on_data) {
        handler_.on_data(conn, data);
      }
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;  // orderly FIN: answer what was pipelined, then close
    }
    break;
  }
  dispatching_ = -1;
  if (dispatch_closed_) {
    dispatch_closed_ = false;
    Close(fd);
    return;
  }
  FlushOut(fd, conn);
  if ((conn.peer_eof || conn.want_close) && conn.out.empty()) {
    Close(fd);
  }
}

}  // namespace apps
