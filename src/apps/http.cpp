#include "apps/http.h"

#include <cstring>

namespace apps {

std::optional<HttpRequest> ParseHttpRequest(std::string* buf) {
  std::size_t head_end = buf->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return std::nullopt;
  }
  HttpRequest req;
  std::size_t line_end = buf->find("\r\n");
  std::string line = buf->substr(0, line_end);
  std::size_t sp1 = line.find(' ');
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    buf->erase(0, head_end + 4);
    return std::nullopt;
  }
  req.method = line.substr(0, sp1);
  req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Headers: we only care about Connection.
  std::string headers = buf->substr(line_end + 2, head_end - line_end - 2);
  req.keep_alive = headers.find("Connection: close") == std::string::npos;
  req.complete = true;
  buf->erase(0, head_end + 4);
  return req;
}

HttpServer::HttpServer(posix::PosixApi* api, std::uint16_t port, vfscore::Vfs* vfs)
    : api_(api), port_(port), mode_(ContentMode::kVfs), vfs_(vfs), loop_(api),
      server_(api, &loop_, MakeHandler()) {}

HttpServer::HttpServer(posix::PosixApi* api, std::uint16_t port,
                       const shfs::Shfs* volume)
    : api_(api), port_(port), mode_(ContentMode::kShfs), volume_(volume), loop_(api),
      server_(api, &loop_, MakeHandler()) {}

StreamServer::Handler HttpServer::MakeHandler() {
  StreamServer::Handler h;
  h.on_data = [this](StreamServer::Conn& c, std::string_view data) {
    c.in.append(data);
    while (auto req = ParseHttpRequest(&c.in)) {
      c.out += BuildResponse(*req);
      ++requests_;
      c.want_close = c.want_close || !req->keep_alive;
    }
  };
  return h;
}

bool HttpServer::Start() { return server_.Listen(port_); }

namespace {

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK\r\n";
    case 404: return "HTTP/1.1 404 Not Found\r\n";
    default: return "HTTP/1.1 500 Internal Server Error\r\n";
  }
}

std::string WithHeaders(int code, std::string_view body, bool keep_alive) {
  std::string resp = StatusLine(code);
  resp += "Server: ukhttp/0.1\r\n";
  resp += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  resp += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  resp += "\r\n";
  resp.append(body);
  return resp;
}

}  // namespace

std::string HttpServer::BuildResponse(const HttpRequest& req) {
  if (mode_ == ContentMode::kShfs) {
    // Specialized path: hash lookup straight into the volume, zero-copy view.
    std::string_view name = req.path;
    if (!name.empty() && name[0] == '/') {
      name.remove_prefix(1);
    }
    auto handle = volume_->Open(name);
    if (!handle.has_value()) {
      return WithHeaders(404, "not found", req.keep_alive);
    }
    return WithHeaders(200,
                       std::string_view(reinterpret_cast<const char*>(handle->data.data()),
                                        handle->data.size()),
                       req.keep_alive);
  }
  // Standard path: VFS open + read via the POSIX layer (syscalls charged).
  int fd = api_->Open(req.path, vfscore::kRead);
  if (fd < 0) {
    return WithHeaders(404, "not found", req.keep_alive);
  }
  std::string body;
  std::byte chunk[4096];
  for (;;) {
    std::int64_t n = api_->Read(fd, chunk);
    if (n <= 0) {
      break;
    }
    body.append(reinterpret_cast<char*>(chunk), static_cast<std::size_t>(n));
  }
  api_->Close(fd);
  return WithHeaders(200, body, req.keep_alive);
}

std::size_t HttpServer::PumpOnce() { return PumpWait(0); }

std::size_t HttpServer::PumpWait(std::uint64_t timeout_cycles) {
  const std::uint64_t before = requests_;
  loop_.PumpOnce(timeout_cycles);
  return static_cast<std::size_t>(requests_ - before);
}

// ---- WrkClient --------------------------------------------------------------------

WrkClient::WrkClient(uknet::NetStack* stack, uknet::Ip4Addr server, std::uint16_t port,
                     Config config)
    : PipelinedClient(stack, server, port, config.connections, config.pipeline),
      request_("GET " + config.path +
               " HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: keep-alive\r\n\r\n") {}

// Counts complete HTTP responses in |buf| using Content-Length framing.
std::size_t WrkClient::ConsumeComplete(std::string* buf) {
  std::size_t count = 0;
  for (;;) {
    std::size_t head_end = buf->find("\r\n\r\n");
    if (head_end == std::string::npos) {
      break;
    }
    std::size_t cl = buf->find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) {
      break;
    }
    long len = std::strtol(buf->c_str() + cl + 16, nullptr, 10);
    std::size_t total = head_end + 4 + static_cast<std::size_t>(len);
    if (buf->size() < total) {
      break;
    }
    buf->erase(0, total);
    ++count;
  }
  return count;
}

}  // namespace apps
