#include "obs/stats_server.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace bpar::obs {

namespace {

constexpr int kConnTimeoutSec = 5;

void set_socket_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away; nothing useful to do
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& resp) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     status_reason(resp.status) + "\r\n";
  head += "Content-Type: " + resp.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  send_all(fd, head);
  send_all(fd, resp.body);
}

/// Reads until the end of the request head ("\r\n\r\n") or the buffer cap.
/// GET requests have no body we care about.
std::string read_request_head(int fd) {
  std::string buf;
  char chunk[1024];
  while (buf.size() < 16384) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.find("\r\n\r\n") != std::string::npos) break;
  }
  return buf;
}

}  // namespace

StatsServer::~StatsServer() { stop(); }

void StatsServer::handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

bool StatsServer::start(std::uint16_t port) {
  if (listen_fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void StatsServer::stop() {
  if (listen_fd_ < 0) return;
  // shutdown() unblocks the accept() the loop thread is parked in; the
  // loop then sees the failure and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

void StatsServer::accept_loop() {
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or unrecoverable): exit the loop
    }
    set_socket_timeout(conn, kConnTimeoutSec * 1000);
    serve_connection(conn);
    ::close(conn);
  }
}

void StatsServer::serve_connection(int fd) {
  const std::string head = read_request_head(fd);
  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : head.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    send_response(fd, {405, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  const std::string method = head.substr(0, sp1);
  std::string path = head.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  if (method != "GET") {
    send_response(fd,
                  {405, "text/plain; charset=utf-8", "GET only\n"});
    return;
  }
  const auto it = handlers_.find(path);
  if (it == handlers_.end()) {
    send_response(fd, {404, "text/plain; charset=utf-8",
                       "not found: " + path + "\n"});
    return;
  }
  HttpResponse resp;
  try {
    resp = it->second(query);
  } catch (const std::exception& e) {
    resp = {500, "text/plain; charset=utf-8",
            std::string("handler error: ") + e.what() + "\n"};
  } catch (...) {
    resp = {500, "text/plain; charset=utf-8", "handler error\n"};
  }
  send_response(fd, resp);
}

HttpResult http_get(std::string_view host, std::uint16_t port,
                    std::string_view path, int timeout_ms) {
  HttpResult out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string host_str(host);
  if (::inet_pton(AF_INET, host_str.c_str(), &addr.sin_addr) != 1) {
    // Not a numeric IPv4 literal: resolve the name (getaddrinfo also
    // covers "localhost" without /etc/hosts assumptions).
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(host_str.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr) {
      out.error = "resolve " + host_str + ": " + ::gai_strerror(rc);
      if (res != nullptr) ::freeaddrinfo(res);
      return out;
    }
    addr.sin_addr =
        reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    out.error = std::string("socket: ") + std::strerror(errno);
    return out;
  }
  set_socket_timeout(fd, timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    out.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return out;
  }
  std::string req = "GET " + std::string(path) +
                    " HTTP/1.1\r\nHost: " + host_str +
                    "\r\nConnection: close\r\n\r\n";
  send_all(fd, req);
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    out.error = "malformed response (no header terminator)";
    return out;
  }
  // Status line: HTTP/1.1 SP CODE SP REASON.
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > head_end) {
    out.error = "malformed status line";
    return out;
  }
  out.status = std::atoi(raw.c_str() + sp + 1);
  out.body = raw.substr(head_end + 4);
  out.ok = out.status > 0;
  return out;
}

}  // namespace bpar::obs
