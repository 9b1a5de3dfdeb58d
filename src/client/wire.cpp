#include "client/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace hcmd::client {

WireClient::WireClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    throw ConfigError(std::string("wire: socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw ConfigError("wire: bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw ConfigError("wire: connect " + host + ":" + std::to_string(port) +
                      ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  in_.reserve(4096);
  out_.reserve(4096);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

void WireClient::flush() {
  std::size_t off = 0;
  while (off < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw ConfigError(std::string("wire: send: ") + std::strerror(errno));
  }
  out_.clear();
  sent_frames_ += queued_frames_;
  queued_frames_ = 0;
}

void WireClient::fill(bool blocking) {
  const std::size_t old = in_.size();
  in_.resize(old + 4096);
  const ssize_t n =
      ::recv(fd_, in_.data() + old, 4096, blocking ? 0 : MSG_DONTWAIT);
  if (n > 0) {
    in_.resize(old + static_cast<std::size_t>(n));
    return;
  }
  in_.resize(old);
  if (n == 0) throw ConfigError("wire: server closed the connection");
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
  throw ConfigError(std::string("wire: recv: ") + std::strerror(errno));
}

bool WireClient::extract(WireReply& out) {
  std::size_t off = roff_;
  const std::optional<proto::Frame> f = proto::try_extract(in_, off);
  if (!f.has_value()) {
    // Reclaim consumed prefix once the buffer is drained or getting large.
    if (roff_ > 0 && (roff_ == in_.size() || roff_ >= 65536)) {
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(roff_));
      roff_ = 0;
    }
    return false;
  }
  roff_ = off;
  if (!proto::decode_any(*f, out.msg))
    throw ParseError("wire: request verb in a response stream");
  out.verb = f->verb;
  std::visit(
      [&out](const auto& m) {
        out.device = m.device;
        out.seq = m.seq;
      },
      out.msg);
  return true;
}

std::optional<WireReply> WireClient::poll_reply() {
  // Decoded in place: every path returns `r`, so it is never copied.
  std::optional<WireReply> r(std::in_place);
  if (extract(*r)) return r;
  fill(/*blocking=*/false);
  if (!extract(*r)) r.reset();
  return r;
}

WireReply WireClient::recv_reply() {
  WireReply r;
  while (!extract(r)) fill(/*blocking=*/true);
  return r;
}

}  // namespace hcmd::client
