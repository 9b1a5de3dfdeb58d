// Blocking wire client for the grid service protocol.
//
// One WireClient is one TCP connection. It is deliberately simple — a
// buffered writer plus a framing reader — because the interesting client
// behaviour (device state machines, backoff, fault draws) lives in the load
// generator; tests also drive it directly as the reference peer for the
// server.
//
// Pipelining: queue() any number of requests (for many simulated devices),
// flush() once, then reap replies with poll_reply()/recv_reply(). The
// service does not answer in per-connection order (it merges all workers'
// traffic by (time, lane, device, seq)), so every reply carries the echoed
// (device, seq) pair for matching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "server/protocol.hpp"

namespace hcmd::client {

namespace proto = hcmd::server::proto;

/// One decoded response frame. The echoed (device, seq) routing pair and
/// the verb are hoisted out of the message for matching.
struct WireReply {
  proto::Verb verb = proto::Verb::kError;
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  proto::Reply msg;

  /// The message, which must be an M (std::bad_variant_access otherwise).
  template <class M>
  const M& get() const {
    return std::get<M>(msg);
  }

  /// The server-side span echo of the message (present only when the
  /// request set proto::kFlagWantSpan and the server has spans on).
  std::optional<proto::SpanBlock> span() const {
    return std::visit(
        [](const auto& m) -> std::optional<proto::SpanBlock> {
          if constexpr (requires { m.span; })
            return m.span;
          else
            return std::nullopt;
        },
        msg);
  }
};

class WireClient {
 public:
  /// Connects (blocking) to an IPv4 literal. Throws ConfigError when the
  /// address is bad or the connection is refused.
  WireClient(const std::string& host, std::uint16_t port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Appends one request frame to the send buffer.
  template <typename M>
  void queue(const M& m) {
    proto::encode(m, out_);
    ++queued_frames_;
  }

  /// Writes every queued frame (blocking until the kernel takes them).
  void flush();

  /// Non-blocking reap: a buffered or immediately readable reply, or
  /// nullopt. Throws ParseError on a malformed stream, ConfigError on EOF.
  std::optional<WireReply> poll_reply();

  /// Blocking reap of one reply.
  WireReply recv_reply();

  int fd() const { return fd_; }
  std::uint64_t sent_frames() const { return sent_frames_; }

 private:
  bool extract(WireReply& out);
  /// Pulls available bytes into the read buffer; `blocking` waits for at
  /// least one byte. Throws ConfigError when the server closed the stream.
  void fill(bool blocking);

  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  std::size_t roff_ = 0;
  std::uint64_t sent_frames_ = 0;
  std::uint64_t queued_frames_ = 0;
};

}  // namespace hcmd::client
