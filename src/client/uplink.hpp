// Client-to-server message buffering for the epoch-barrier engine.
//
// Devices no longer call the project server synchronously: every scheduler
// interaction (work request, result return) is posted into the shard's
// UplinkMailbox with the simulation time it happened at and a per-device
// monotone sequence number. The engine drains every shard's mailbox at the
// epoch barrier and replays the union against the single logical server in
// ascending (time, global device id, seq) order — a total order built only
// from shard-count-independent quantities, which is what makes a K-shard
// run bit-identical to the sequential (K = 1) engine.
//
// The answers travel back as Replies: the replay queues each one on the
// device's shard, and the shard applies its queue, in merged order, before
// it next advances.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "server/server.hpp"

namespace hcmd::client {

struct UplinkMessage {
  enum class Kind : std::uint8_t { kWorkRequest, kResultReturn };

  double time = 0.0;          ///< shard sim time the device issued it
  std::uint64_t seq = 0;      ///< per-device monotone message counter
  std::uint32_t device = 0;   ///< shard-local device index
  Kind kind = Kind::kWorkRequest;
  // --- kResultReturn payload ---
  std::uint64_t result_id = 0;
  server::ResultReport report;
};

/// The barrier's answer to one work request.
struct Reply {
  std::uint32_t device = 0;  ///< shard-local device index
  /// ProjectServer::complete() when the request was answered (a denial
  /// sends the device to another project's work once the campaign is done).
  bool project_complete = false;
  std::optional<server::Assignment> assignment;  ///< empty: a denial
};

/// One outbound buffer per shard; written only by that shard's fleet while
/// the shard advances, read only by the engine at the barrier.
class UplinkMailbox {
 public:
  void post(UplinkMessage message) { messages_.push_back(message); }

  std::vector<UplinkMessage>& messages() { return messages_; }
  void clear() { messages_.clear(); }
  std::size_t size() const { return messages_.size(); }

 private:
  std::vector<UplinkMessage> messages_;
};

}  // namespace hcmd::client
