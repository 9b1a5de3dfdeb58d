// Client-to-server message buffering for the epoch-barrier engine.
//
// Devices never call the project server synchronously: every scheduler
// interaction (work request, result return) is posted into the shard's
// UplinkMailbox as a server::BatchEntry — the wire protocol's own
// proto::RequestWork or proto::ReportResult, carrying the device's global
// id and a per-device monotone sequence number, stamped with the
// simulation time it happened at. The engine drains every shard's mailbox
// at the epoch barrier and applies the union through
// server::Replayer::apply, the one apply the wire service also uses, in
// ascending (time, global device id, seq) order — a total order built only
// from shard-count-independent quantities, which is what makes a K-shard
// run bit-identical to the sequential (K = 1) engine.
//
// The answers travel back on the device's shard: the replay queues each
// one there as a client::WorkReply, and the shard hands its queue, in
// merged order, to VolunteerFleet::deliver before it next advances.
#pragma once

#include <vector>

#include "server/replayer.hpp"

namespace hcmd::client {

/// One outbound buffer per shard; written only by that shard's fleet while
/// the shard advances, read only by the engine at the barrier.
class UplinkMailbox {
 public:
  void post(const server::BatchEntry& entry) { entries_.push_back(entry); }

  const std::vector<server::BatchEntry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::vector<server::BatchEntry> entries_;
};

}  // namespace hcmd::client
