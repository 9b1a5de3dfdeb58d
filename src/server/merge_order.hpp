// The deterministic server-side merge order.
//
// Everything that reaches the single logical ProjectServer — from shard
// mailboxes at an epoch barrier, or from network workers in the wire
// service's drain loop — is replayed in ascending (time, lane, key) order:
//
//   lane 0  control items   keyed by registration sequence
//   lane 1  deadline ticks  keyed by result id
//   lane 2  messages        keyed by (global device id, per-device seq)
//
// server::Replayer runs lanes 0 and 1 ahead of each message; MergeKey
// orders the messages among themselves. Every component is independent of
// how the traffic was partitioned (shard count, worker count, connection
// assignment), which is what makes the sharded simulation bit-identical at
// any K — and what lets the wire service reuse the identical discipline:
// within one drain batch, requests apply in the same order no matter which
// worker thread carried them.
#pragma once

#include <cstdint>

namespace hcmd::server {

/// Sort key of one message (lane 2).
struct MergeKey {
  double time = 0.0;
  std::uint32_t gid = 0;  ///< global device id
  std::uint64_t seq = 0;  ///< per-device monotone message counter
};

/// Strict weak ordering over message keys: (time, gid, seq)
/// lexicographically.
inline bool merge_before(const MergeKey& a, const MergeKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.gid != b.gid) return a.gid < b.gid;
  return a.seq < b.seq;
}

}  // namespace hcmd::server
