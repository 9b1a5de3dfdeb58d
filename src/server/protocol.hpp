// Compact length-prefixed binary RPC protocol for the grid service.
//
// Frame layout (all integers little-endian, doubles IEEE-754 binary64):
//
//   u32 length      bytes that follow (verb byte + payload); 0 < length
//                   <= kMaxFrameBytes
//   u8  verb        one of proto::Verb
//   ...payload      fixed layout per verb, below
//
// Every message — request or response — starts its payload with the
// (device, seq) pair: clients stamp requests with a per-device monotone
// sequence number (the simulated fleet posts these same request structs
// with the same counter) and the server echoes both back, so a client may
// pipeline many devices' requests on one connection and match responses
// without assuming arrival order. (The service drains workers' queues in
// merged (time, lane, device, seq) order, not per-connection order.)
//
// Requests                         Responses
//   kRequestWork  {device, seq}      kAssignment {device, seq, result_id,
//   kReportResult {device, seq,                   workunit, receptor, ligand,
//                  result_id,                     isep_begin, isep_end,
//                  runtime, ref,                  reference_seconds, deadline}
//                  corruption_tag,   kNoWork     {device, seq, complete}
//                  flags}            kBusy       {device, seq, retry_after}
//   kGetStatus    {device, seq}      kReportAck  {device, seq, state,
//   kGetMetrics   {device, seq,                   duplicate}
//                  format}           kStatus     {device, seq, counters...,
//   kDumpDiagnostics {device, seq}                now, complete}
//                                    kError      {device, seq, code}
//                                    kMetrics    {device, seq, format, text}
//                                    kDiagnosticsAck {device, seq, events,
//                                                     path}
//
// Protocol 1.1 (this header) adds two *optional tails* to the 1.0 layouts:
// the three fleet request verbs may append one flags byte (bit 0 =
// kFlagWantSpan), and the five fleet responses may append a 32-byte span
// block (the server-side RPC timeline). Both tails are omitted when unset,
// so a 1.0 peer's byte streams are valid 1.1 streams and a 1.0 decoder
// never sees the tails it does not know. kGetMetrics/kDumpDiagnostics are
// new verbs, which 1.0 servers answer with kError{kUnknownVerb}.
//
// Each message struct declares its layout once, as a field list:
// `fields(io, m)` names the fields in wire order, `io.tail(...)` marks a
// 1.1 optional tail and `io.bits(...)` packs two flags into one byte. One
// encode and one decode template walk that list, so a message cannot be
// written one way and read another. Scalars are byte shifts (no struct
// punning, so the wire format is identical on any host endianness); a
// string is a u32 length plus its bytes.
//
// Decoding is strict and throws hcmd::ParseError on a wrong verb, a
// truncated payload or trailing bytes that fit no tail. decode_any()
// decodes a frame into whichever alternative of Request or Reply its verb
// names and returns false for a verb from the other direction or none.
// The frame extractor rejects oversized lengths before buffering, which
// is the only flood-control a length-prefixed protocol needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "server/server.hpp"

namespace hcmd::server::proto {

/// Protocol revision spoken by this build. The minor bumps when optional
/// tails or new verbs are added (1.0 streams stay decodable); the major
/// would bump on a breaking relayout.
inline constexpr std::uint8_t kProtocolMajor = 1;
inline constexpr std::uint8_t kProtocolMinor = 1;

/// Hard ceiling on (verb + payload) size. Fleet frames are < 150 bytes, but
/// a kMetrics reply carries a whole exposition text; anything bigger than
/// this is a corrupt or hostile stream.
inline constexpr std::uint32_t kMaxFrameBytes = 65536;

enum class Verb : std::uint8_t {
  kRequestWork = 1,
  kReportResult = 2,
  kGetStatus = 3,
  kAssignment = 4,
  kNoWork = 5,
  kBusy = 6,
  kReportAck = 7,
  kStatus = 8,
  kError = 9,
  kGetMetrics = 10,       ///< protocol 1.1
  kMetrics = 11,          ///< protocol 1.1
  kDumpDiagnostics = 12,  ///< protocol 1.1
  kDiagnosticsAck = 13,   ///< protocol 1.1
};

enum class ErrorCode : std::uint8_t {
  kBadFrame = 1,       ///< undecodable payload
  kUnknownVerb = 2,
  kUnknownResult = 3,  ///< report for a result never issued to this device
};

/// Request flag bits (the optional trailing byte on the fleet verbs).
inline constexpr std::uint8_t kFlagWantSpan = 0x01;

enum class MetricsFormat : std::uint8_t {
  kPrometheus = 0,
  kJson = 1,
};

/// Server-side RPC timeline, echoed (on request) as an optional trailing
/// block in fleet responses. All stamps share the service clock, so the
/// client can difference them: queue wait = t_dequeue - t_read, service
/// time = t_decision - t_dequeue, server total = t_decision - t_read.
/// Reply write time cannot appear here — the block is encoded before the
/// reply is written — so the write stage lives only in server histograms.
struct SpanBlock {
  double t_read = 0.0;      ///< request fully read off the socket
  double t_enqueue = 0.0;   ///< pushed onto the worker's uplink queue
  double t_dequeue = 0.0;   ///< drained by the service thread
  double t_decision = 0.0;  ///< reply encoded
};

// --- message structs -------------------------------------------------------

struct RequestWork {
  static constexpr Verb kVerb = Verb::kRequestWork;
  static constexpr const char* kName = "request_work";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  /// kFlag* bits; encoded only when nonzero (1.0-compatible).
  std::uint8_t flags = 0;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq);
    io.tail(m.flags);
  }
};

struct ReportResult {
  static constexpr Verb kVerb = Verb::kReportResult;
  static constexpr const char* kName = "report_result";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  std::uint64_t result_id = 0;
  double reported_runtime = 0.0;
  double reference_seconds = 0.0;
  std::uint64_t corruption_tag = 0;
  bool computation_error = false;
  bool silent_error = false;
  /// kFlag* bits; encoded only when nonzero (1.0-compatible).
  std::uint8_t flags = 0;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.result_id, m.reported_runtime, m.reference_seconds,
       m.corruption_tag);
    io.bits(m.computation_error, m.silent_error);
    io.tail(m.flags);
  }

  server::ResultReport to_report() const {
    server::ResultReport r;
    r.computation_error = computation_error;
    r.silent_error = silent_error;
    r.reported_runtime = reported_runtime;
    r.reference_seconds = reference_seconds;
    r.corruption_tag = corruption_tag;
    return r;
  }
};

struct GetStatus {
  static constexpr Verb kVerb = Verb::kGetStatus;
  static constexpr const char* kName = "get_status";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  /// kFlag* bits; encoded only when nonzero (1.0-compatible).
  std::uint8_t flags = 0;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq);
    io.tail(m.flags);
  }
};

struct Assignment {
  static constexpr Verb kVerb = Verb::kAssignment;
  static constexpr const char* kName = "assignment";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  std::uint64_t result_id = 0;
  std::uint32_t workunit = 0;
  std::uint16_t receptor = 0;
  std::uint16_t ligand = 0;
  std::uint32_t isep_begin = 0;
  std::uint32_t isep_end = 0;
  double reference_seconds = 0.0;
  double deadline = 0.0;
  std::optional<SpanBlock> span;  ///< only when the request set kFlagWantSpan

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.result_id, m.workunit, m.receptor, m.ligand,
       m.isep_begin, m.isep_end, m.reference_seconds, m.deadline);
    io.tail(m.span);
  }
};

struct NoWork {
  static constexpr Verb kVerb = Verb::kNoWork;
  static constexpr const char* kName = "no_work";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  bool project_complete = false;
  std::optional<SpanBlock> span;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.project_complete);
    io.tail(m.span);
  }
};

struct Busy {
  static constexpr Verb kVerb = Verb::kBusy;
  static constexpr const char* kName = "busy";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  /// Hint: seconds (service time) until the outage window closes.
  double retry_after = 0.0;
  std::optional<SpanBlock> span;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.retry_after);
    io.tail(m.span);
  }
};

struct ReportAck {
  static constexpr Verb kVerb = Verb::kReportAck;
  static constexpr const char* kName = "report_ack";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  server::ResultState state = server::ResultState::kInProgress;
  /// True when this return was a replay of an already-received result (a
  /// network retry after a lost ack): the server state did not change.
  bool duplicate = false;
  std::optional<SpanBlock> span;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.state, m.duplicate);
    io.tail(m.span);
  }
};

struct Status {
  static constexpr Verb kVerb = Verb::kStatus;
  static constexpr const char* kName = "status";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t results_received = 0;
  std::uint64_t results_valid = 0;
  std::uint64_t results_invalid = 0;
  std::uint64_t results_timed_out = 0;
  std::uint64_t workunits_completed = 0;
  std::uint64_t workunits_total = 0;
  std::uint64_t outage_denied = 0;
  std::uint64_t rpc_requests = 0;
  double now = 0.0;  ///< service time, seconds since server start
  bool complete = false;
  // Protocol 1.1 additions (fixed fields — client and server rev together;
  // the optional-tail machinery is reserved for per-request opt-ins).
  double uptime_seconds = 0.0;  ///< wall-clock seconds since server start
  std::uint64_t rpc_assignments = 0;
  std::uint64_t rpc_no_work = 0;
  std::uint64_t rpc_busy = 0;
  std::uint64_t rpc_reports = 0;
  std::uint64_t rpc_duplicate_reports = 0;
  std::uint64_t rpc_status = 0;
  std::uint64_t rpc_errors = 0;
  /// server::PolicyKind of the validation policy the server runs.
  std::uint8_t policy = 0;
  std::optional<SpanBlock> span;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.results_sent, m.results_received, m.results_valid,
       m.results_invalid, m.results_timed_out, m.workunits_completed,
       m.workunits_total, m.outage_denied, m.rpc_requests, m.now, m.complete,
       m.uptime_seconds, m.rpc_assignments, m.rpc_no_work, m.rpc_busy,
       m.rpc_reports, m.rpc_duplicate_reports, m.rpc_status, m.rpc_errors,
       m.policy);
    io.tail(m.span);
  }
};

struct ErrorMsg {
  static constexpr Verb kVerb = Verb::kError;
  static constexpr const char* kName = "error";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  ErrorCode code = ErrorCode::kBadFrame;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.code);
  }
};

struct GetMetrics {
  static constexpr Verb kVerb = Verb::kGetMetrics;
  static constexpr const char* kName = "get_metrics";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  MetricsFormat format = MetricsFormat::kPrometheus;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.format);
  }
};

struct Metrics {
  static constexpr Verb kVerb = Verb::kMetrics;
  static constexpr const char* kName = "metrics";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  MetricsFormat format = MetricsFormat::kPrometheus;
  /// Rendered exposition text; the server clamps it so the frame fits
  /// kMaxFrameBytes.
  std::string text;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.format, m.text);
  }
};

struct DumpDiagnostics {
  static constexpr Verb kVerb = Verb::kDumpDiagnostics;
  static constexpr const char* kName = "dump_diagnostics";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq);
  }
};

struct DiagnosticsAck {
  static constexpr Verb kVerb = Verb::kDiagnosticsAck;
  static constexpr const char* kName = "diagnostics_ack";
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  std::uint64_t events = 0;  ///< trace events written to the flight file
  std::string path;          ///< server-local path of the JSONL dump

  template <class Io, class M>
  static void fields(Io& io, M& m) {
    io(m.device, m.seq, m.events, m.path);
  }
};

/// Every message a client may send, and every message a server answers
/// with. Together they name each message struct exactly once.
using Request = std::variant<RequestWork, ReportResult, GetStatus, GetMetrics,
                             DumpDiagnostics>;
using Reply = std::variant<Assignment, NoWork, Busy, ReportAck, Status,
                           ErrorMsg, Metrics, DiagnosticsAck>;

// --- framing ---------------------------------------------------------------

/// A complete frame sliced out of a receive buffer. `payload` points into
/// the caller's buffer and excludes the verb byte.
struct Frame {
  Verb verb = Verb::kError;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

/// Tries to slice one complete frame starting at `buf[offset]`. Returns
/// nullopt when more bytes are needed; on success advances `offset` past
/// the frame. Throws ParseError on a zero or oversized length prefix.
std::optional<Frame> try_extract(const std::vector<std::uint8_t>& buf,
                                 std::size_t& offset);

// --- codec (defined for the message structs above) -------------------------

/// Appends one frame carrying `m` to `out`.
template <class M>
void encode(const M& m, std::vector<std::uint8_t>& out);

/// Decodes a frame of M's verb. Throws ParseError on a wrong verb or a
/// payload that does not match M's layout.
template <class M>
M decode(const Frame& f);

/// Decodes `f` into the alternative of `out` (Request or Reply) whose verb
/// it carries. Returns false, leaving `out` alone, when no alternative has
/// that verb; throws ParseError when the payload does not match.
template <class V>
bool decode_any(const Frame& f, V& out);

}  // namespace hcmd::server::proto
