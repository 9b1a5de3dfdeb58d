// Wire protocol codec: round-trips for every verb, framing across partial
// buffers, loud failure on truncated/oversized/trailing-byte payloads, the
// pinned bytes of every verb, and a deterministic mutation fuzz of decode.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcmd::server;
namespace proto = hcmd::server::proto;

proto::Frame extract_one(const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  const std::optional<proto::Frame> f = proto::try_extract(buf, off);
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(off, buf.size());
  return *f;
}

TEST(Protocol, RequestWorkRoundTrip) {
  proto::RequestWork m;
  m.device = 0xDEADBEEFu;
  m.seq = 0x0123456789ABCDEFull;
  std::vector<std::uint8_t> buf;
  proto::encode(m, buf);
  const auto d = proto::decode<proto::RequestWork>(extract_one(buf));
  EXPECT_EQ(d.device, m.device);
  EXPECT_EQ(d.seq, m.seq);
}

TEST(Protocol, ReportResultRoundTrip) {
  proto::ReportResult m;
  m.device = 7;
  m.seq = 9001;
  m.result_id = 123456789;
  m.reported_runtime = 86400.125;
  m.reference_seconds = 14400.0;
  m.corruption_tag = (7ull << 32) | 3u;
  m.computation_error = false;
  m.silent_error = true;
  std::vector<std::uint8_t> buf;
  proto::encode(m, buf);
  const auto d = proto::decode<proto::ReportResult>(extract_one(buf));
  EXPECT_EQ(d.device, m.device);
  EXPECT_EQ(d.seq, m.seq);
  EXPECT_EQ(d.result_id, m.result_id);
  EXPECT_EQ(d.reported_runtime, m.reported_runtime);
  EXPECT_EQ(d.reference_seconds, m.reference_seconds);
  EXPECT_EQ(d.corruption_tag, m.corruption_tag);
  EXPECT_EQ(d.computation_error, m.computation_error);
  EXPECT_EQ(d.silent_error, m.silent_error);

  // The ResultReport bridge carries every field the validator reads.
  const ResultReport r = d.to_report();
  EXPECT_EQ(r.silent_error, m.silent_error);
  EXPECT_EQ(r.corruption_tag, m.corruption_tag);
  EXPECT_EQ(r.reported_runtime, m.reported_runtime);
}

TEST(Protocol, AssignmentRoundTrip) {
  proto::Assignment m;
  m.device = 3;
  m.seq = 44;
  m.result_id = 991;
  m.workunit = 123456;
  m.receptor = 167;
  m.ligand = 42;
  m.isep_begin = 100;
  m.isep_end = 164;
  m.reference_seconds = 14400.5;
  m.deadline = 864000.0;
  std::vector<std::uint8_t> buf;
  proto::encode(m, buf);
  const auto d = proto::decode<proto::Assignment>(extract_one(buf));
  EXPECT_EQ(d.workunit, m.workunit);
  EXPECT_EQ(d.receptor, m.receptor);
  EXPECT_EQ(d.ligand, m.ligand);
  EXPECT_EQ(d.isep_begin, m.isep_begin);
  EXPECT_EQ(d.isep_end, m.isep_end);
  EXPECT_EQ(d.reference_seconds, m.reference_seconds);
  EXPECT_EQ(d.deadline, m.deadline);
}

TEST(Protocol, SmallMessageRoundTrips) {
  std::vector<std::uint8_t> buf;

  proto::NoWork nw;
  nw.device = 1;
  nw.seq = 2;
  nw.project_complete = true;
  proto::encode(nw, buf);
  EXPECT_TRUE(
      proto::decode<proto::NoWork>(extract_one(buf)).project_complete);
  buf.clear();

  proto::Busy busy;
  busy.device = 5;
  busy.seq = 6;
  busy.retry_after = 245000.0;
  proto::encode(busy, buf);
  EXPECT_EQ(proto::decode<proto::Busy>(extract_one(buf)).retry_after,
            245000.0);
  buf.clear();

  proto::ReportAck ack;
  ack.device = 8;
  ack.seq = 9;
  ack.state = ResultState::kRedundant;
  ack.duplicate = true;
  proto::encode(ack, buf);
  const auto dack = proto::decode<proto::ReportAck>(extract_one(buf));
  EXPECT_EQ(dack.state, ResultState::kRedundant);
  EXPECT_TRUE(dack.duplicate);
  buf.clear();

  proto::ErrorMsg err;
  err.device = 10;
  err.seq = 11;
  err.code = proto::ErrorCode::kUnknownResult;
  proto::encode(err, buf);
  EXPECT_EQ(proto::decode<proto::ErrorMsg>(extract_one(buf)).code,
            proto::ErrorCode::kUnknownResult);
}

TEST(Protocol, StatusRoundTrip) {
  proto::Status m;
  m.device = 0;
  m.seq = 1;
  m.results_sent = 10;
  m.results_received = 9;
  m.results_valid = 8;
  m.results_invalid = 1;
  m.results_timed_out = 2;
  m.workunits_completed = 7;
  m.workunits_total = 100;
  m.outage_denied = 3;
  m.rpc_requests = 20;
  m.now = 1234.5;
  m.complete = false;
  std::vector<std::uint8_t> buf;
  proto::encode(m, buf);
  const auto d = proto::decode<proto::Status>(extract_one(buf));
  EXPECT_EQ(d.results_sent, 10u);
  EXPECT_EQ(d.results_received, 9u);
  EXPECT_EQ(d.workunits_total, 100u);
  EXPECT_EQ(d.outage_denied, 3u);
  EXPECT_EQ(d.rpc_requests, 20u);
  EXPECT_EQ(d.now, 1234.5);
}

// A streaming peer delivers bytes in arbitrary chunks: feeding the buffer
// one byte at a time must yield exactly the encoded frames, in order.
TEST(Protocol, ByteAtATimeFraming) {
  std::vector<std::uint8_t> stream;
  proto::RequestWork a;
  a.device = 1;
  a.seq = 1;
  proto::encode(a, stream);
  proto::GetStatus b;
  b.device = 2;
  b.seq = 2;
  proto::encode(b, stream);

  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  int frames = 0;
  for (const std::uint8_t byte : stream) {
    buf.push_back(byte);
    while (true) {
      const std::optional<proto::Frame> f = proto::try_extract(buf, off);
      if (!f.has_value()) break;
      ++frames;
      if (frames == 1)
        EXPECT_EQ(proto::decode<proto::RequestWork>(*f).device, 1u);
      else
        EXPECT_EQ(proto::decode<proto::GetStatus>(*f).device, 2u);
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(off, stream.size());
}

TEST(Protocol, RejectsZeroAndOversizedLengths) {
  // Zero length prefix.
  std::vector<std::uint8_t> zero{0, 0, 0, 0};
  std::size_t off = 0;
  EXPECT_THROW(proto::try_extract(zero, off), hcmd::ParseError);

  // Length beyond kMaxFrameBytes — rejected before buffering, which is the
  // flood control of a length-prefixed protocol.
  const std::uint32_t big = proto::kMaxFrameBytes + 1;
  std::vector<std::uint8_t> huge{
      static_cast<std::uint8_t>(big), static_cast<std::uint8_t>(big >> 8),
      static_cast<std::uint8_t>(big >> 16),
      static_cast<std::uint8_t>(big >> 24)};
  off = 0;
  EXPECT_THROW(proto::try_extract(huge, off), hcmd::ParseError);
}

TEST(Protocol, TruncatedPayloadThrows) {
  std::vector<std::uint8_t> buf;
  proto::ReportResult m;
  proto::encode(m, buf);
  // Shrink the payload but fix up the length prefix so the frame extracts.
  buf.resize(buf.size() - 8);
  const std::uint32_t len = static_cast<std::uint32_t>(buf.size() - 4);
  for (int i = 0; i < 4; ++i)
    buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
  std::size_t off = 0;
  const std::optional<proto::Frame> f = proto::try_extract(buf, off);
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(proto::decode<proto::ReportResult>(*f), hcmd::ParseError);
}

/// Appends `extra` raw bytes to the encoded frame in `buf` and patches the
/// length prefix so the frame still extracts.
proto::Frame widen_frame(std::vector<std::uint8_t>& buf,
                         std::initializer_list<std::uint8_t> extra) {
  for (const std::uint8_t b : extra) buf.push_back(b);
  const std::uint32_t len = static_cast<std::uint32_t>(buf.size() - 4);
  for (int i = 0; i < 4; ++i)
    buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
  std::size_t off = 0;
  const std::optional<proto::Frame> f = proto::try_extract(buf, off);
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(Protocol, TrailingBytesThrow) {
  // A layout mismatch between peers must fail loudly, not silently ignore
  // the extra fields. One trailing byte on a request is the 1.1 flags tail
  // (tested separately); two junk bytes fit no known tail and must throw.
  std::vector<std::uint8_t> buf;
  proto::RequestWork m;
  const proto::Frame f = widen_frame((proto::encode(m, buf), buf),
                                     {0xAA, 0xBB});
  EXPECT_THROW(proto::decode<proto::RequestWork>(f), hcmd::ParseError);

  // Responses accept only the exact 32-byte span tail: any other trailing
  // size is a layout mismatch.
  std::vector<std::uint8_t> rbuf;
  proto::NoWork nw;
  const proto::Frame rf = widen_frame((proto::encode(nw, rbuf), rbuf),
                                      {1, 2, 3});
  EXPECT_THROW(proto::decode<proto::NoWork>(rf), hcmd::ParseError);
}

TEST(Protocol, OneTrailingByteIsTheFlagsTail) {
  // A 1.1 peer appending a flags byte decodes on this build; a 1.0-encoded
  // frame (no tail) decodes with flags == 0. That pair is the compat
  // contract.
  std::vector<std::uint8_t> buf;
  proto::RequestWork m;
  const proto::Frame f = widen_frame((proto::encode(m, buf), buf),
                                     {proto::kFlagWantSpan});
  EXPECT_EQ(proto::decode<proto::RequestWork>(f).flags, proto::kFlagWantSpan);
}

TEST(Protocol, FlagsRoundTripOnRequestVerbs) {
  std::vector<std::uint8_t> buf;
  proto::RequestWork rw;
  rw.flags = proto::kFlagWantSpan;
  proto::encode(rw, buf);
  EXPECT_EQ(proto::decode<proto::RequestWork>(extract_one(buf)).flags,
            proto::kFlagWantSpan);
  buf.clear();

  proto::ReportResult rr;
  rr.flags = proto::kFlagWantSpan;
  proto::encode(rr, buf);
  EXPECT_EQ(proto::decode<proto::ReportResult>(extract_one(buf)).flags,
            proto::kFlagWantSpan);
  buf.clear();

  proto::GetStatus gs;
  gs.flags = proto::kFlagWantSpan;
  proto::encode(gs, buf);
  EXPECT_EQ(proto::decode<proto::GetStatus>(extract_one(buf)).flags,
            proto::kFlagWantSpan);
}

TEST(Protocol, FlaglessEncodingIsByteIdenticalToProtocol10) {
  // flags == 0 must encode to the 1.0 frame layout, byte for byte lengths:
  // 4 (len) + 1 (verb) + payload. These sizes are pinned so a silent tail
  // can never sneak into the default encoding.
  std::vector<std::uint8_t> buf;
  proto::RequestWork rw;
  proto::encode(rw, buf);
  EXPECT_EQ(buf.size(), 4u + 1u + 12u);  // device u32 + seq u64
  buf.clear();
  proto::GetStatus gs;
  proto::encode(gs, buf);
  EXPECT_EQ(buf.size(), 4u + 1u + 12u);
  buf.clear();
  proto::NoWork nw;
  proto::encode(nw, buf);
  EXPECT_EQ(buf.size(), 4u + 1u + 13u);  // device + seq + bool
}

TEST(Protocol, SpanBlockRoundTripsOnFleetResponses) {
  const proto::SpanBlock span{1.5, 1.625, 2.0, 2.25};
  std::vector<std::uint8_t> buf;

  proto::Assignment a;
  a.device = 3;
  a.seq = 4;
  a.span = span;
  proto::encode(a, buf);
  const auto da = proto::decode<proto::Assignment>(extract_one(buf));
  ASSERT_TRUE(da.span.has_value());
  EXPECT_EQ(da.span->t_read, 1.5);
  EXPECT_EQ(da.span->t_enqueue, 1.625);
  EXPECT_EQ(da.span->t_dequeue, 2.0);
  EXPECT_EQ(da.span->t_decision, 2.25);
  buf.clear();

  proto::Busy b;
  b.retry_after = 60.0;
  b.span = span;
  proto::encode(b, buf);
  const auto db = proto::decode<proto::Busy>(extract_one(buf));
  ASSERT_TRUE(db.span.has_value());
  EXPECT_EQ(db.span->t_decision, 2.25);
  EXPECT_EQ(db.retry_after, 60.0);
  buf.clear();

  // Absent span stays absent.
  proto::ReportAck ack;
  proto::encode(ack, buf);
  EXPECT_FALSE(
      proto::decode<proto::ReportAck>(extract_one(buf)).span.has_value());
}

TEST(Protocol, StatusExtendedFieldsRoundTrip) {
  proto::Status m;
  m.uptime_seconds = 12.5;
  m.rpc_assignments = 1;
  m.rpc_no_work = 2;
  m.rpc_busy = 3;
  m.rpc_reports = 4;
  m.rpc_duplicate_reports = 5;
  m.rpc_status = 6;
  m.rpc_errors = 7;
  m.policy = 1;  // server runs the adaptive validation policy
  m.span = proto::SpanBlock{0.5, 0.5, 1.0, 1.5};
  std::vector<std::uint8_t> buf;
  proto::encode(m, buf);
  const auto d = proto::decode<proto::Status>(extract_one(buf));
  EXPECT_EQ(d.uptime_seconds, 12.5);
  EXPECT_EQ(d.rpc_assignments, 1u);
  EXPECT_EQ(d.rpc_no_work, 2u);
  EXPECT_EQ(d.rpc_busy, 3u);
  EXPECT_EQ(d.rpc_reports, 4u);
  EXPECT_EQ(d.rpc_duplicate_reports, 5u);
  EXPECT_EQ(d.rpc_status, 6u);
  EXPECT_EQ(d.rpc_errors, 7u);
  EXPECT_EQ(d.policy, 1);
  ASSERT_TRUE(d.span.has_value());
  EXPECT_EQ(d.span->t_dequeue, 1.0);
}

TEST(Protocol, MetricsVerbsRoundTrip) {
  std::vector<std::uint8_t> buf;

  proto::GetMetrics gm;
  gm.device = 1;
  gm.seq = 2;
  gm.format = proto::MetricsFormat::kJson;
  proto::encode(gm, buf);
  const auto dgm = proto::decode<proto::GetMetrics>(extract_one(buf));
  EXPECT_EQ(dgm.device, 1u);
  EXPECT_EQ(dgm.seq, 2u);
  EXPECT_EQ(dgm.format, proto::MetricsFormat::kJson);
  buf.clear();

  proto::Metrics me;
  me.device = 1;
  me.seq = 2;
  me.format = proto::MetricsFormat::kPrometheus;
  me.text = "# TYPE hcmd_rpc_requests_total counter\n"
            "hcmd_rpc_requests_total 9\n";
  proto::encode(me, buf);
  const auto dme = proto::decode<proto::Metrics>(extract_one(buf));
  EXPECT_EQ(dme.format, proto::MetricsFormat::kPrometheus);
  EXPECT_EQ(dme.text, me.text);
}

TEST(Protocol, DiagnosticsVerbsRoundTrip) {
  std::vector<std::uint8_t> buf;

  proto::DumpDiagnostics dd;
  dd.device = 9;
  dd.seq = 10;
  proto::encode(dd, buf);
  const auto ddd = proto::decode<proto::DumpDiagnostics>(extract_one(buf));
  EXPECT_EQ(ddd.device, 9u);
  EXPECT_EQ(ddd.seq, 10u);
  buf.clear();

  proto::DiagnosticsAck da;
  da.device = 9;
  da.seq = 10;
  da.events = 16384;
  da.path = "flight-1234.jsonl";
  proto::encode(da, buf);
  const auto dda = proto::decode<proto::DiagnosticsAck>(extract_one(buf));
  EXPECT_EQ(dda.events, 16384u);
  EXPECT_EQ(dda.path, "flight-1234.jsonl");
}

TEST(Protocol, WrongVerbThrows) {
  std::vector<std::uint8_t> buf;
  proto::RequestWork m;
  proto::encode(m, buf);
  EXPECT_THROW(proto::decode<proto::GetStatus>(extract_one(buf)),
               hcmd::ParseError);
}

TEST(Protocol, IncompleteFrameReturnsNullopt) {
  std::vector<std::uint8_t> buf;
  proto::Assignment m;
  proto::encode(m, buf);
  const std::size_t full = buf.size();
  for (std::size_t cut = 0; cut < full; ++cut) {
    std::vector<std::uint8_t> part(buf.begin(),
                                   buf.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t off = 0;
    if (cut < 4) {
      EXPECT_FALSE(proto::try_extract(part, off).has_value());
    } else {
      EXPECT_FALSE(proto::try_extract(part, off).has_value());
      EXPECT_EQ(off, 0u);
    }
  }
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

/// One frame of a verb as this build encodes it, next to the hex protocol
/// 1.1 puts on the wire for it.
struct Pinned {
  const char* name;
  std::vector<std::uint8_t> encoded;
  const char* hex;
};

template <class M>
Pinned pin(const char* name, const M& m, const char* hex) {
  Pinned p{name, {}, hex};
  proto::encode(m, p.encoded);
  return p;
}

/// Every verb once, plus the 1.1 tail forms: the flags byte on the three
/// fleet requests and the span block on the five fleet responses. Field
/// values follow the round-trip cases above.
std::vector<Pinned> pinned_frames() {
  const proto::SpanBlock span{1.5, 1.625, 2.0, 2.25};
  std::vector<Pinned> v;

  proto::RequestWork rw;
  rw.device = 0xDEADBEEFu;
  rw.seq = 0x0123456789ABCDEFull;
  v.push_back(pin("request_work", rw, "0d00000001efbeaddeefcdab8967452301"));
  rw.flags = proto::kFlagWantSpan;
  v.push_back(pin("request_work+flags", rw,
      "0e00000001efbeaddeefcdab896745230101"));

  proto::ReportResult rr;
  rr.device = 7;
  rr.seq = 9001;
  rr.result_id = 123456789;
  rr.reported_runtime = 86400.125;
  rr.reference_seconds = 14400.0;
  rr.corruption_tag = (7ull << 32) | 3u;
  rr.silent_error = true;
  v.push_back(pin("report_result", rr,
      "2e0000000207000000292300000000000015cd5b0700000000000000000218f5"
      "40000000000020cc40030000000700000002"));
  // The other error bit, so both bits of the packed byte are pinned.
  rr.silent_error = false;
  rr.computation_error = true;
  rr.flags = proto::kFlagWantSpan;
  v.push_back(pin("report_result+flags", rr,
      "2f0000000207000000292300000000000015cd5b0700000000000000000218f5"
      "40000000000020cc4003000000070000000101"));

  proto::GetStatus gs;
  gs.device = 2;
  gs.seq = 3;
  v.push_back(pin("get_status", gs, "0d00000003020000000300000000000000"));
  gs.flags = proto::kFlagWantSpan;
  v.push_back(pin("get_status+flags", gs,
      "0e0000000302000000030000000000000001"));

  proto::Assignment a;
  a.device = 3;
  a.seq = 44;
  a.result_id = 991;
  a.workunit = 123456;
  a.receptor = 167;
  a.ligand = 42;
  a.isep_begin = 100;
  a.isep_end = 164;
  a.reference_seconds = 14400.5;
  a.deadline = 864000.0;
  v.push_back(pin("assignment", a,
      "3500000004030000002c00000000000000df0300000000000040e20100a7002a"
      "0064000000a4000000000000004020cc4000000000005e2a41"));
  a.span = span;
  v.push_back(pin("assignment+span", a,
      "5500000004030000002c00000000000000df0300000000000040e20100a7002a"
      "0064000000a4000000000000004020cc4000000000005e2a41000000000000f8"
      "3f000000000000fa3f00000000000000400000000000000240"));

  proto::NoWork nw;
  nw.device = 1;
  nw.seq = 2;
  nw.project_complete = true;
  v.push_back(pin("no_work", nw, "0e0000000501000000020000000000000001"));
  nw.span = span;
  v.push_back(pin("no_work+span", nw,
      "2e0000000501000000020000000000000001000000000000f83f000000000000"
      "fa3f00000000000000400000000000000240"));

  proto::Busy busy;
  busy.device = 5;
  busy.seq = 6;
  busy.retry_after = 245000.0;
  v.push_back(pin("busy", busy,
      "15000000060500000006000000000000000000000040e80d41"));
  busy.span = span;
  v.push_back(pin("busy+span", busy,
      "35000000060500000006000000000000000000000040e80d41000000000000f8"
      "3f000000000000fa3f00000000000000400000000000000240"));

  proto::ReportAck ack;
  ack.device = 8;
  ack.seq = 9;
  ack.state = ResultState::kRedundant;
  ack.duplicate = true;
  v.push_back(pin("report_ack", ack, "0f000000070800000009000000000000000301"));
  ack.span = span;
  v.push_back(pin("report_ack+span", ack,
      "2f000000070800000009000000000000000301000000000000f83f0000000000"
      "00fa3f00000000000000400000000000000240"));

  proto::Status st;
  st.device = 0;
  st.seq = 1;
  st.results_sent = 10;
  st.results_received = 9;
  st.results_valid = 8;
  st.results_invalid = 1;
  st.results_timed_out = 2;
  st.workunits_completed = 7;
  st.workunits_total = 100;
  st.outage_denied = 3;
  st.rpc_requests = 20;
  st.now = 1234.5;
  st.complete = true;
  st.uptime_seconds = 12.5;
  st.rpc_assignments = 1;
  st.rpc_no_work = 2;
  st.rpc_busy = 3;
  st.rpc_reports = 4;
  st.rpc_duplicate_reports = 5;
  st.rpc_status = 6;
  st.rpc_errors = 7;
  st.policy = 1;
  v.push_back(pin("status", st,
      "9f000000080000000001000000000000000a0000000000000009000000000000"
      "0008000000000000000100000000000000020000000000000007000000000000"
      "0064000000000000000300000000000000140000000000000000000000004a93"
      "4001000000000000294001000000000000000200000000000000030000000000"
      "0000040000000000000005000000000000000600000000000000070000000000"
      "000001"));
  st.span = span;
  v.push_back(pin("status+span", st,
      "bf000000080000000001000000000000000a0000000000000009000000000000"
      "0008000000000000000100000000000000020000000000000007000000000000"
      "0064000000000000000300000000000000140000000000000000000000004a93"
      "4001000000000000294001000000000000000200000000000000030000000000"
      "0000040000000000000005000000000000000600000000000000070000000000"
      "000001000000000000f83f000000000000fa3f00000000000000400000000000"
      "000240"));

  proto::ErrorMsg err;
  err.device = 10;
  err.seq = 11;
  err.code = proto::ErrorCode::kUnknownResult;
  v.push_back(pin("error", err, "0e000000090a0000000b0000000000000003"));

  proto::GetMetrics gm;
  gm.device = 1;
  gm.seq = 2;
  gm.format = proto::MetricsFormat::kJson;
  v.push_back(pin("get_metrics", gm, "0e0000000a01000000020000000000000001"));

  proto::Metrics me;
  me.device = 1;
  me.seq = 2;
  me.text = "hcmd_rpc_requests_total 9\n";
  v.push_back(pin("metrics", me,
      "2c0000000b010000000200000000000000001a00000068636d645f7270635f72"
      "657175657374735f746f74616c20390a"));

  proto::DumpDiagnostics dd;
  dd.device = 9;
  dd.seq = 10;
  v.push_back(pin("dump_diagnostics", dd,
      "0d0000000c090000000a00000000000000"));

  proto::DiagnosticsAck da;
  da.device = 9;
  da.seq = 10;
  da.events = 16384;
  da.path = "flight-1234.jsonl";
  v.push_back(pin("diagnostics_ack", da,
      "2a0000000d090000000a00000000000000004000000000000011000000666c69"
      "6768742d313233342e6a736f6e6c"));
  return v;
}

// The bytes on the wire are the protocol: a codec change that moves any
// field, tail or verb byte of any message fails here.
TEST(Protocol, EveryVerbMatchesItsPinnedBytes) {
  const std::vector<Pinned> frames = pinned_frames();
  ASSERT_EQ(frames.size(), 21u);
  for (const Pinned& p : frames) EXPECT_EQ(to_hex(p.encoded), p.hex) << p.name;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  return bytes;
}

/// Rewrites the length prefix to cover everything after it, so a mutated
/// payload reaches the decoders instead of stalling in the extractor.
void patch_length(std::vector<std::uint8_t>& frame) {
  const auto len = static_cast<std::uint32_t>(frame.size() - 4);
  for (std::size_t i = 0; i < 4; ++i)
    frame[i] = static_cast<std::uint8_t>(len >> (8 * i));
}

/// Slices every frame out of `bytes` and decodes each in both directions.
/// A bad length prefix or payload may throw ParseError, which ends that
/// input; anything else escapes to the caller.
void extract_and_decode_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  try {
    while (const auto f = proto::try_extract(bytes, off)) {
      proto::Request request;
      proto::Reply reply;
      try {
        proto::decode_any(*f, request);
      } catch (const hcmd::ParseError&) {
      }
      try {
        proto::decode_any(*f, reply);
      } catch (const hcmd::ParseError&) {
      }
    }
  } catch (const hcmd::ParseError&) {
  }
}

// Decode must survive hostile input: every mutated frame either decodes or
// throws ParseError. Any other exception fails here; under the sanitizer
// build an out-of-bounds read or UB fails it too.
TEST(ProtocolFuzz, MutatedFramesDecodeOrThrowParseError) {
  hcmd::util::Rng rng(0xF022);
  std::size_t inputs = 0;
  const auto feed = [&inputs](const char* name,
                              const std::vector<std::uint8_t>& bytes) {
    ++inputs;
    EXPECT_NO_THROW(extract_and_decode_all(bytes)) << name;
  };

  for (const Pinned& p : pinned_frames()) {
    const std::vector<std::uint8_t> frame = from_hex(p.hex);

    // The seed decodes in its own direction and re-encodes to itself.
    std::size_t off = 0;
    const std::optional<proto::Frame> f = proto::try_extract(frame, off);
    ASSERT_TRUE(f.has_value()) << p.name;
    proto::Request request;
    proto::Reply reply;
    const bool is_request = proto::decode_any(*f, request);
    const bool is_reply = proto::decode_any(*f, reply);
    EXPECT_NE(is_request, is_reply) << p.name;
    std::vector<std::uint8_t> again;
    const auto reencode = [&again](const auto& m) { proto::encode(m, again); };
    if (is_request) std::visit(reencode, request);
    if (is_reply) std::visit(reencode, reply);
    EXPECT_EQ(again, frame) << p.name;

    // Every truncation, as sent (the extractor waits for more bytes) and
    // with the length prefix patched (the decoders see a short payload).
    for (std::size_t n = 0; n < frame.size(); ++n) {
      std::vector<std::uint8_t> cut(
          frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(n));
      feed(p.name, cut);
      if (n > 4) {
        patch_length(cut);
        feed(p.name, cut);
      }
    }

    // Every single-bit flip, the length prefix and verb byte included.
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::vector<std::uint8_t> flipped = frame;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      feed(p.name, flipped);
    }

    // Seeded random multi-byte edits: overwrite, insert, erase and flip at
    // random offsets; half keep a consistent length prefix.
    for (int i = 0; i < 2000; ++i) {
      std::vector<std::uint8_t> edited = frame;
      const std::int64_t edits = rng.uniform_int(2, 8);
      for (std::int64_t e = 0; e < edits && !edited.empty(); ++e) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edited.size()) - 1));
        const auto byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const auto pos = edited.begin() + static_cast<std::ptrdiff_t>(at);
        switch (rng.uniform_int(0, 3)) {
          case 0: edited[at] = byte; break;
          case 1: edited.insert(pos, byte); break;
          case 2: edited.erase(pos); break;
          default: edited[at] ^= static_cast<std::uint8_t>(1u << (byte % 8));
        }
      }
      if (edited.size() > 4 && rng.bernoulli(0.5)) patch_length(edited);
      feed(p.name, edited);
    }
  }
  EXPECT_GT(inputs, 21u * 2000u);
}

}  // namespace
