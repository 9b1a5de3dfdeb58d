#include "server/protocol.hpp"

#include <bit>
#include <type_traits>

#include "util/error.hpp"

namespace hcmd::server::proto {

namespace {

/// Appends one frame to a byte vector: length placeholder and verb up
/// front, then little-endian fields, then the length patched by finish().
class Writer {
 public:
  Writer(std::vector<std::uint8_t>& out, Verb verb)
      : out_(out), frame_start_(out.size()) {
    const std::uint8_t head[5] = {0, 0, 0, 0, static_cast<std::uint8_t>(verb)};
    out_.insert(out_.end(), head, head + 5);
  }

  template <class... Ts>
  void operator()(const Ts&... vs) {
    (put(vs), ...);
  }
  /// Optional flags byte on 1.1 requests: written only when nonzero.
  void tail(std::uint8_t flags) {
    if (flags != 0) put(flags);
  }
  /// Optional 32-byte span block on 1.1 responses: written when present.
  void tail(const std::optional<SpanBlock>& s) {
    if (s) (*this)(s->t_read, s->t_enqueue, s->t_dequeue, s->t_decision);
  }
  /// Two flags packed into one byte (bit 0, bit 1).
  void bits(bool b0, bool b1) {
    put(static_cast<std::uint8_t>((b0 ? 1u : 0u) | (b1 ? 2u : 0u)));
  }

  void finish() {
    const std::size_t body = out_.size() - frame_start_ - 4;
    HCMD_ASSERT_MSG(body > 0 && body <= kMaxFrameBytes,
                    "frame body out of range");
    const auto len = static_cast<std::uint32_t>(body);
    for (std::size_t i = 0; i < 4; ++i)
      out_[frame_start_ + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      out_.insert(out_.end(), v.begin(), v.end());
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else {
      static_assert(std::is_unsigned_v<T>);
      // One insert per field: a push_back per byte re-checks capacity
      // every byte.
      std::uint8_t b[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
      out_.insert(out_.end(), b, b + sizeof(T));
    }
  }

  std::vector<std::uint8_t>& out_;
  std::size_t frame_start_;
};

/// Reads little-endian fields from a frame payload into a default-constructed
/// message; throws on underrun and requires the payload to be fully consumed
/// (no trailing bytes — a layout mismatch between peers must fail loudly,
/// not silently truncate).
class Reader {
 public:
  Reader(const Frame& f, const char* what)
      : p_(f.payload), n_(f.size), what_(what) {}

  template <class... Ts>
  void operator()(Ts&... vs) {
    (get(vs), ...);
  }
  /// Optional trailing flags byte on 1.1 requests: exactly one byte left
  /// means flags; zero means a 1.0 frame; anything else is a layout
  /// mismatch that done() will reject.
  void tail(std::uint8_t& flags) {
    if (n_ - pos_ == 1) get(flags);
  }
  /// Optional trailing span block on 1.1 responses (32 bytes or absent).
  void tail(std::optional<SpanBlock>& s) {
    if (n_ - pos_ != sizeof(double) * 4) return;
    SpanBlock& b = s.emplace();
    (*this)(b.t_read, b.t_enqueue, b.t_dequeue, b.t_decision);
  }
  void bits(bool& b0, bool& b1) {
    std::uint8_t v = 0;
    get(v);
    b0 = (v & 1u) != 0;
    b1 = (v & 2u) != 0;
  }

  void done() const {
    if (pos_ != n_) fail("trailing bytes in payload");
  }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t len = 0;
      get(len);
      need(len);
      v.assign(reinterpret_cast<const char*>(p_ + pos_), len);
      pos_ += len;
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t raw = 0;
      get(raw);
      v = std::bit_cast<double>(raw);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      get(b);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u = 0;
      get(u);
      v = static_cast<T>(u);
    } else {
      static_assert(std::is_unsigned_v<T>);
      need(sizeof(T));
      T x = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        x = static_cast<T>(x | (static_cast<T>(p_[pos_ + i]) << (8 * i)));
      v = x;
      pos_ += sizeof(T);
    }
  }

  // The check stays inline on the hot path; only the throw is out of line.
  void need(std::size_t k) const {
    if (k > n_ - pos_) fail("truncated payload");
  }
  [[noreturn]] __attribute__((noinline, cold)) void fail(
      const char* why) const {
    throw ParseError(std::string(what_) + ": " + why);
  }

  const std::uint8_t* p_;
  std::size_t pos_ = 0;
  std::size_t n_;
  const char* what_;
};

/// Reads f's payload into `m`, which the caller has checked is the message
/// f's verb names.
template <class M>
void read_payload(const Frame& f, M& m) {
  Reader r(f, M::kName);
  M::fields(r, m);
  r.done();
}

template <class... Ms>
bool decode_alternative(const Frame& f, std::variant<Ms...>& out) {
  return ((f.verb == Ms::kVerb &&
           (read_payload(f, out.template emplace<Ms>()), true)) ||
          ...);
}

}  // namespace

std::optional<Frame> try_extract(const std::vector<std::uint8_t>& buf,
                                 std::size_t& offset) {
  if (buf.size() - offset < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(buf[offset + i]) << (8 * i);
  if (len == 0 || len > kMaxFrameBytes)
    throw ParseError("frame length " + std::to_string(len) +
                     " outside (0, " + std::to_string(kMaxFrameBytes) + "]");
  if (buf.size() - offset < 4 + static_cast<std::size_t>(len))
    return std::nullopt;
  Frame f;
  f.verb = static_cast<Verb>(buf[offset + 4]);
  f.payload = buf.data() + offset + 5;
  f.size = len - 1;
  offset += 4 + static_cast<std::size_t>(len);
  return f;
}

template <class M>
void encode(const M& m, std::vector<std::uint8_t>& out) {
  Writer w(out, M::kVerb);
  M::fields(w, m);
  w.finish();
}

template <class M>
M decode(const Frame& f) {
  if (f.verb != M::kVerb)
    throw ParseError(std::string(M::kName) + ": wrong verb");
  M m;
  read_payload(f, m);
  return m;
}

template <class V>
bool decode_any(const Frame& f, V& out) {
  return decode_alternative(f, out);
}

// The templates are defined here, not in the header, so the Writer and
// Reader stay out of every send site: one explicit instantiation per message.
#define HCMD_PROTO_MESSAGE(M)                                     \
  template void encode<M>(const M&, std::vector<std::uint8_t>&); \
  template M decode<M>(const Frame&);
HCMD_PROTO_MESSAGE(RequestWork)
HCMD_PROTO_MESSAGE(ReportResult)
HCMD_PROTO_MESSAGE(GetStatus)
HCMD_PROTO_MESSAGE(GetMetrics)
HCMD_PROTO_MESSAGE(DumpDiagnostics)
HCMD_PROTO_MESSAGE(Assignment)
HCMD_PROTO_MESSAGE(NoWork)
HCMD_PROTO_MESSAGE(Busy)
HCMD_PROTO_MESSAGE(ReportAck)
HCMD_PROTO_MESSAGE(Status)
HCMD_PROTO_MESSAGE(ErrorMsg)
HCMD_PROTO_MESSAGE(Metrics)
HCMD_PROTO_MESSAGE(DiagnosticsAck)
#undef HCMD_PROTO_MESSAGE
template bool decode_any<Request>(const Frame&, Request&);
template bool decode_any<Reply>(const Frame&, Reply&);

}  // namespace hcmd::server::proto
