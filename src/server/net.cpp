#include "server/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/exposition.hpp"
#include "util/error.hpp"

namespace hcmd::server {

namespace {

// epoll user-data tags: connection slots are small indices, the two
// singleton fds get values no slot can reach.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kEventTag = ~std::uint64_t{0} - 1;

constexpr int kPollMillis = 1;     ///< bounds MPSC gaps + idle deadline lag
constexpr int kMaxEpollEvents = 64;

/// Per-worker flight-recorder ring capacity, in span events.
constexpr std::size_t kFlightCapacity = std::size_t{1} << 14;

/// A closed connection's slot keeps its read and write buffers' capacity
/// for the next connection on it, up to this size.
constexpr std::size_t kMaxKeptBufferBytes = std::size_t{1} << 20;

/// Error-budget fraction of the latency SLO: the share of request_work
/// RPCs that may miss the objective before the burn gauge passes 1.
constexpr double kSloBudgetFraction = 0.001;

std::uint64_t make_token(std::uint32_t worker, std::uint32_t gen,
                         std::uint32_t slot) {
  return (static_cast<std::uint64_t>(worker) << 48) |
         (static_cast<std::uint64_t>(gen & 0xFFFFu) << 32) | slot;
}

void drain_eventfd(int fd) {
  std::uint64_t v = 0;
  // Non-blocking; EAGAIN just means nobody signalled since the last drain.
  while (::read(fd, &v, sizeof v) == static_cast<ssize_t>(sizeof v)) {
  }
}

void signal_eventfd(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
}

}  // namespace

struct GridServer::Worker {
  std::uint32_t index = 0;
  GridServer* server = nullptr;
  int epoll_fd = -1;
  int event_fd = -1;
  util::MpscQueue<WireRequest> uplink;      ///< worker -> service
  util::MpscQueue<WireResponse> downlink;   ///< service -> worker
  std::thread thread;

  /// Worker-side span state. The worker thread is the only writer; the
  /// service thread reads it at snapshot/dump time, so both sides take the
  /// mutex. The histograms and ring are tiny, and the lock is uncontended
  /// outside the ~1 Hz snapshot, so the per-event cost is one clean CAS.
  struct SpanShard {
    std::mutex mutex;
    /// Reply write time (queued -> last byte handed to the kernel), in
    /// service seconds, keyed by the request's RpcClass.
    std::array<obs::LogHistogram, kRpcClassCount> write_seconds;
    /// Flight-recorder ring: admit + write events for the last N RPCs.
    obs::Tracer tracer;
  };
  SpanShard span;

  /// A response frame queued into a connection's write buffer, so its
  /// completion (woff passing end_off) can be timed. Offsets stay valid
  /// because wbuf only compacts once fully drained — at which point every
  /// mark has completed.
  struct WriteMark {
    std::size_t end_off = 0;
    double t_start = 0.0;
    proto::Verb verb = proto::Verb::kError;  ///< the *request* verb
    std::uint32_t device = 0;
  };

  struct Conn {
    int fd = -1;
    std::uint32_t gen = 0;
    bool open = false;
    bool want_write = false;
    bool flush_queued = false;  ///< dedup flag for the downlink drain
    std::vector<std::uint8_t> rbuf;
    std::size_t roff = 0;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    std::vector<WriteMark> marks;
  };
  std::vector<Conn> conns;
  std::vector<std::uint32_t> free_slots;
  std::vector<WireResponse> downlink_scratch;
  std::vector<std::uint32_t> touched_slots;

  /// Admits collected while slicing one read burst, recorded into the
  /// tracer under a single span.mutex acquisition after the loop (the
  /// error path calls flush(), which takes the same mutex, so the lock
  /// cannot simply wrap the loop).
  struct AdmitRec {
    std::uint32_t device;
    std::uint32_t conn;
    std::uint16_t verb;
  };
  std::vector<AdmitRec> admit_scratch;
  /// Countdown cursors for 1-in-kSpanSampleEvery statistics (worker
  /// thread only; independent streams so admit and write sampling don't
  /// beat). Countdowns instead of modulo: a divide per RPC is real money
  /// on this path. Start at 1 so the first event always records.
  std::uint32_t admit_countdown = 1;
  std::uint32_t mark_countdown = 1;

  std::uint32_t alloc_slot() {
    if (!free_slots.empty()) {
      const std::uint32_t s = free_slots.back();
      free_slots.pop_back();
      return s;
    }
    conns.emplace_back();
    return static_cast<std::uint32_t>(conns.size() - 1);
  }

  void open_conn(int fd) {
    const std::uint32_t slot = alloc_slot();
    Conn& c = conns[slot];
    c.fd = fd;
    c.open = true;
    c.want_write = false;
    c.flush_queued = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = slot;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }

  void close_conn(std::uint32_t slot) {
    Conn& c = conns[slot];
    if (!c.open) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    c.open = false;
    ++c.gen;  // responses in flight for the old incarnation get dropped
    // The slot keeps its buffers' grown capacity for its next connection;
    // a one-off burst buffer is freed rather than pinned.
    for (std::vector<std::uint8_t>* b : {&c.rbuf, &c.wbuf}) {
      if (b->capacity() > kMaxKeptBufferBytes)
        std::vector<std::uint8_t>().swap(*b);
      b->clear();
    }
    c.roff = c.woff = 0;
    c.marks.clear();
    free_slots.push_back(slot);
    server->closed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Tries to push the connection's write buffer out; arms/disarms
  /// EPOLLOUT as needed. Closes on a hard error.
  void flush(std::uint32_t slot) {
    Conn& c = conns[slot];
    while (c.woff < c.wbuf.size()) {
      const ssize_t n =
          ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                 MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(slot);
      return;
    }
    // Retire completed write marks: every reply whose last byte has been
    // handed to the kernel gets its write stage recorded.
    if (!c.marks.empty() && server->spans_) {
      std::size_t done = 0;
      while (done < c.marks.size() && c.marks[done].end_off <= c.woff)
        ++done;
      if (done > 0) {
        const double now = server->now_seconds();
        std::lock_guard<std::mutex> lk(span.mutex);
        for (std::size_t i = 0; i < done; ++i) {
          const WriteMark& mark = c.marks[i];
          const double dt = std::max(0.0, now - mark.t_start);
          span.write_seconds[static_cast<std::size_t>(rpc_class(mark.verb))]
              .record(dt);
          span.tracer.record(
              obs::TraceCat::kRpc, obs::TraceEv::kRpcWrite, now, mark.device,
              static_cast<std::uint32_t>(std::min(dt * 1e6, 4.0e9)),
              static_cast<std::uint16_t>(mark.verb));
        }
        c.marks.erase(c.marks.begin(),
                      c.marks.begin() + static_cast<std::ptrdiff_t>(done));
      }
    }
    const bool drained = c.woff == c.wbuf.size();
    if (drained) {
      c.wbuf.clear();
      c.woff = 0;
    }
    if (drained == c.want_write) {
      c.want_write = !drained;
      epoll_event ev{};
      ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
      ev.data.u64 = slot;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    }
  }
};

GridServer::GridServer(std::vector<packaging::Workunit> catalog,
                       ServiceConfig service, NetOptions net)
    : service_(std::move(catalog), std::move(service)), net_(std::move(net)) {
  if (net_.workers == 0) net_.workers = 1;
  if (!(net_.time_scale > 0.0))
    throw ConfigError("serve: time_scale must be positive");
  if (net_.metrics_port > 65535)
    throw ConfigError("serve: metrics_port out of range");
  // The HTTP listener serves the snapshotter's cached strings, so it needs
  // the snapshotter running.
  if (net_.metrics_port >= 0 && !(net_.snapshot_period > 0.0))
    net_.snapshot_period = 1.0;
  spans_ = service_.config().spans;
}

GridServer::~GridServer() { stop(); }

double GridServer::now_seconds() const {
  const auto dt = std::chrono::steady_clock::now() - start_time_;
  return std::chrono::duration<double>(dt).count() * net_.time_scale;
}

GridServer::Stats GridServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

void GridServer::start() {
  if (running_.load(std::memory_order_acquire)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw ConfigError(std::string("serve: socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net_.port);
  if (::inet_pton(AF_INET, net_.listen.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("serve: bad listen address '" + net_.listen + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 512) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("serve: bind " + net_.listen + ":" +
                      std::to_string(net_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  service_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  // Optional plain-HTTP metrics listener.
  metrics_fd_ = -1;
  metrics_port_ = 0;
  if (net_.metrics_port >= 0) {
    metrics_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (metrics_fd_ < 0)
      throw ConfigError(std::string("serve: metrics socket: ") +
                        std::strerror(errno));
    ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in maddr{};
    maddr.sin_family = AF_INET;
    maddr.sin_port = htons(static_cast<std::uint16_t>(net_.metrics_port));
    ::inet_pton(AF_INET, net_.listen.c_str(), &maddr.sin_addr);
    if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&maddr),
               sizeof maddr) < 0 ||
        ::listen(metrics_fd_, 16) < 0) {
      const std::string why = std::strerror(errno);
      ::close(metrics_fd_);
      metrics_fd_ = -1;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw ConfigError("serve: metrics bind " + net_.listen + ":" +
                        std::to_string(net_.metrics_port) + ": " + why);
    }
    sockaddr_in mbound{};
    socklen_t mlen = sizeof mbound;
    ::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&mbound), &mlen);
    metrics_port_ = ntohs(mbound.sin_port);
  }

  // Live-observability wiring: the service stamps decisions with the
  // scaled wall clock, reports wall uptime, and answers the metrics /
  // diagnostics verbs with the merged (service + worker) views.
  service_.set_time_scale(net_.time_scale);
  service_.set_clock([this] { return now_seconds(); });
  service_.set_metrics_provider(
      [this](proto::MetricsFormat f) { return render_metrics(f); });
  service_.set_diagnostics_sink([this] {
    const FlightDump d = dump_flight_record();
    return std::make_pair(d.path, d.events);
  });

  start_time_ = std::chrono::steady_clock::now();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  flight_final_ = false;

  workers_.clear();
  for (std::uint32_t i = 0; i < net_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->server = this;
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    obs::Tracer::Options to;
    to.capacity = kFlightCapacity;
    to.sample_every = {};  // only the RPC category below
    to.sample_every[static_cast<std::size_t>(obs::TraceCat::kRpc)] = 1;
    w->span.tracer = obs::Tracer(to);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev = epoll_event{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventTag;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev);
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
  service_thread_ = std::thread([this] { service_loop(); });
  if (metrics_fd_ >= 0)
    metrics_thread_ = std::thread([this] { metrics_loop(); });
}

void GridServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  signal_eventfd(service_event_fd_);
  for (auto& w : workers_) signal_eventfd(w->event_fd);

  if (service_thread_.joinable()) service_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();

  // Fold every flight ring into the final merge before the workers go
  // away, so a post-stop dump_flight_record() still has the data. All
  // threads are joined; this is single-threaded.
  {
    std::size_t total = service_.tracer().capacity();
    for (auto& w : workers_) total += w->span.tracer.capacity();
    obs::Tracer::Options o;
    o.capacity = total;
    obs::Tracer merged(o);
    merge_flight(merged);
    flight_merged_ = std::move(merged);
    flight_final_ = true;
  }

  for (auto& w : workers_) {
    for (std::uint32_t s = 0; s < w->conns.size(); ++s)
      if (w->conns[s].open) w->close_conn(s);
    ::close(w->event_fd);
    ::close(w->epoll_fd);
  }
  workers_.clear();
  ::close(service_event_fd_);
  service_event_fd_ = -1;
  if (metrics_fd_ >= 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void GridServer::wake_service() { signal_eventfd(service_event_fd_); }

void GridServer::accept_ready(Worker& w) {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a racing worker took it
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    w.open_conn(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void GridServer::worker_loop(Worker& w) {
  epoll_event events[kMaxEpollEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Route finished responses back to their connections first: the service
    // may have signalled while we were busy, and the queue may also hold
    // entries pushed inside the Vyukov visibility window — the poll timeout
    // below bounds that stall.
    w.downlink_scratch.clear();
    w.downlink.drain(w.downlink_scratch);
    const double write_start =
        (spans_ && !w.downlink_scratch.empty()) ? now_seconds() : 0.0;
    // Two passes: append every response to its connection's write buffer,
    // then flush each touched connection once. A pipelined client can have
    // hundreds of replies in one drain, and a send() per reply is pure
    // syscall overhead.
    w.touched_slots.clear();
    for (WireResponse& r : w.downlink_scratch) {
      const auto slot = static_cast<std::uint32_t>(r.conn & 0xFFFFFFFFu);
      const auto gen = static_cast<std::uint32_t>((r.conn >> 32) & 0xFFFFu);
      if (slot >= w.conns.size()) continue;
      Worker::Conn& c = w.conns[slot];
      if (!c.open || (c.gen & 0xFFFFu) != gen) continue;  // conn died
      c.wbuf.insert(c.wbuf.end(), r.bytes.begin(), r.bytes.end());
      if (spans_ && --w.mark_countdown == 0) {
        w.mark_countdown = kSpanSampleEvery;
        c.marks.push_back(Worker::WriteMark{c.wbuf.size(), write_start,
                                            r.verb, r.device});
      }
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      if (!c.flush_queued) {
        c.flush_queued = true;
        w.touched_slots.push_back(slot);
      }
    }
    for (const std::uint32_t slot : w.touched_slots) {
      w.conns[slot].flush_queued = false;
      if (w.conns[slot].open) w.flush(slot);
    }
    const int n = ::epoll_wait(w.epoll_fd, events, kMaxEpollEvents,
                               kPollMillis);
    bool pushed = false;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        accept_ready(w);
        continue;
      }
      if (tag == kEventTag) {
        drain_eventfd(w.event_fd);
        continue;
      }
      const auto slot = static_cast<std::uint32_t>(tag);
      if (slot >= w.conns.size() || !w.conns[slot].open) continue;
      Worker::Conn& c = w.conns[slot];

      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        w.close_conn(slot);
        continue;
      }
      if (events[i].events & EPOLLOUT) w.flush(slot);
      if (!c.open || !(events[i].events & EPOLLIN)) continue;

      // --- read everything available ---
      bool closed = false;
      while (true) {
        const std::size_t old = c.rbuf.size();
        c.rbuf.resize(old + 4096);
        const ssize_t r = ::read(c.fd, c.rbuf.data() + old, 4096);
        if (r > 0) {
          c.rbuf.resize(old + static_cast<std::size_t>(r));
          continue;
        }
        c.rbuf.resize(old);
        if (r == 0) {
          closed = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          closed = true;
        }
        break;
      }

      // --- slice and dispatch complete frames ---
      // One read stamp for the whole burst (the span timeline's t_read):
      // every frame in it became readable together.
      const double t_read = now_seconds();
      try {
        while (true) {
          std::size_t off = c.roff;
          const std::optional<proto::Frame> f =
              proto::try_extract(c.rbuf, off);
          if (!f.has_value()) break;
          c.roff = off;
          frames_in_.fetch_add(1, std::memory_order_relaxed);
          WireRequest m;
          // A verb outside proto::Request (a response verb or no verb at
          // all) is kUnknownVerb; a request verb with a bad payload throws.
          proto::ErrorCode code = proto::ErrorCode::kUnknownVerb;
          bool ok = false;
          try {
            ok = proto::decode_any(*f, m.msg);
          } catch (const ParseError&) {
            code = proto::ErrorCode::kBadFrame;
          }
          if (ok) {
            m.time = t_read;
            m.conn = make_token(w.index, w.conns[slot].gen, slot);
            if (spans_) {
              // The burst's read stamp doubles as the enqueue stamp: frames
              // go straight from slicing onto the uplink, and a second
              // clock read per frame would cost more than the width of the
              // stage it measures.
              m.t_enqueue = t_read;
              if (--w.admit_countdown == 0) {
                w.admit_countdown = kSpanSampleEvery;
                w.admit_scratch.push_back(Worker::AdmitRec{
                    m.device(), static_cast<std::uint32_t>(m.conn),
                    static_cast<std::uint16_t>(f->verb)});
              }
            }
            w.uplink.push(std::move(m));
            pushed = true;
          } else {
            // Framing is intact — answer locally and keep the stream.
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            proto::ErrorMsg e;
            e.code = code;
            proto::encode(e, c.wbuf);
            frames_out_.fetch_add(1, std::memory_order_relaxed);
            w.flush(slot);
            if (!c.open) break;
          }
        }
      } catch (const ParseError&) {
        // Length prefix is garbage: byte sync is unrecoverable.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        w.close_conn(slot);
      }

      if (!w.admit_scratch.empty()) {
        std::lock_guard<std::mutex> lk(w.span.mutex);
        for (const Worker::AdmitRec& a : w.admit_scratch)
          w.span.tracer.record(obs::TraceCat::kRpc, obs::TraceEv::kRpcAdmit,
                               t_read, a.device, a.conn, a.verb);
        w.admit_scratch.clear();
      }
      if (c.open && c.roff > 0 &&
          (c.roff == c.rbuf.size() || c.roff >= 65536)) {
        c.rbuf.erase(c.rbuf.begin(),
                     c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.roff));
        c.roff = 0;
      }
      if (closed && c.open) w.close_conn(slot);
    }
    if (pushed) wake_service();
  }
}

void GridServer::service_loop() {
  std::vector<WireRequest> batch;
  std::vector<WireResponse> out;
  std::vector<bool> touched(workers_.size(), false);

  // Periodic metric snapshots run on this thread: the service registry's
  // histograms are single-writer, so only the thread that writes them may
  // walk them. The HTTP listener serves the cached strings.
  const bool snapshots = net_.snapshot_period > 0.0;
  const auto snap_period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(snapshots ? net_.snapshot_period : 1.0));
  auto next_snapshot = std::chrono::steady_clock::now() + snap_period;

  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{service_event_fd_, POLLIN, 0};
    ::poll(&p, 1, kPollMillis);
    if (p.revents & POLLIN) drain_eventfd(service_event_fd_);

    batch.clear();
    out.clear();
    for (auto& w : workers_) w->uplink.drain(batch);

    // Run even on an empty batch: the deadline lane must tick on a server
    // nobody is talking to.
    service_.process_batch(batch, now_seconds(), out);

    if (snapshots && std::chrono::steady_clock::now() >= next_snapshot) {
      std::string prom = render_metrics(proto::MetricsFormat::kPrometheus);
      std::string json = render_metrics(proto::MetricsFormat::kJson);
      {
        std::lock_guard<std::mutex> lk(snapshot_mutex_);
        snapshot_prom_ = std::move(prom);
        snapshot_json_ = std::move(json);
      }
      next_snapshot = std::chrono::steady_clock::now() + snap_period;
    }

    if (out.empty()) continue;

    std::fill(touched.begin(), touched.end(), false);
    for (WireResponse& r : out) {
      const auto wi = static_cast<std::uint32_t>(r.conn >> 48);
      if (wi >= workers_.size()) continue;
      workers_[wi]->downlink.push(std::move(r));
      touched[wi] = true;
    }
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (touched[i]) signal_eventfd(workers_[i]->event_fd);
  }
}

std::string GridServer::snapshot_text(bool json) const {
  std::lock_guard<std::mutex> lk(snapshot_mutex_);
  return json ? snapshot_json_ : snapshot_prom_;
}

std::string GridServer::render_metrics(proto::MetricsFormat format) {
  obs::Exposition e;
  e.absorb(service_.registry());

  // Worker-side write-stage histograms, merged under their shard locks.
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->span.mutex);
    for (std::size_t c = 0; c < kRpcClassCount; ++c) {
      const std::string name =
          std::string("rpc.") + rpc_class_name(static_cast<RpcClass>(c)) +
          ".write_seconds";
      e.add_histogram(name, w->span.write_seconds[c]);
    }
  }

  const Stats s = stats();
  e.add_counter("net.accepted", s.accepted);
  e.add_counter("net.closed", s.closed);
  e.add_counter("net.frames_in", s.frames_in);
  e.add_counter("net.frames_out", s.frames_out);
  e.add_counter("net.protocol_errors", s.protocol_errors);

  e.add_gauge("server.uptime_seconds", now_seconds() / net_.time_scale);
  e.add_gauge("server.time_scale", net_.time_scale);

  // SLO burn: violations consumed relative to the budget the objective
  // grants (budget = requests x budget_fraction). 1.0 = budget exactly
  // spent; > 1 = burning error budget.
  const auto violations =
      static_cast<double>(service_.registry().total("slo.latency_violations"));
  const auto requests =
      static_cast<double>(service_.registry().total("rpc.requests"));
  const double budget = std::max(1.0, requests * kSloBudgetFraction);
  e.add_gauge("slo.latency_objective_seconds",
              service_.config().slo_latency_seconds);
  e.add_gauge("slo.burn_rate", violations / budget);

  return format == proto::MetricsFormat::kJson ? e.json() : e.prometheus();
}

void GridServer::merge_flight(obs::Tracer& into) {
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->span.mutex);
    into.absorb(w->span.tracer);
  }
  into.absorb(service_.tracer());
}

GridServer::FlightDump GridServer::dump_flight_record() {
  FlightDump d;
  std::string body;
  std::uint64_t retained = 0;
  if (flight_final_) {
    body = flight_merged_.jsonl();
    retained = std::min<std::uint64_t>(flight_merged_.recorded(),
                                       flight_merged_.capacity());
  } else {
    std::size_t total = service_.tracer().capacity();
    for (auto& w : workers_) total += w->span.tracer.capacity();
    obs::Tracer::Options o;
    o.capacity = std::max<std::size_t>(total, 2);
    obs::Tracer merged(o);
    merge_flight(merged);
    body = merged.jsonl();
    retained =
        std::min<std::uint64_t>(merged.recorded(), merged.capacity());
  }

  const auto epoch_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string path =
      net_.flight_prefix + "-" + std::to_string(epoch_ms) + ".jsonl";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return d;  // empty path = not written
  out << body;
  out.close();
  d.path = path;
  d.events = retained;
  return d;
}

void GridServer::metrics_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{metrics_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr <= 0 || !(p.revents & POLLIN)) continue;
    const int fd = ::accept4(metrics_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    timeval tv{};
    tv.tv_sec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    char req[1024];
    const ssize_t n = ::recv(fd, req, sizeof req - 1, 0);
    const std::string head(req, n > 0 ? static_cast<std::size_t>(n) : 0);

    const bool want_json = head.rfind("GET /metrics.json", 0) == 0;
    // "/metrics" but not "/metrics.json": exact path or query suffix.
    const bool want_prom =
        !want_json && (head.rfind("GET /metrics ", 0) == 0 ||
                       head.rfind("GET /metrics?", 0) == 0 ||
                       head.rfind("GET /metrics\r", 0) == 0);

    std::string body;
    std::string status = "404 Not Found";
    std::string ctype = "text/plain";
    if (want_json || want_prom) {
      body = snapshot_text(want_json);
      status = "200 OK";
      ctype = want_json ? "application/json"
                        : "text/plain; version=0.0.4; charset=utf-8";
    } else {
      body = "not found\n";
    }

    std::string resp = "HTTP/1.0 " + status +
                       "\r\nContent-Type: " + ctype +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t sent =
          ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) break;
      off += static_cast<std::size_t>(sent);
    }
    ::close(fd);
  }
}

}  // namespace hcmd::server
