// GridServer: the network front end of `hcmdgrid serve`.
//
// Threading model (one logical server, N+2 threads):
//
//   N worker threads   each owns an epoll instance, an eventfd and a set
//                      of non-blocking connection slots; a closed slot
//                      keeps its read/write buffers' capacity (up to
//                      1 MiB) for the next connection it takes. The
//                      shared listening socket is registered in every
//                      worker's epoll (EPOLLEXCLUSIVE), so the kernel
//                      spreads accepts without a handoff queue and a
//                      connection lives its whole life on one worker.
//                      Workers do IO and framing only: they slice frames
//                      out of the read buffer, decode each into the
//                      proto::Request of a WireRequest stamped with the
//                      arrival time, and push it onto their own MPSC
//                      uplink queue. They never touch the workunit store.
//
//   1 service thread   drains every worker's uplink queue, replays the
//                      union through GridService::process_batch — the
//                      deterministic (time, lane, device, seq) merge the
//                      epoch-barrier engine proved out — and routes the
//                      encoded responses back through per-worker MPSC
//                      downlink queues, kicking each worker's eventfd.
//
//   (the caller)       start()/stop() and inspection.
//
// Wakeups are edge-ish but every blocking point has a ~1 ms timeout: the
// Vyukov queue's push window (an in-flight push is momentarily invisible to
// the consumer) and the deadline lane (ticks must fire on a quiet server)
// are both bounded by one poll interval instead of requiring a fence or a
// timer fd per deadline.
//
// All sockets are non-blocking; partial writes park the remainder in the
// connection's write buffer and arm EPOLLOUT until it drains. A framing
// error (bad length prefix) kills the connection — byte sync is gone; a
// decodable frame with a bad payload or a response verb gets a kError reply
// and the stream continues.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "server/service.hpp"
#include "util/mpsc_queue.hpp"

namespace hcmd::server {

struct NetOptions {
  std::string listen = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with port().
  std::uint16_t port = 0;
  /// Event-loop threads (clamped to >= 1).
  std::uint32_t workers = 2;
  /// Service seconds per wall-clock second. Lets a wire test replay a
  /// multi-day fault plan (outage windows, deadlines) in real minutes.
  double time_scale = 1.0;
  /// Plain-HTTP metrics listener ("GET /metrics" -> Prometheus text,
  /// "GET /metrics.json" -> JSON snapshot). -1 disables; 0 binds an
  /// ephemeral port (read back with metrics_port()).
  std::int32_t metrics_port = -1;
  /// Wall seconds between in-server metric snapshots (the strings the HTTP
  /// listener serves, plus the SLO burn computation). <= 0 disables the
  /// snapshotter; it is forced on (at 1 s) when metrics_port is set.
  double snapshot_period = 1.0;
  /// Flight-record dumps are written as `<prefix>-<epoch-ms>.jsonl`.
  std::string flight_prefix = "flight";
};

class GridServer {
 public:
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    /// Local error replies (bad payload, response verb from a client) plus
    /// connections dropped for a broken length prefix.
    std::uint64_t protocol_errors = 0;
  };

  GridServer(std::vector<packaging::Workunit> catalog, ServiceConfig service,
             NetOptions net);
  ~GridServer();

  GridServer(const GridServer&) = delete;
  GridServer& operator=(const GridServer&) = delete;

  /// Binds, listens and launches the threads. Throws ConfigError when the
  /// address is unparseable or the bind fails.
  void start();

  /// Stops the threads, closes every socket. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (after start()).
  std::uint16_t port() const { return port_; }
  /// Actual bound metrics port (after start(); 0 when the listener is off).
  std::uint16_t metrics_port() const { return metrics_port_; }

  /// Wall clock -> service seconds since start(), scaled by time_scale.
  double now_seconds() const;

  /// The RPC layer. Single-threaded on the service thread while running —
  /// callers may only touch it before start() or after stop(), except for
  /// Registry counter reads (atomic by design).
  GridService& service() { return service_; }
  const GridService& service() const { return service_; }

  Stats stats() const;

  /// The most recent snapshotter output (thread-safe; empty until the
  /// first snapshot fires). `json` selects the JSON form.
  std::string snapshot_text(bool json = false) const;

  struct FlightDump {
    std::string path;
    std::uint64_t events = 0;
  };

  /// Merges the per-worker flight-recorder rings and the service tracer
  /// into one timestamped JSONL file (`<flight_prefix>-<epoch-ms>.jsonl`).
  /// Safe from the service thread while running (the dump_diagnostics verb
  /// routes here) and from any thread once stopped — stop() folds the rings
  /// into a final merge before tearing the workers down. Returns an empty
  /// path when the file cannot be written.
  FlightDump dump_flight_record();

 private:
  struct Worker;

  void accept_ready(Worker& w);
  void worker_loop(Worker& w);
  void service_loop();
  void metrics_loop();
  void wake_service();
  /// Builds the full exposition (service registry + worker-side write
  /// histograms + net stats + SLO burn). Service thread only while running.
  std::string render_metrics(proto::MetricsFormat format);
  void merge_flight(obs::Tracer& into);

  GridService service_;
  NetOptions net_;

  int listen_fd_ = -1;
  int service_event_fd_ = -1;
  int metrics_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread service_thread_;
  std::thread metrics_thread_;

  mutable std::mutex snapshot_mutex_;
  std::string snapshot_prom_;
  std::string snapshot_json_;

  /// Post-stop merge of every flight ring, so diagnostics survive teardown.
  obs::Tracer flight_merged_{[] {
    obs::Tracer::Options o;
    o.capacity = 2;  // replaced by the real merge in stop()
    return o;
  }()};
  bool flight_final_ = false;  ///< flight_merged_ holds the post-stop merge

  /// Cached service_.config().spans: the workers' per-frame test.
  bool spans_ = true;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace hcmd::server
