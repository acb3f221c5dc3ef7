// HttpServer: the HTTP/1.1 transport olapdcd serves on — its request
// plane (src/service) and the telemetry GET routes (TelemetryServer)
// share one port. Dependency-free (POSIX sockets + poll) and
// loopback-only, with what a resident daemon needs:
//
//   - method routing and POST bodies (Content-Length framed);
//   - concurrent connections via a fixed worker pool; when every
//     worker is busy and the hand-off queue is full, the connection is
//     rejected with 503 instead of queuing to death;
//   - hostile-peer bounds on every read: a total-bytes header cap
//     (431), a body cap (413), and a per-request deadline enforced by
//     poll slices (408) so a slow-loris or silent client cannot wedge
//     a serving thread;
//   - keep-alive with pipelining (bounded requests per connection);
//   - graceful drain: BeginDrain() stops accepting and closes each
//     keep-alive connection after its current request; WaitDrained()
//     blocks until the workers go idle.
//
// Layering: `src/obs` sits below `src/common`, so errors are reported
// as bool + last_error() rather than Status, and anything above the
// transport (admission, budgets, JSON) lives in the injected handler.
//
// Self-observation: olapdc.http.requests, olapdc.http.bad_requests,
// olapdc.http.timeouts, olapdc.http.busy_rejects.

#ifndef OLAPDC_OBS_HTTP_SERVER_H_
#define OLAPDC_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace olapdc {
namespace obs {

/// One parsed request as the handler sees it.
struct HttpRequest {
  std::string method;
  /// Path with the query string already split off ("/v1/check").
  std::string path;
  /// Query string without the '?' (empty when absent).
  std::string query;
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// What the framing implies (HTTP/1.1 default, Connection header
  /// honored); the server may still close earlier (drain, caps).
  bool keep_alive = false;

  /// Case-insensitive header lookup; null when absent.
  const std::string* FindHeader(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers (e.g. Retry-After); Content-Type/Length
  /// and Connection are emitted by the server.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Standard reason phrase for the handful of statuses we emit.
const char* HttpStatusText(int status);

/// Incremental HTTP/1.1 request parser, transport-free so the hostile
/// framing edges (truncation, pipelining, cap overflows) are unit
/// testable without sockets. Feed() consumes bytes as they arrive;
/// after a complete request is taken, leftover bytes of the next
/// pipelined request are retained.
class HttpRequestParser {
 public:
  struct Limits {
    /// Cap on the request line + headers, terminator included.
    size_t max_header_bytes = 16 * 1024;
    /// Cap on the declared Content-Length.
    size_t max_body_bytes = 1 << 20;
  };

  enum class State { kHeaders, kBody, kComplete, kError };

  HttpRequestParser() = default;
  explicit HttpRequestParser(const Limits& limits) : limits_(limits) {}

  /// Appends bytes and advances the state machine.
  State Feed(std::string_view bytes);

  State state() const { return state_; }

  /// Precondition: state() == kComplete. Returns the parsed request
  /// and resets to kHeaders for the next pipelined request; bytes
  /// already received past this request are re-fed automatically.
  HttpRequest TakeRequest();

  /// Precondition: state() == kError. The 4xx to answer with
  /// (400 malformed, 413 body too large, 431 headers too large) and a
  /// one-line reason.
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

  /// True when bytes were fed since construction / the last take (a
  /// timeout with nothing buffered is an idle keep-alive close, not a
  /// client error).
  bool mid_request() const {
    return !buffer_.empty() || state_ == State::kBody;
  }

 private:
  void Fail(int status, std::string message);
  void ParseHeaderSection(size_t terminator, size_t body_start);
  void MaybeFinishBody();

  Limits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;
  HttpRequest request_;
  size_t content_length_ = 0;
  int error_status_ = 0;
  std::string error_;
};

class HttpServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
    int port = 0;
    /// Worker pool size == concurrently served connections.
    int max_connections = 4;
    /// Accepted-but-unclaimed connections beyond this are answered
    /// 503 and closed (counted olapdc.http.busy_rejects).
    int max_pending = 16;
    size_t max_header_bytes = 16 * 1024;
    size_t max_body_bytes = 1 << 20;
    /// Total wall-clock allowance to receive one full request /
    /// write one full response; enforced in poll slices so Stop()
    /// stays prompt.
    int read_timeout_ms = 5000;
    int write_timeout_ms = 5000;
    /// Keep-alive bound: the connection is closed after this many
    /// requests even if the client asks to keep it open.
    int max_requests_per_connection = 100;
    /// Request handler, called from worker threads (must be
    /// thread-safe). Null answers 404 everywhere.
    std::function<HttpResponse(const HttpRequest&)> handler;
  };

  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept + worker threads. Returns
  /// false with last_error() set when socket setup fails.
  bool Start(const Options& options);

  /// Stops accepting, abandons queued connections, joins all threads.
  /// Idempotent.
  void Stop();

  /// Graceful-drain entry: close the listening socket (new connects
  /// are refused) and finish at most the current request on each live
  /// connection. Does not block.
  void BeginDrain();

  /// Blocks until every worker is idle and the queue is empty, or the
  /// timeout elapses. Returns true when drained.
  bool WaitDrained(int timeout_ms);

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The bound port (the actual one when Options::port was 0), or 0
  /// when not running.
  int port() const { return port_; }

  const std::string& last_error() const { return last_error_; }

  /// Requests currently being served (for health probes).
  int busy_connections() const {
    return busy_.load(std::memory_order_acquire);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  bool SendAll(int fd, std::string_view bytes);
  void SendSimple(int fd, int status, const std::string& body,
                  const std::vector<std::pair<std::string, std::string>>*
                      extra_headers = nullptr);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string last_error_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> busy_{0};

  std::mutex mutex_;
  std::condition_variable queue_cv_;    // workers wait for fds
  std::condition_variable drained_cv_;  // WaitDrained waits for idle
  std::deque<int> pending_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace obs
}  // namespace olapdc

#endif  // OLAPDC_OBS_HTTP_SERVER_H_
