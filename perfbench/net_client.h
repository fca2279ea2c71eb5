// The benchmark's own loopback client: non-blocking TCP connections with
// byte-counted send and receive buffers, driven by one epoll loop on the
// client thread. It shares no code with the program's load generator.

#ifndef PERFBENCH_NET_CLIENT_H_
#define PERFBENCH_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Conn {
 public:
  /// Connects to 127.0.0.1:port (blocking connect, then non-blocking I/O,
  /// TCP_NODELAY). Null with `error` set on failure.
  static std::unique_ptr<Conn> Connect(uint16_t port, std::string* error);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  /// Queues bytes; the next Flush() writes them.
  void Queue(std::string_view bytes) { out_.append(bytes); }
  /// Writes queued bytes as far as the socket takes them; false on a
  /// socket error.
  bool Flush();
  bool has_pending_output() const { return out_off_ < out_.size(); }
  /// Reads whatever is available into in(); false on EOF or error.
  bool ReadAvailable();
  /// Received bytes not yet consumed by the caller.
  std::string& in() { return in_; }

  int64_t bytes_sent() const { return bytes_sent_; }
  int64_t bytes_received() const { return bytes_received_; }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
  int64_t bytes_sent_ = 0;
  int64_t bytes_received_ = 0;
};

/// epoll over a fixed set of connections (read interest only; writes are
/// retried by the caller's loop while output is pending).
class Poller {
 public:
  explicit Poller(const std::vector<std::unique_ptr<Conn>>& conns);
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;
  /// Waits up to `timeout_ms` (0 = poll) and returns the indices of
  /// readable connections.
  const std::vector<int>& Wait(int timeout_ms);

 private:
  int epfd_ = -1;
  std::vector<int> ready_;
};

/// Parses one complete HTTP/1.1 response (Content-Length framing) off the
/// front of `buffer`. Returns false when more bytes are needed; on success
/// consumes it and sets `status` and `body`. A malformed head sets status 0.
bool TakeHttpResponse(std::string* buffer, int* status, std::string* body);

}  // namespace perfbench

#endif  // PERFBENCH_NET_CLIENT_H_
