#include "net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace perfbench {

std::unique_ptr<Conn> Conn::Connect(uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

bool Conn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                           MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      bytes_sent_ += n;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return true;
}

bool Conn::ReadAvailable() {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      bytes_received_ += n;
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

Poller::Poller(const std::vector<std::unique_ptr<Conn>>& conns)
    : epfd_(epoll_create1(0)) {
  for (size_t i = 0; i < conns.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    epoll_ctl(epfd_, EPOLL_CTL_ADD, conns[i]->fd(), &ev);
  }
}

Poller::~Poller() {
  if (epfd_ >= 0) close(epfd_);
}

const std::vector<int>& Poller::Wait(int timeout_ms) {
  epoll_event events[16];
  ready_.clear();
  const int n = epoll_wait(epfd_, events, 16, timeout_ms);
  for (int i = 0; i < n; ++i) ready_.push_back(static_cast<int>(events[i].data.u32));
  return ready_;
}

bool TakeHttpResponse(std::string* buffer, int* status, std::string* body) {
  const size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  *status = 0;
  if (buffer->compare(0, 9, "HTTP/1.1 ") == 0 && head_end >= 12) {
    *status = std::atoi(buffer->c_str() + 9);
  }
  size_t length = 0;
  // Header names are case-insensitive; scan the head for Content-Length.
  for (size_t line = buffer->find("\r\n"); line < head_end;
       line = buffer->find("\r\n", line + 2)) {
    static const char kName[] = "content-length:";
    const size_t name_len = sizeof(kName) - 1;
    bool match = line + 2 + name_len <= head_end;
    for (size_t i = 0; match && i < name_len; ++i) {
      match = std::tolower(static_cast<unsigned char>((*buffer)[line + 2 + i])) == kName[i];
    }
    if (match) {
      length = static_cast<size_t>(std::strtoull(buffer->c_str() + line + 2 + name_len, nullptr, 10));
    }
  }
  if (buffer->size() < head_end + 4 + length) return false;
  body->assign(*buffer, head_end + 4, length);
  buffer->erase(0, head_end + 4 + length);
  return true;
}

}  // namespace perfbench
