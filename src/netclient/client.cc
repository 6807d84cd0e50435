#include "netclient/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

namespace cqms::netclient {

namespace {

Status ErrnoStatus(const std::string& what) {
  // SO_RCVTIMEO/SO_SNDTIMEO expiry surfaces as EAGAIN/EWOULDBLOCK on a
  // blocking socket; report it as the typed deadline error.
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    return Status::DeadlineExceeded(what + " timed out");
  }
  return Status::IoError(what + ": " + std::string(strerror(errno)));
}

Status WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoStatus("send");
  }
  return Status::Ok();
}

/// connect(2) with a deadline: non-blocking connect, poll for
/// writability, then read SO_ERROR for the real outcome. Restores the
/// blocking flag on success.
Status ConnectWithTimeout(int fd, const sockaddr_in& addr, int64_t timeout_ms,
                          const std::string& label) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl " + label);
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return ErrnoStatus("connect " + label);
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    int ready;
    do {
      ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return ErrnoStatus("poll " + label);
    if (ready == 0) {
      return Status::DeadlineExceeded("connect " + label + " timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return ErrnoStatus("getsockopt " + label);
    }
    if (err != 0) {
      errno = err;
      return ErrnoStatus("connect " + label);
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) return ErrnoStatus("fcntl " + label);
  return Status::Ok();
}

void SetIoTimeout(int fd, int64_t timeout_ms) {
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

CqmsClient::CqmsClient(int fd, ClientOptions options)
    : fd_(fd),
      options_(std::move(options)),
      decoder_(options_.max_frame_bytes) {}

CqmsClient::~CqmsClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<CqmsClient>> CqmsClient::Connect(const std::string& host,
                                                        uint16_t port,
                                                        ClientOptions options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparsable address: " + host);
  }
  const std::string label = host + ":" + std::to_string(port);
  if (options.connect_timeout_ms > 0) {
    Status s = ConnectWithTimeout(fd, addr, options.connect_timeout_ms, label);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    Status s = ErrnoStatus("connect " + label);
    ::close(fd);
    return s;
  }
  if (options.timeout_ms > 0) SetIoTimeout(fd, options.timeout_ms);

  std::unique_ptr<CqmsClient> client(new CqmsClient(fd, std::move(options)));
  Result<net::HelloResponse> hello = client->Call<net::Op::kHello>(
      {net::kProtocolVersion, client->options_.client_name});
  if (!hello.ok()) return hello.status();
  client->hello_ = std::move(hello).value();
  return client;
}

Status CqmsClient::Flush() {
  if (!broken_.ok()) return broken_;
  if (sendbuf_.empty()) return Status::Ok();
  Status s = WriteAll(fd_, sendbuf_.data(), sendbuf_.size());
  sendbuf_.clear();
  if (!s.ok()) broken_ = s;
  return s;
}

Status CqmsClient::ReadMore() {
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
      return Status::Ok();
    }
    if (n == 0) {
      return Status::Unavailable("server closed the connection");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("recv");
  }
}

Result<std::string> CqmsClient::WaitPayload(uint64_t request_id) {
  if (!broken_.ok()) return broken_;
  while (true) {
    auto it = parked_.find(request_id);
    if (it != parked_.end()) {
      std::string payload = std::move(it->second);
      parked_.erase(it);
      return payload;
    }
    std::string payload;
    FrameDecoder::Next next = decoder_.Poll(&payload);
    if (next == FrameDecoder::Next::kError) {
      broken_ = decoder_.error();
      return broken_;
    }
    if (next == FrameDecoder::Next::kNeedMore) {
      Status s = ReadMore();
      if (!s.ok()) {
        broken_ = s;
        return s;
      }
      continue;
    }
    net::ResponseEnvelope env;
    if (!net::DecodeResponseEnvelope(payload, &env)) {
      broken_ = Status::Corruption("malformed response envelope");
      return broken_;
    }
    if (env.request_id == request_id) return payload;
    parked_.emplace(env.request_id, std::move(payload));
  }
}

Status CqmsClient::WaitBody(uint64_t request_id, net::Op op,
                            std::string* payload, std::string_view* body) {
  Result<std::string> got = WaitPayload(request_id);
  if (!got.ok()) return got.status();
  *payload = std::move(got).value();
  net::ResponseEnvelope env;
  if (!net::DecodeResponseEnvelope(*payload, &env)) {
    return Status::Corruption("malformed response envelope");
  }
  if (env.op != op) {
    return Status::Corruption("response op mismatch: expected " +
                              std::string(net::OpName(op)) + ", got " +
                              net::OpName(env.op));
  }
  *body = env.body;
  return env.ToStatus();
}

// --- raw escape hatches ----------------------------------------------------

Status CqmsClient::SendRawPayload(const std::string& payload) {
  AppendFrame(&sendbuf_, payload);
  return Flush();
}

Result<std::string> CqmsClient::ReadRawPayload() {
  if (!broken_.ok()) return broken_;
  while (true) {
    std::string payload;
    FrameDecoder::Next next = decoder_.Poll(&payload);
    if (next == FrameDecoder::Next::kError) {
      broken_ = decoder_.error();
      return broken_;
    }
    if (next == FrameDecoder::Next::kFrame) return payload;
    Status s = ReadMore();
    if (!s.ok()) {
      broken_ = s;
      return s;
    }
  }
}

void CqmsClient::Abort() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace cqms::netclient
