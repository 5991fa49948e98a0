#include "flight/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injector.h"

namespace fusion {
namespace flight {

namespace {

void PutLE(std::vector<uint8_t>* out, const void* v, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(v);
  out->insert(out->end(), p, p + n);
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

void BodyWriter::PutU32(uint32_t v) { PutLE(&body_, &v, 4); }
void BodyWriter::PutU64(uint64_t v) { PutLE(&body_, &v, 8); }
void BodyWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutLE(&body_, s.data(), s.size());
}
void BodyWriter::PutBytes(const uint8_t* data, size_t len) {
  PutLE(&body_, data, len);
}

Status BodyReader::Read(void* out, size_t len) {
  if (len > remaining()) return Status::IOError("flight: truncated frame body");
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

Result<uint32_t> BodyReader::U32() {
  uint32_t v = 0;
  FUSION_RETURN_NOT_OK(Read(&v, 4));
  return v;
}

Result<uint64_t> BodyReader::U64() {
  uint64_t v = 0;
  FUSION_RETURN_NOT_OK(Read(&v, 8));
  return v;
}

Result<std::string> BodyReader::String() {
  FUSION_ASSIGN_OR_RAISE(uint32_t len, U32());
  if (len > remaining()) return Status::IOError("flight: truncated string");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Status BodyReader::Done() const {
  if (remaining() != 0) {
    return Status::IOError("flight: " + std::to_string(remaining()) +
                           " trailing bytes in frame body");
  }
  return Status::OK();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    fault_site_prefix_ = std::move(other.fault_site_prefix_);
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::WriteFully(iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process
    // signal — connection drops are a Status, never a crash.
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("flight: send failed");
    }
    // Skip the iovecs written in full, trim the one cut short.
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (left > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

Status Socket::ReadFully(uint8_t* data, size_t len, bool* clean_eof) {
  bool first = true;
  while (len > 0) {
    ssize_t n = ::recv(fd_, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("flight: recv failed");
    }
    if (n == 0) {
      if (first && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::IOError("flight: connection closed mid-frame");
    }
    first = false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::SendFrame(FrameType type, uint8_t flags, const uint8_t* body,
                         size_t body_len) {
  if (!valid()) return Status::IOError("flight: send on closed socket");
  if (!fault_site_prefix_.empty()) {
    FUSION_RETURN_NOT_OK(
        FaultInjector::Maybe((fault_site_prefix_ + ".write").c_str()));
  }
  uint8_t header[kFrameHeaderBytes];
  uint32_t magic = kFrameMagic;
  uint16_t version = kProtocolVersion;
  uint64_t len64 = body_len;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &version, 2);
  header[6] = static_cast<uint8_t>(type);
  header[7] = flags;
  std::memcpy(header + 8, &len64, 8);
  iovec iov[2] = {{header, kFrameHeaderBytes},
                  {const_cast<uint8_t*>(body), body_len}};
  return WriteFully(iov, body_len > 0 ? 2 : 1);
}

Result<Frame> Socket::ReadFrame(int64_t max_body_bytes) {
  if (!valid()) return Status::IOError("flight: read on closed socket");
  if (!fault_site_prefix_.empty()) {
    FUSION_RETURN_NOT_OK(
        FaultInjector::Maybe((fault_site_prefix_ + ".read").c_str()));
  }
  uint8_t header[kFrameHeaderBytes];
  bool clean_eof = false;
  FUSION_RETURN_NOT_OK(ReadFully(header, kFrameHeaderBytes, &clean_eof));
  if (clean_eof) {
    // Orderly hangup between frames; callers check IsHangup().
    return Status::Cancelled("flight: peer closed connection");
  }
  uint32_t magic;
  uint16_t version;
  uint64_t body_len;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 2);
  std::memcpy(&body_len, header + 8, 8);
  if (magic != kFrameMagic) return Status::IOError("flight: bad frame magic");
  if (version != kProtocolVersion) {
    return Status::IOError("flight: unsupported protocol version " +
                           std::to_string(version));
  }
  // The length prefix is attacker-controlled: cap it before the body
  // buffer is sized, so a hostile peer cannot force an OOM.
  if (body_len > static_cast<uint64_t>(max_body_bytes)) {
    return Status::IOError("flight: frame body of " + std::to_string(body_len) +
                           " bytes exceeds limit " +
                           std::to_string(max_body_bytes));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[6]);
  frame.flags = header[7];
  frame.body.resize(static_cast<size_t>(body_len));
  if (body_len > 0) {
    FUSION_RETURN_NOT_OK(ReadFully(frame.body.data(), frame.body.size(), nullptr));
  }
  return frame;
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool IsHangup(const Status& status) {
  return status.code() == StatusCode::kCancelled &&
         status.message().find("peer closed connection") != std::string::npos;
}

std::vector<uint8_t> EncodeError(const Status& status) {
  BodyWriter w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message());
  return w.Finish();
}

Status DecodeError(const std::vector<uint8_t>& body) {
  BodyReader r(body);
  auto code = r.U32();
  auto msg = r.String();
  if (!code.ok() || !msg.ok()) {
    return Status::IOError("flight: malformed error frame");
  }
  auto status_code = static_cast<StatusCode>(*code);
  if (status_code == StatusCode::kOk ||
      *code > static_cast<uint32_t>(StatusCode::kResourcesExhausted)) {
    // Never let a hostile peer smuggle an OK through an error frame.
    status_code = StatusCode::kIoError;
  }
  return Status(status_code, "flight server: " + *msg);
}

void ConfigureStreamSocket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<Socket> ListenTcp(const std::string& address, int port, int* out_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("flight: socket failed");
  Socket sock(fd, "flight");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("flight: bad IPv4 bind address " + address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("flight: bind to " + address + ":" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) return Errno("flight: listen failed");
  if (out_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return Errno("flight: getsockname failed");
    }
    *out_port = ntohs(addr.sin_port);
  }
  return sock;
}

Result<Socket> ConnectTcp(const std::string& address, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("flight: socket failed");
  // Clients carry no fault-site prefix: scripted server-side faults
  // (flight.read / flight.write) must not also fire in the client.
  Socket sock(fd, "");
  ConfigureStreamSocket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string numeric = address == "localhost" ? "127.0.0.1" : address;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("flight: bad IPv4 address " + address);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("flight: connect to " + numeric + ":" + std::to_string(port));
  }
  return sock;
}

}  // namespace flight
}  // namespace fusion
