#include "transport/udp_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpSocket UdpSocket::bound_loopback(std::uint16_t port) {
  UdpSocket s;
#ifdef SOCK_NONBLOCK
  s.fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s.fd_ < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
#else
  s.fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (s.fd_ < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
  const int flags = ::fcntl(s.fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(s.fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
#endif
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(s.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind(127.0.0.1)");
  }
  return s;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    inject_wouldblock_ = other.inject_wouldblock_;
    inject_send_error_ = other.inject_send_error_;
    inject_accept_limit_ = other.inject_accept_limit_;
    inject_accept_armed_ = other.inject_accept_armed_;
    syscalls_send_ = other.syscalls_send_;
    syscalls_recv_ = other.syscalls_recv_;
    other.fd_ = -1;
    other.inject_wouldblock_ = 0;
    other.inject_send_error_ = 0;
    other.inject_accept_limit_ = 0;
    other.inject_accept_armed_ = false;
    other.syscalls_send_ = 0;
    other.syscalls_recv_ = 0;
  }
  return *this;
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint16_t UdpSocket::local_port() const {
  MCSS_ENSURE(valid(), "local_port() on a closed socket");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

void UdpSocket::connect_loopback(std::uint16_t port) {
  MCSS_ENSURE(valid(), "connect_loopback() on a closed socket");
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("connect(127.0.0.1)");
  }
}

UdpSocket::IoResult UdpSocket::send(std::span<const std::uint8_t> datagram) {
  MCSS_ENSURE(valid(), "send() on a closed socket");
  if (inject_wouldblock_ > 0) {
    --inject_wouldblock_;
    return IoResult::WouldBlock;
  }
  for (;;) {
    ++syscalls_send_;
    const ssize_t n = ::send(fd_, datagram.data(), datagram.size(), 0);
    if (n >= 0) return IoResult::Ok;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::WouldBlock;
    if (errno == ECONNREFUSED) return IoResult::Refused;
    return IoResult::Error;
  }
}

UdpSocket::BatchResult UdpSocket::send_many(std::span<mmsghdr> msgs) {
  MCSS_ENSURE(valid(), "send_many() on a closed socket");
  if (msgs.empty()) return {IoResult::Ok, 0};
  // The accept-limit hook consumes BEFORE the wouldblock hook: arming
  // both models a mid-batch EAGAIN exactly as the kernel sequences it —
  // this call returns short after really sending the head, the NEXT call
  // reports the error.
  std::span<mmsghdr> window = msgs;
  if (inject_accept_armed_) {
    inject_accept_armed_ = false;
    const auto k = static_cast<std::size_t>(
        inject_accept_limit_ < 0 ? 0 : inject_accept_limit_);
    if (k < msgs.size()) {
      // Really send the first k, then report short — the same observable
      // the kernel produces when slot k fails mid-batch.
      if (k == 0) return {IoResult::Ok, 0};
      window = msgs.first(k);
    }
  } else if (inject_wouldblock_ > 0) {
    --inject_wouldblock_;
    return {IoResult::WouldBlock, 0, EAGAIN};
  } else if (inject_send_error_ != 0) {
    const int err = std::exchange(inject_send_error_, 0);
    return {IoResult::Error, 0, err};
  }
  for (;;) {
    ++syscalls_send_;
    const int n = ::sendmmsg(fd_, window.data(),
                             static_cast<unsigned>(window.size()), 0);
    if (n >= 0) return {IoResult::Ok, static_cast<unsigned>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::WouldBlock, 0, errno};
    }
    if (errno == ECONNREFUSED) return {IoResult::Refused, 0, errno};
    return {IoResult::Error, 0, errno};
  }
}

UdpSocket::BatchResult UdpSocket::recv_many(std::span<mmsghdr> msgs) {
  MCSS_ENSURE(valid(), "recv_many() on a closed socket");
  if (msgs.empty()) return {IoResult::Ok, 0};
  for (;;) {
    ++syscalls_recv_;
    const int n = ::recvmmsg(fd_, msgs.data(),
                             static_cast<unsigned>(msgs.size()), 0, nullptr);
    if (n >= 0) return {IoResult::Ok, static_cast<unsigned>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::WouldBlock, 0, errno};
    }
    if (errno == ECONNREFUSED) return {IoResult::Refused, 0, errno};
    return {IoResult::Error, 0, errno};
  }
}

UdpSocket::IoResult UdpSocket::recv(std::span<std::uint8_t> buf,
                                    std::size_t* received) {
  MCSS_ENSURE(valid(), "recv() on a closed socket");
  MCSS_ENSURE(received != nullptr, "recv() needs a length out-param");
  *received = 0;
  for (;;) {
    ++syscalls_recv_;
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n >= 0) {
      *received = static_cast<std::size_t>(n);
      return IoResult::Ok;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::WouldBlock;
    // ECONNREFUSED surfaces on connected UDP receive too (pending ICMP
    // error); report it so callers can count and move on.
    if (errno == ECONNREFUSED) return IoResult::Refused;
    return IoResult::Error;
  }
}

void UdpSocket::set_gso_segment(msghdr& msg, void* control,
                                std::uint16_t segment_bytes) noexcept {
  msg.msg_control = control;
  msg.msg_controllen = CMSG_SPACE(sizeof(segment_bytes));
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(segment_bytes));  // the kernel insists
  std::memcpy(CMSG_DATA(cm), &segment_bytes, sizeof(segment_bytes));
}

std::size_t UdpSocket::gro_segment(const msghdr& msg) noexcept {
  for (const cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(const_cast<msghdr*>(&msg),
                        const_cast<cmsghdr*>(cm))) {
    if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO &&
        cm->cmsg_len >= CMSG_LEN(sizeof(int))) {
      int segment = 0;
      std::memcpy(&segment, CMSG_DATA(cm), sizeof(segment));
      return segment > 0 ? static_cast<std::size_t>(segment) : 0;
    }
  }
  return 0;
}

int UdpSocket::enable_gso() noexcept {
  if (!valid()) return EBADF;
  // Segment size 0 is the socket default (no GSO unless a message asks):
  // the call only asks whether the kernel knows UDP_SEGMENT at all.
  const int off = 0;
  return ::setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &off, sizeof(off)) == 0
             ? 0
             : errno;
}

int UdpSocket::enable_gro(bool on) noexcept {
  if (!valid()) return EBADF;
  const int value = on ? 1 : 0;
  return ::setsockopt(fd_, SOL_UDP, UDP_GRO, &value, sizeof(value)) == 0
             ? 0
             : errno;
}

void UdpSocket::set_send_buffer(int bytes) {
  MCSS_ENSURE(valid(), "setsockopt on a closed socket");
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) < 0) {
    throw_errno("setsockopt(SO_SNDBUF)");
  }
}

void UdpSocket::set_recv_buffer(int bytes) {
  MCSS_ENSURE(valid(), "setsockopt on a closed socket");
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) < 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
}

}  // namespace mcss::transport
