// Nonblocking loopback UDP socket, RAII-wrapped.
//
// The live transport's unit of I/O: one socket per channel direction,
// always 127.0.0.1, always O_NONBLOCK. The wrapper normalizes the errno
// zoo of nonblocking UDP into a small result enum the channel state
// machine can switch on:
//
//   WouldBlock     EAGAIN/EWOULDBLOCK — kernel send buffer full; keep
//                  the datagram and wait for writability
//   Refused        ECONNREFUSED — a previous datagram drew an ICMP port
//                  unreachable (peer not bound yet, or gone). For a
//                  best-effort share channel this is loss, not an error
//   Error          anything else (EMSGSIZE, ENOBUFS, ...) — drop and count
//
// Tests can inject WouldBlock deterministically (inject_wouldblock):
// loopback drains so fast that a real EAGAIN is timing-dependent, but
// the backpressure path must be exercised on every CI run.
//
// UDP segmentation offload (Linux >= 4.18 GSO, >= 5.0 GRO) is plumbed
// here too: enable_gso()/enable_gro() probe and switch it on, and the
// two cmsg helpers below write a message's UDP_SEGMENT size and read a
// received buffer's UDP_GRO segment size. What to coalesce is the
// channel's business.
#pragma once

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace mcss::transport {

class UdpSocket {
 public:
  enum class IoResult {
    Ok,
    WouldBlock,
    Refused,
    Error,
  };

  /// Outcome of one sendmmsg/recvmmsg call. `completed` datagrams were
  /// moved; when completed < the batch size, `result` explains why the
  /// batch stopped short *if the kernel told us* — a short sendmmsg
  /// return reports Ok and leaves the failing datagram's errno for the
  /// next call, per sendmmsg(2), so callers requeue the tail and retry.
  struct BatchResult {
    IoResult result = IoResult::Ok;
    unsigned completed = 0;
    int error = 0;  ///< the call's errno when result != Ok
  };

  /// Control-buffer bytes one UDP_SEGMENT or UDP_GRO cmsg needs. Both
  /// carry at most an int; the buffer must be cmsghdr-aligned.
  static constexpr std::size_t kOffloadControlBytes = CMSG_SPACE(sizeof(int));

  /// Attach a UDP_SEGMENT cmsg to `msg`, written into `control`
  /// (kOffloadControlBytes, cmsghdr-aligned): the kernel cuts the
  /// message's payload into `segment_bytes`-sized datagrams, the last one
  /// possibly shorter.
  static void set_gso_segment(msghdr& msg, void* control,
                              std::uint16_t segment_bytes) noexcept;

  /// Segment size from a received message's UDP_GRO cmsg, or 0 when the
  /// kernel attached none (the buffer is one datagram).
  [[nodiscard]] static std::size_t gro_segment(const msghdr& msg) noexcept;

  /// An invalid (closed) socket; use the factories.
  UdpSocket() = default;

  /// Nonblocking UDP socket bound to 127.0.0.1:`port` (0 = kernel picks;
  /// read it back with local_port()). Throws std::system_error on failure.
  [[nodiscard]] static UdpSocket bound_loopback(std::uint16_t port);

  UdpSocket(UdpSocket&& other) noexcept { *this = std::move(other); }
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  ~UdpSocket();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t local_port() const;

  /// Fix the peer to 127.0.0.1:`port` so send() needs no address and the
  /// socket receives ICMP errors (ECONNREFUSED) for dead peers.
  void connect_loopback(std::uint16_t port);

  /// Send one datagram. On Ok the whole datagram was accepted (UDP never
  /// short-writes a datagram).
  [[nodiscard]] IoResult send(std::span<const std::uint8_t> datagram);

  /// Receive one datagram into `buf`; `*received` gets its length.
  /// WouldBlock when nothing is queued. A datagram longer than `buf` is
  /// truncated by the kernel (size your buffer for the max datagram).
  [[nodiscard]] IoResult recv(std::span<std::uint8_t> buf,
                              std::size_t* received);

  /// Send up to msgs.size() datagrams in one sendmmsg(2). The caller owns
  /// the mmsghdr/iovec arrays (persistent, reused across calls — this
  /// layer allocates nothing). Error mapping matches send(): a failure on
  /// the FIRST datagram surfaces as {WouldBlock|Refused|Error, 0}; a
  /// failure on a later slot makes the kernel stop and return the count
  /// sent so far — reported here as {Ok, n<size}, with the slot's errno
  /// surfacing at the head of the next call. msg_len is filled per sent
  /// datagram (UDP never short-writes, so it is informational).
  [[nodiscard]] BatchResult send_many(std::span<mmsghdr> msgs);

  /// Receive up to msgs.size() datagrams in one recvmmsg(2). Each
  /// mmsghdr's iovec must point at a receive slot; on return, slot i of
  /// the first `completed` has msg_len bytes (check msg_flags & MSG_TRUNC
  /// for oversized datagrams). {WouldBlock, 0} when nothing is queued;
  /// {Ok, n<size} means the queue drained mid-batch (no need to call
  /// again until the poller reports readable).
  [[nodiscard]] BatchResult recv_many(std::span<mmsghdr> msgs);

  /// Syscalls actually issued (send/sendmmsg and recv/recvmmsg that
  /// reached the kernel, including ones that returned EAGAIN; EINTR
  /// retries count each attempt). The batched fast path's whole point is
  /// driving syscalls_send()/packet toward 1/batch — the bench reads
  /// these.
  [[nodiscard]] std::uint64_t syscalls_send() const noexcept {
    return syscalls_send_;
  }
  [[nodiscard]] std::uint64_t syscalls_recv() const noexcept {
    return syscalls_recv_;
  }

  /// Probe UDP_SEGMENT (send-side GSO) on this socket: 0 when the
  /// kernel accepts per-message segment sizes, else the errno that
  /// refused it (ENOPROTOOPT on kernels without UDP GSO). Changes no
  /// socket state: the socket's default segment size stays 0 (off).
  [[nodiscard]] int enable_gso() noexcept;

  /// Switch UDP_GRO on or off: 0 on success, else the refusing errno.
  /// On, the kernel hands a GSO run up as ONE buffer (gro_segment() says
  /// where to cut it); off, it delivers the run's datagrams one by one.
  [[nodiscard]] int enable_gro(bool on) noexcept;

  /// Kernel buffer knobs (SO_SNDBUF / SO_RCVBUF), for the backpressure
  /// tests; the kernel doubles and clamps the value it actually applies.
  void set_send_buffer(int bytes);
  void set_recv_buffer(int bytes);

  /// Make the next `count` send()/send_many() calls report WouldBlock
  /// without touching the kernel (deterministic EAGAIN for tests). A
  /// batched call consumes ONE injection and completes zero datagrams —
  /// modelling EAGAIN on slot 0.
  void inject_wouldblock(int count) noexcept { inject_wouldblock_ = count; }

  /// Make the next send_many() fail on its first message with `err`
  /// ({Error, 0, err}) without touching the kernel — e.g. the EIO a
  /// device without checksum offload returns for a GSO message. One-shot;
  /// consumed after the wouldblock hook.
  void inject_send_error(int err) noexcept { inject_send_error_ = err; }

  /// Make the next send_many() really send only the first `k` datagrams
  /// and return short ({Ok, k}), as the kernel does when a mid-batch slot
  /// fails — a real short return needs a timing-dependent mid-batch
  /// EAGAIN, but the requeue-the-tail path must run on every CI run.
  /// One-shot; 0 disarms. Ignored by send().
  void inject_accept_limit(int k) noexcept {
    inject_accept_limit_ = k;
    inject_accept_armed_ = true;
  }

 private:
  int fd_ = -1;
  int inject_wouldblock_ = 0;
  int inject_send_error_ = 0;
  int inject_accept_limit_ = 0;
  bool inject_accept_armed_ = false;
  std::uint64_t syscalls_send_ = 0;
  std::uint64_t syscalls_recv_ = 0;
};

}  // namespace mcss::transport
