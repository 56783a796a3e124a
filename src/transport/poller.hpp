// Readiness multiplexer: epoll on Linux, poll(2) everywhere.
//
// The paper's ReMICSS "chooses the first m channels which are ready for
// writing" straight from epoll (Section V); this is that readiness
// source. One Poller watches every channel socket of an endpoint;
// wait() parks the pump loop until a socket turns readable/writable or
// the impairment timer wheel needs service.
//
// All backends are level-triggered (io_uring's multishot poll is made
// level-equivalent by re-arming; see uring_poller.hpp), and all three
// compile on Linux: epoll is the default, poll is the portability
// fallback, io_uring is the batched-submission path. MCSS_LIVE_POLLER
// forces one at runtime (epoll|poll|uring — which is how CI keeps every
// backend honest without a non-Linux runner). Asking for uring on a
// kernel that refuses (seccomp ENOSYS, EPERM) falls back to epoll with
// one logged reason; backend() reports what is actually running. Write
// interest is toggled per-fd only while a channel actually has
// unflushed bytes — a level-triggered EPOLLOUT on an idle UDP socket is
// always ready and would spin the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mcss::transport {

class Poller {
 public:
  enum class Backend { Epoll, Poll, Uring };

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< EPOLLERR/POLLERR (e.g. pending ICMP error)
  };

  /// Backend::Epoll on Linux unless MCSS_LIVE_POLLER forces poll or
  /// uring; Backend::Poll elsewhere. An env value of "uring" is returned
  /// as requested even when the kernel may refuse — the constructor does
  /// the probe-and-fallback so the refusal reason gets logged exactly
  /// once where it happens.
  [[nodiscard]] static Backend default_backend();

  explicit Poller(Backend backend = default_backend());
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// The backend actually in use (after any uring→epoll fallback).
  [[nodiscard]] Backend backend() const noexcept { return backend_; }

  /// Register `fd` with the given interest set. An fd is added once;
  /// change interest with modify().
  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = indefinitely, 0 = poll-and-return)
  /// for readiness. Appends one Event per ready fd to `out` (which is
  /// cleared first) and returns the event count. EINTR retries.
  std::size_t wait(int timeout_ms, std::vector<Event>& out);

  /// Number of wait() calls that reached the kernel — the poller's
  /// contribution to syscalls_per_packet in the live bench.
  [[nodiscard]] std::uint64_t wait_calls() const noexcept {
    return wait_calls_;
  }

  /// Hand a contiguous buffer arena (the FramePool) to the backend.
  /// Only the uring backend does anything with it
  /// (IORING_REGISTER_BUFFERS, pre-pinning the pages the RX slots live
  /// in); epoll/poll ignore it. Returns whether a registration took.
  bool register_buffers(std::span<const std::uint8_t> arena) noexcept;

 private:
  struct Impl;
  Backend backend_;
  std::uint64_t wait_calls_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcss::transport
