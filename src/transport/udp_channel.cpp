#include "transport/udp_channel.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "net/sim_time.hpp"
#include "obs/metrics.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

// These ids sit on per-frame / per-syscall paths, so they are resolved
// once and cached (function-local static, the hot-path convention): a
// registry lookup per datagram burst costs a mutex and two allocations
// at rates where that is measurable. Callers gate on metrics_enabled();
// after a Registry::reset() the cached ids are inert no-ops by design.

/// Wall-clock time a released frame waited in the pending ring before
/// the kernel took it.
obs::HistogramId tx_queue_wait_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_tx_queue_wait_seconds", obs::exp_bounds(1e-7, 4.0, 20));
  return id;
}

/// Datagrams moved per sendmmsg/recvmmsg that moved any — the batching
/// efficiency distribution (1 = the syscall carried a single datagram).
obs::HistogramId send_batch_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_send_batch_datagrams", obs::exp_bounds(1.0, 2.0, 8));
  return id;
}

obs::HistogramId recv_batch_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_recv_batch_datagrams", obs::exp_bounds(1.0, 2.0, 8));
  return id;
}

}  // namespace

void publish(obs::Registry& registry, const UdpChannelStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_live_datagrams_sent", stats.datagrams_sent);
  add("mcss_live_datagrams_received", stats.datagrams_received);
  add("mcss_live_bytes_sent", stats.bytes_sent);
  add("mcss_live_bytes_received", stats.bytes_received);
  add("mcss_live_frames_coalesced", stats.frames_coalesced);
  add("mcss_live_send_wouldblock", stats.send_wouldblock);
  add("mcss_live_send_retries", stats.send_retries);
  add("mcss_live_send_refused", stats.send_refused);
  add("mcss_live_send_errors", stats.send_errors);
  add("mcss_live_sendmmsg_short", stats.sendmmsg_short);
  add("mcss_live_recv_refused", stats.recv_refused);
  add("mcss_live_recv_errors", stats.recv_errors);
  add("mcss_live_recv_truncated", stats.recv_truncated);
  add("mcss_live_frames_forwarded", stats.frames_forwarded);
  add("mcss_live_unparsed_forwarded", stats.unparsed_forwarded);
  add("mcss_live_frames_dropped_pool", stats.frames_dropped_pool);
  add("mcss_channel_gso_messages", stats.gso_messages);
  add("mcss_channel_gso_segments", stats.gso_segments);
  add("mcss_channel_gro_buffers", stats.gro_buffers);
  add("mcss_channel_offload_refusals", stats.offload_refusals);
}

UdpChannel::UdpChannel(net::ChannelConfig config, Rng rng, TimerWheel& wheel,
                       FramePool& pool, std::uint16_t rx_port,
                       std::string name, std::size_t max_datagram_bytes,
                       std::size_t send_batch, std::size_t recv_batch)
    : name_(std::move(name)),
      max_datagram_bytes_(max_datagram_bytes),
      send_batch_(send_batch),
      recv_batch_(recv_batch),
      rx_(UdpSocket::bound_loopback(rx_port)),
      tx_(UdpSocket::bound_loopback(0)),
      wheel_(wheel),
      pool_(pool),
      impair_(config, rng, wheel,
              [this](FrameRef frame, std::int64_t release_ns) {
                release(std::move(frame), release_ns);
              }),
      // Seed the retry pacer from (not with) the impairment stream so the
      // two stay independent. Waits are short: kernel buffers drain fast.
      retry_backoff_({.base_ns = 500'000, .cap_ns = 20'000'000,
                      .multiplier = 2.0},
                     Rng(rng())) {
  MCSS_ENSURE(max_datagram_bytes_ >= proto::kHeaderSize + proto::kTagSize,
              "max datagram too small for one frame");
  MCSS_ENSURE(send_batch_ >= 1, "send batch must be at least 1");
  MCSS_ENSURE(recv_batch_ >= 1, "recv batch must be at least 1");
  tx_.connect_loopback(rx_.local_port());

  // Deep kernel buffers for the batched path: one pump can flush every
  // free pool slot in a single sendmmsg burst, and the RX side has to
  // hold that burst until the next recvmmsg wakeup. Sized to the arena
  // (the true in-flight bound), best effort — the kernel silently clamps
  // to net.core.{w,r}mem_max, and a clamped buffer only means earlier
  // EAGAIN on TX or kernel drops on RX, both of which the transport
  // already treats as backpressure and loss.
  const auto want = static_cast<int>(std::clamp<std::size_t>(
      pool_.capacity() * pool_.slot_bytes(), 256u << 10, 4u << 20));
  tx_.set_send_buffer(want);
  rx_.set_recv_buffer(want);

  // Every allocation the steady state needs happens HERE, once. The ring
  // bound is every pool slot in flight at once, duplicated (the
  // impairment's duplicate knob shares slots between two pending
  // entries), plus slack.
  ring_.resize(2 * pool_.capacity() + 4);
  last_flush_release_ns_.reserve(ring_.size());
  tx_msgs_.resize(send_batch_);
  tx_takes_.resize(send_batch_);
  tx_segments_.resize(send_batch_);
  tx_iovs_.resize(ring_.size());
  rx_frames_.reserve(std::max<std::size_t>(64, 2 * recv_batch_));
  if (send_batch_ > 1) {
    const int err = tx_.enable_gso();
    if (err == 0) {
      offload_.gso = true;
      tx_control_.resize(send_batch_);
    } else {
      note_refusal(err);
    }
  }
  if (recv_batch_ > 1) {
    // One owned buffer, carved per mode: a GRO buffer must hold a whole
    // run (64 KB), the fallback recv_batch datagram slots. Either fits
    // in max(64 KB, recv_batch slots), so the mode never changes memory.
    rx_buf_bytes_ = std::max(kMinRxBufferBytes,
                             recv_batch_ * pool_.slot_bytes());
    rx_buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(rx_buf_bytes_);
    rx_msgs_.resize(recv_batch_);
    rx_iovs_.resize(recv_batch_);
    const int err = rx_.enable_gro(true);
    if (err == 0) {
      offload_.gro = true;
    } else {
      note_refusal(err);
    }
    carve_rx_buffer();
  }
}

UdpChannel::~UdpChannel() = default;

void UdpChannel::note_refusal(int err) noexcept {
  ++stats_.offload_refusals;
  offload_.refusal_errno = err;
}

void UdpChannel::carve_rx_buffer() noexcept {
  rx_msg_count_ = offload_.gro ? 1 : recv_batch_;
  const std::size_t each = rx_buf_bytes_ / rx_msg_count_;
  for (std::size_t i = 0; i < rx_msg_count_; ++i) {
    rx_iovs_[i].iov_base = rx_buf_.get() + i * each;
    rx_iovs_[i].iov_len = each;
    std::memset(&rx_msgs_[i].msg_hdr, 0, sizeof(rx_msgs_[i].msg_hdr));
    rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
    rx_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
  if (offload_.gro) rx_msgs_[0].msg_hdr.msg_control = rx_control_.bytes;
}

void UdpChannel::force_offload_fallback() {
  offload_.gso = false;
  if (offload_.gro) {
    (void)rx_.enable_gro(false);
    offload_.gro = false;
    carve_rx_buffer();
  }
}

void UdpChannel::set_on_frame(FrameFn fn) {
  if (!fn) {
    on_batch_ = nullptr;
    return;
  }
  on_batch_ = [fn = std::move(fn)](
                  std::span<const std::span<const std::uint8_t>> frames) {
    for (const auto frame : frames) fn(frame);
  };
}

bool UdpChannel::try_send(FrameRef frame, std::int64_t now_ns) {
  last_now_ns_ = now_ns;
  return impair_.offer(std::move(frame), now_ns);
}

bool UdpChannel::try_send(std::span<const std::uint8_t> frame,
                          std::int64_t now_ns) {
  FrameRef staged = pool_.acquire_copy(frame);
  if (!staged) {
    ++stats_.frames_dropped_pool;
    return false;
  }
  return try_send(std::move(staged), now_ns);
}

bool UdpChannel::ready(std::int64_t now_ns) const noexcept {
  (void)now_ns;
  // Bytes parked behind a full kernel buffer count against the watermark
  // exactly as queued-at-the-serializer bytes do: both are backlog the
  // scheduler should steer new shares away from.
  return impair_.queued_bytes() + pending_out_bytes_ <
         (impair_.config().ready_watermark_bytes != 0
              ? impair_.config().ready_watermark_bytes
              : std::max<std::size_t>(1,
                                      impair_.config().queue_capacity_bytes / 2));
}

std::int64_t UdpChannel::backlog_ns(std::int64_t now_ns) const noexcept {
  std::int64_t t = impair_.backlog_ns(now_ns);
  if (pending_out_bytes_ > 0) {
    // Parked bytes have already been paced; charge them at line rate as a
    // proxy for the kernel buffer draining.
    t += net::from_seconds(static_cast<double>(pending_out_bytes_) * 8.0 /
                           impair_.config().rate_bps);
  }
  return t;
}

void UdpChannel::release(FrameRef frame, std::int64_t release_ns) {
  if (ring_count_ == ring_.size()) {
    // Pathological park (kernel jammed for ages): degrade is tail drop
    // with a stat, never an allocation.
    ++stats_.frames_dropped_pool;
    return;
  }
  pending_out_bytes_ += frame.size();
  Pending& slot = ring_[(ring_head_ + ring_count_) % ring_.size()];
  slot.ref = std::move(frame);
  slot.release_ns = release_ns;
  ++ring_count_;
  // Legacy mode keeps the old send-on-release behavior; the batched mode
  // waits for the endpoint's per-pump flush unless a full sendmmsg's
  // worth is already pending: send_batch datagrams, or with GSO
  // send_batch whole runs.
  const std::size_t full =
      offload_.gso ? send_batch_ * kMaxGsoSegments : send_batch_;
  if (send_batch_ == 1 || ring_count_ >= full) flush(release_ns);
}

void UdpChannel::flush(std::int64_t now_ns) {
  last_flush_release_ns_.clear();
  if (send_batch_ == 1) {
    flush_legacy(now_ns);
  } else {
    flush_batched(now_ns);
  }
}

void UdpChannel::retire_front_frames(std::size_t frames, std::int64_t now_ns,
                                     bool sent) {
  const bool metrics = sent && obs::metrics_enabled();
  for (std::size_t i = 0; i < frames; ++i) {
    Pending& p = ring_[ring_head_];
    pending_out_bytes_ -= p.ref.size();
    if (sent) {
      last_flush_release_ns_.push_back(p.release_ns);
      if (metrics) {
        const std::int64_t wait = now_ns - p.release_ns;
        obs::Registry::global().observe(tx_queue_wait_hist(),
                                        net::to_seconds(wait > 0 ? wait : 0));
      }
    }
    p.ref.reset();
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_count_;
  }
}

namespace {

/// A GSO message's iovecs may not exceed the kernel's UIO_MAXIOV.
constexpr std::size_t kMaxIovPerMessage = 1024;

/// Errnos with which a kernel refuses a GSO message itself (no checksum
/// offload on the route, segment size over the MTU, no UDP_SEGMENT).
bool is_offload_refusal(int err) noexcept {
  return err == EIO || err == EINVAL || err == ENOPROTOOPT;
}

}  // namespace

void UdpChannel::flush_batched(std::int64_t now_ns) {
  while (ring_count_ > 0) {
    const std::size_t max_segments = offload_.gso ? kMaxGsoSegments : 1;
    // Build up to send_batch_ messages. Each datagram is a greedy
    // head-first coalescing of frames, each frame an iovec pointing
    // straight into its pool slot — the kernel gathers, we never
    // assemble. Consecutive datagrams of one size join one message (a
    // run) that the kernel cuts back at that size.
    std::size_t iov_idx = 0;
    std::size_t frame_idx = 0;
    unsigned nmsg = 0;
    while (nmsg < send_batch_ && frame_idx < ring_count_) {
      const std::size_t start_iov = iov_idx;
      const std::size_t start_frame = frame_idx;
      std::size_t segments = 0;
      std::size_t segment_bytes = 0;
      std::size_t run_bytes = 0;
      bool run_open = true;
      while (run_open && segments < max_segments && frame_idx < ring_count_) {
        // The head frame always goes (even if it alone exceeds the
        // budget — UDP will take it or EMSGSIZE will tell us); later
        // frames join while they fit.
        std::size_t take = 1;
        std::size_t total = ring_at(frame_idx).ref.size();
        while (frame_idx + take < ring_count_ &&
               total + ring_at(frame_idx + take).ref.size() <=
                   max_datagram_bytes_) {
          total += ring_at(frame_idx + take).ref.size();
          ++take;
        }
        if (segments > 0 &&
            (total > segment_bytes || run_bytes + total > kMaxGsoBytes ||
             iov_idx - start_iov + take > kMaxIovPerMessage)) {
          break;  // this datagram starts the next message
        }
        for (std::size_t i = 0; i < take; ++i) {
          FrameRef& f = ring_at(frame_idx + i).ref;
          tx_iovs_[iov_idx].iov_base = f.data();
          tx_iovs_[iov_idx].iov_len = f.size();
          ++iov_idx;
        }
        frame_idx += take;
        run_bytes += total;
        if (++segments == 1) {
          segment_bytes = total;
        } else {
          run_open = total == segment_bytes;  // a shorter tail ends it
        }
      }
      mmsghdr& m = tx_msgs_[nmsg];
      std::memset(&m.msg_hdr, 0, sizeof(m.msg_hdr));
      m.msg_hdr.msg_iov = &tx_iovs_[start_iov];
      m.msg_hdr.msg_iovlen = iov_idx - start_iov;
      m.msg_len = 0;
      if (segments > 1) {
        UdpSocket::set_gso_segment(m.msg_hdr, tx_control_[nmsg].bytes,
                                   static_cast<std::uint16_t>(segment_bytes));
      }
      tx_takes_[nmsg] = frame_idx - start_frame;
      tx_segments_[nmsg] = segments;
      ++nmsg;
    }

    const auto batch = tx_.send_many({tx_msgs_.data(), nmsg});
    if (batch.completed > 0) {
      std::size_t datagrams = 0;
      for (unsigned i = 0; i < batch.completed; ++i) {
        const std::size_t segments = tx_segments_[i];
        datagrams += segments;
        stats_.datagrams_sent += segments;
        stats_.bytes_sent += tx_msgs_[i].msg_len;
        stats_.frames_coalesced += tx_takes_[i] - segments;
        if (segments > 1) {
          ++stats_.gso_messages;
          stats_.gso_segments += segments;
        }
        retire_front_frames(tx_takes_[i], now_ns, /*sent=*/true);
      }
      if (obs::metrics_enabled()) {
        obs::Registry::global().observe(send_batch_hist(),
                                        static_cast<double>(datagrams));
      }
      // The kernel accepted datagrams, so the congestion episode is
      // over; the next one starts from the base wait.
      retry_backoff_.reset();
    }
    switch (batch.result) {
      case UdpSocket::IoResult::Ok:
        if (batch.completed == nmsg) continue;  // full batch; maybe more
        // Short return: a mid-batch message failed. Per sendmmsg(2) the
        // error surfaces as the HEAD errno of the next call, so just
        // loop — the requeued tail goes out again and the verdict
        // (WouldBlock/Refused/...) lands in one of the cases below.
        ++stats_.sendmmsg_short;
        if (batch.completed == 0) {
          // Zero progress with no errno (only the inject_accept_limit
          // hook produces this): park rather than spin.
          arm_retry();
          return;
        }
        continue;
      case UdpSocket::IoResult::WouldBlock:
        // Kernel buffer full: park everything and wait for EPOLLOUT,
        // with a backoff-paced wheel retry as a backstop.
        ++stats_.send_wouldblock;
        arm_retry();
        return;
      case UdpSocket::IoResult::Refused:
        // ICMP port unreachable from an earlier datagram, charged to the
        // head run: best-effort loss, not an error. The shares are gone;
        // the threshold scheme absorbs it.
        ++stats_.send_refused;
        retire_front_frames(tx_takes_[0], now_ns, /*sent=*/false);
        continue;
      case UdpSocket::IoResult::Error:
        if (tx_segments_[0] > 1 && is_offload_refusal(batch.error)) {
          // The kernel refused the GSO message itself, not its bytes:
          // resend the same datagrams one per message from now on.
          note_refusal(batch.error);
          offload_.gso = false;
          continue;
        }
        ++stats_.send_errors;
        retire_front_frames(tx_takes_[0], now_ns, /*sent=*/false);
        continue;
    }
  }
}

void UdpChannel::flush_legacy(std::int64_t now_ns) {
  // The pre-batching path, preserved verbatim (assembly copy, one send()
  // per datagram) as the bench's before/after baseline.
  std::vector<std::uint8_t> datagram;
  while (ring_count_ > 0) {
    std::size_t take = 1;
    std::size_t total = ring_at(0).ref.size();
    while (take < ring_count_ &&
           total + ring_at(take).ref.size() <= max_datagram_bytes_) {
      total += ring_at(take).ref.size();
      ++take;
    }
    datagram.clear();
    datagram.reserve(total);
    for (std::size_t i = 0; i < take; ++i) {
      const auto bytes = ring_at(i).ref.cspan();
      datagram.insert(datagram.end(), bytes.begin(), bytes.end());
    }

    switch (tx_.send(datagram)) {
      case UdpSocket::IoResult::Ok:
        ++stats_.datagrams_sent;
        stats_.bytes_sent += datagram.size();
        stats_.frames_coalesced += take - 1;
        retire_front_frames(take, now_ns, /*sent=*/true);
        break;
      case UdpSocket::IoResult::WouldBlock:
        ++stats_.send_wouldblock;
        arm_retry();
        return;
      case UdpSocket::IoResult::Refused:
        ++stats_.send_refused;
        retire_front_frames(take, now_ns, /*sent=*/false);
        break;
      case UdpSocket::IoResult::Error:
        ++stats_.send_errors;
        retire_front_frames(take, now_ns, /*sent=*/false);
        break;
    }
    retry_backoff_.reset();
  }
}

void UdpChannel::arm_retry() {
  if (retry_armed_) return;
  retry_armed_ = true;
  const std::int64_t at = last_now_ns_ + retry_backoff_.next();
  wheel_.schedule_at(at, [this, at] {
    retry_armed_ = false;
    if (ring_count_ > 0) {
      ++stats_.send_retries;
      flush(at);
    }
  });
}

void UdpChannel::on_writable(std::int64_t now_ns) { flush(now_ns); }

void UdpChannel::on_readable() {
  if (recv_batch_ == 1) {
    on_readable_legacy();
  } else {
    on_readable_batched();
  }
}

void UdpChannel::on_readable_batched() {
  for (;;) {
    // The kernel overwrites msg_controllen with what it wrote.
    if (offload_.gro) {
      rx_msgs_[0].msg_hdr.msg_controllen = sizeof(rx_control_.bytes);
    }
    const auto batch = rx_.recv_many({rx_msgs_.data(), rx_msg_count_});
    switch (batch.result) {
      case UdpSocket::IoResult::Ok:
        break;
      case UdpSocket::IoResult::WouldBlock:
        return;  // drained
      case UdpSocket::IoResult::Refused:
        ++stats_.recv_refused;
        continue;  // pending ICMP error consumed; keep draining
      case UdpSocket::IoResult::Error:
        ++stats_.recv_errors;
        return;
    }
    std::size_t datagrams = 0;
    for (unsigned i = 0; i < batch.completed; ++i) {
      const mmsghdr& m = rx_msgs_[i];
      if ((m.msg_hdr.msg_flags & (MSG_TRUNC | MSG_CTRUNC)) != 0) {
        // The datagram overflowed its slot (or the GRO segment size was
        // cut off): the tail is gone and frame boundaries with it. Count
        // and drop; slots are sized for the endpoint's own datagrams, so
        // this flags a mis-sized buffer.
        ++stats_.recv_truncated;
        continue;
      }
      const std::size_t n = m.msg_len;
      if (n == 0) continue;  // zero-length datagram carries nothing
      stats_.bytes_received += n;
      const std::span<const std::uint8_t> buffer(
          static_cast<const std::uint8_t*>(m.msg_hdr.msg_iov->iov_base), n);
      // A GRO buffer is a run: datagrams of `segment` bytes, the last
      // possibly shorter. Each is framed on its own, so an undecodable
      // datagram cannot swallow the next one.
      const std::size_t segment =
          offload_.gro ? UdpSocket::gro_segment(m.msg_hdr) : 0;
      const std::size_t step = segment != 0 ? segment : n;
      if (step < n) ++stats_.gro_buffers;
      for (std::size_t off = 0; off < n; off += step) {
        ++datagrams;
        split_into_batch(buffer.subspan(off, std::min(step, n - off)));
      }
    }
    stats_.datagrams_received += datagrams;
    if (obs::metrics_enabled() && datagrams > 0) {
      obs::Registry::global().observe(recv_batch_hist(),
                                      static_cast<double>(datagrams));
    }
    // The next recvmmsg reuses the buffer these spans point into.
    emit_batch();
    if (batch.completed < rx_msg_count_) return;  // queue drained mid-batch
  }
}

void UdpChannel::on_readable_legacy() {
  std::array<std::uint8_t, 65535> buf;
  for (;;) {
    std::size_t n = 0;
    switch (rx_.recv(buf, &n)) {
      case UdpSocket::IoResult::Ok:
        break;
      case UdpSocket::IoResult::WouldBlock:
        return;  // drained
      case UdpSocket::IoResult::Refused:
        ++stats_.recv_refused;
        continue;
      case UdpSocket::IoResult::Error:
        ++stats_.recv_errors;
        return;
    }
    if (n == 0) continue;
    ++stats_.datagrams_received;
    stats_.bytes_received += n;
    split_into_batch({buf.data(), n});
    emit_batch();  // the next recv() reuses buf
  }
}

void UdpChannel::split_into_batch(std::span<const std::uint8_t> datagram) {
  // Split the datagram back into frames in place. Framing only (no key):
  // the keyed proto::Receiver upstream re-decodes each frame and owns
  // the malformed/auth-failure accounting, so a tampered frame is
  // counted exactly once, by the component the tests assert on.
  std::span<const std::uint8_t> rest = datagram;
  while (!rest.empty()) {
    if (rx_frames_.size() == rx_frames_.capacity()) emit_batch();
    const auto extent = proto::frame_extent(rest);
    if (extent.has_value()) {
      ++stats_.frames_forwarded;
      rx_frames_.push_back(rest.first(*extent));
      rest = rest.subspan(*extent);
    } else {
      // Undecodable head: forward the remainder whole so the receiver
      // sees (and counts) the malformation, then move to the next
      // datagram — frame boundaries inside garbage are unknowable.
      ++stats_.unparsed_forwarded;
      rx_frames_.push_back(rest);
      break;
    }
  }
}

void UdpChannel::emit_batch() {
  if (rx_frames_.empty()) return;
  if (on_batch_) on_batch_(rx_frames_);
  rx_frames_.clear();
}

}  // namespace mcss::transport
