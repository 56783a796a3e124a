// LiveEndpoint: the ReMICSS protocol over real loopback UDP sockets, one
// flow.
//
// One LiveEndpoint owns both ends of a Section VI-style testbed run
// inside one process: n impaired UdpChannels, the ReMICSS dynamic
// scheduler, and a proto::Receiver. Source packets go scheduler ->
// sss::split -> wire::encode -> UdpChannel::try_send; the event loop
// parks in Poller::wait until a socket turns readable/writable or the
// impairment TimerWheel needs service; received datagrams come back
// through the receiver's batched decode.
//
// A single flow is the n = 1 case of the session layer's many-receiver
// shape, so this class is a facade: it owns one session::SessionEndpoint
// with one flow, opened under connection id 0. Connection 0 frames and
// reports omit the id on the wire, so the bytes are those of the
// pre-session single-flow encoding. The event loop, dispatch,
// retransmission, reports and telemetry are the session's.
//
// Determinism note: protocol decisions (dither sequence, share
// coefficients, impairment draws) are all seeded, but *scheduling* is
// real — which channels are ready when depends on actual socket timing.
// Live runs are statistically, not bitwise, reproducible; that is the
// point of having both this and the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "crypto/siphash.hpp"
#include "obs/runtime/telemetry.hpp"
#include "protocol/receiver.hpp"
#include "protocol/sender.hpp"
#include "session/session_endpoint.hpp"
#include "transport/live_config.hpp"
#include "transport/poller.hpp"
#include "transport/udp_channel.hpp"
#include "util/stats.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::transport {

struct LiveConfig {
  std::vector<LiveChannelSpec> channels;
  /// DynamicScheduler targets.
  double kappa = 2.0;
  double mu = 3.0;
  /// First RX port; channel i binds port_base + i. 0 = kernel-assigned
  /// ephemeral ports (the default; use port_base_from_env() to honor
  /// MCSS_LIVE_PORT_BASE).
  std::uint16_t port_base = 0;
  /// When set, frames carry SipHash-2-4 tags and the receiver is keyed.
  std::optional<crypto::SipHashKey> auth_key;
  std::size_t max_queue_packets = 256;
  /// The flow's receiver; memory_limit_bytes is its reassembly cap.
  proto::ReceiverConfig receiver;
  std::uint64_t seed = 1;
  std::size_t max_datagram_bytes = 1400;
  Poller::Backend poller_backend = Poller::default_backend();
  LiveReliabilityConfig reliability;
  /// Datagrams per sendmmsg / recvmmsg. 1 = the legacy unbatched path
  /// (one syscall per datagram, assembly copies) — kept as the honest
  /// before/after baseline for bench/live_eval and as the escape hatch
  /// if a batched syscall misbehaves: MCSS_LIVE_BATCH overrides these
  /// defaults, and an explicit assignment overrides the env.
  std::size_t send_batch = batch_from_env(32);
  std::size_t recv_batch = batch_from_env(32);
  /// FramePool sizing. 0 = auto: slots from channel count and send batch
  /// depth (transmit in flight, with slack), slot bytes from
  /// max_datagram_bytes; receive buffers are the channels' own. Every
  /// share frame must fit one slot; larger frames are dropped-with-stat,
  /// so raise pool_slot_bytes when sending payloads beyond the defaults.
  std::size_t pool_slots = 0;
  std::size_t pool_slot_bytes = 0;
  /// Runtime telemetry plane (scrape server + sampler + privacy
  /// accounting + loop health); off by default. The flow appears in
  /// /flows as cid 0.
  obs::runtime::RuntimeTelemetryConfig telemetry;
};

class LiveEndpoint {
 public:
  using DeliverFn = proto::Receiver::DeliverFn;

  explicit LiveEndpoint(LiveConfig config);

  LiveEndpoint(const LiveEndpoint&) = delete;
  LiveEndpoint& operator=(const LiveEndpoint&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Offer one source packet. False = send queue full (backpressure).
  bool send(std::vector<std::uint8_t> payload);

  /// Run the event loop for `wall_ns` of real time: pump queued packets,
  /// service impairment timers, move datagrams, feed the receiver. Call
  /// repeatedly; an extra call with the queue empty drains in-flight
  /// shares and lets reassembly timeouts fire.
  void run_for(std::int64_t wall_ns) { session_.run_for(wall_ns); }

  /// Monotonic nanoseconds since construction (the endpoint's timeline).
  [[nodiscard]] std::int64_t now_ns() const { return session_.now_ns(); }

  [[nodiscard]] const proto::SenderStats& sender_stats() const {
    return *session_.flow_sender_stats(kFlow);
  }
  [[nodiscard]] const proto::Receiver& receiver() const {
    return *session_.flow_receiver(kFlow);
  }
  [[nodiscard]] std::size_t queued_packets() const {
    return session_.flow_queued_packets(kFlow);
  }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return session_.num_channels();
  }
  [[nodiscard]] UdpChannel& channel(std::size_t i) {
    return session_.channel(i);
  }
  /// End-to-end packet delay samples (seconds), send() time to delivery.
  [[nodiscard]] PercentileTracker& delay_seconds() noexcept {
    return session_.delay_seconds();
  }
  [[nodiscard]] Poller::Backend poller_backend() const noexcept {
    return session_.poller().backend();
  }
  /// The readiness source (e.g. wait_calls() for syscall accounting).
  [[nodiscard]] const Poller& poller() const noexcept {
    return session_.poller();
  }
  /// The shared frame arena all channels draw from.
  [[nodiscard]] const FramePool& pool() const noexcept {
    return session_.pool();
  }
  /// Reliability internals (null/absent unless reliability.enabled).
  [[nodiscard]] feedback::RetransmitManager* retransmit_manager() {
    return session_.flow_manager(kFlow);
  }
  [[nodiscard]] UdpChannel* feedback_channel() noexcept {
    return session_.feedback_channel();
  }
  [[nodiscard]] std::uint64_t reports_sent() const noexcept {
    return session_.stats().reports_sent;
  }

  /// Publish the session's sender, receiver, channel, socket and pool
  /// counters, plus mcss_live_pool_defers (end-of-run hook).
  void publish_metrics(obs::Registry& registry) const;

  /// The runtime telemetry plane; null unless config.telemetry.enabled.
  [[nodiscard]] obs::runtime::RuntimeTelemetry* telemetry() noexcept {
    return session_.telemetry();
  }

 private:
  /// The one flow's connection id: 0, the id the wire header omits.
  static constexpr std::uint32_t kFlow = 0;

  session::SessionEndpoint session_;
  DeliverFn deliver_;
};

}  // namespace mcss::transport
