// LiveEndpoint: the ReMICSS protocol over real loopback UDP sockets.
//
// The glue the tentpole is named for. One LiveEndpoint owns both ends of
// a Section VI-style testbed run inside one process: n impaired
// UdpChannels, a ShareScheduler (ReMICSS dynamic by default), and a
// proto::Receiver. Source packets go scheduler -> sss::split ->
// wire::encode -> UdpChannel::try_send; the pump loop parks in
// Poller::wait until a socket turns readable/writable or the impairment
// TimerWheel needs service; received datagrams come back through
// wire::decode_prefix and into the unmodified Receiver.
//
// Reusing the simulator's Receiver verbatim is deliberate — its
// reassembly timeouts, memory cap, and duplicate suppression are the
// logic under test. The trick is a private net::Simulator driven in
// lockstep with the wall clock: every pump iteration calls
// run_until(now - epoch), so "sim time" IS wall time and the Receiver's
// schedule_in()-based eviction timers fire at the right real moments.
//
// Determinism note: protocol decisions (dither sequence, share
// coefficients, impairment draws) are all seeded, but *scheduling* is
// real — which channels are ready when depends on actual socket timing.
// Live runs are statistically, not bitwise, reproducible; that is the
// point of having both this and the simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/simulator.hpp"
#include "obs/runtime/telemetry.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "transport/poller.hpp"
#include "transport/timer_wheel.hpp"
#include "transport/udp_channel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::transport {

struct LiveChannelSpec {
  net::ChannelConfig config;
  std::string name;
};

/// Reliability add-on for a live endpoint: a feedback UdpChannel carries
/// periodic receiver reports back to the sender side, which acks, learns
/// RTT, and retransmits over the RetransmitManager's RTO timers.
struct LiveReliabilityConfig {
  bool enabled = false;
  feedback::RetransmitConfig retransmit;
  /// ReportBuilder sizing (num_channels is filled in by the endpoint).
  std::size_t sack_window_words = 16;
  std::size_t max_delay_samples = 64;
  std::int64_t report_interval_ns = 20'000'000;
  /// Shares beyond k on each retransmission.
  int retransmit_extra = 1;
  /// Impairment of the report path (feedback can be lossy too). The
  /// default ChannelConfig is a clean fast channel.
  net::ChannelConfig feedback_channel;
  /// Tag reports with SipHash; unauthenticated/tampered ones are
  /// rejected and counted.
  std::optional<crypto::SipHashKey> report_auth_key;
};

/// MCSS_LIVE_BATCH as a positive size (it seeds both send_batch and
/// recv_batch defaults below), or `fallback` when unset/unparsable.
[[nodiscard]] std::size_t batch_from_env(std::size_t fallback = 32);

/// Send-to-deliver delays an endpoint keeps for delay_seconds(): a
/// uniform reservoir of this many (64 KiB), so a long-running endpoint
/// reports percentiles from fixed memory instead of 8 B per delivered
/// packet. At this size p50/p99 sit within ~0.6 / ~0.1 percentile
/// points (one standard error) of the exact values.
inline constexpr std::size_t kDelaySamples = 8192;

/// The endpoints' delay tracker: a kDelaySamples reservoir drawing from
/// its own stream, seeded from the endpoint's seed.
[[nodiscard]] inline PercentileTracker delay_tracker(std::uint64_t seed) {
  return PercentileTracker::reservoir(kDelaySamples, seed ^ 0xDE1A7ull);
}

struct LiveConfig {
  std::vector<LiveChannelSpec> channels;
  /// DynamicScheduler targets; ignored when `scheduler` is set.
  double kappa = 2.0;
  double mu = 3.0;
  /// Optional explicit scheduler (e.g. a StaticScheduler sampling an LP
  /// solution). Null = DynamicScheduler(kappa, mu, n).
  std::unique_ptr<proto::ShareScheduler> scheduler;
  /// First RX port; channel i binds port_base + i. 0 = kernel-assigned
  /// ephemeral ports (the default; use port_base_from_env() to honor
  /// MCSS_LIVE_PORT_BASE).
  std::uint16_t port_base = 0;
  /// When set, frames carry SipHash-2-4 tags and the receiver is keyed.
  std::optional<crypto::SipHashKey> auth_key;
  std::size_t max_queue_packets = 256;
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
  /// accounting + loop health); off by default. The single protocol
  /// pipeline appears in /flows as pseudo-flow cid 0.
  obs::runtime::RuntimeTelemetryConfig telemetry;
};

/// MCSS_LIVE_PORT_BASE as uint16, or `fallback` when unset/unparsable.
[[nodiscard]] std::uint16_t port_base_from_env(std::uint16_t fallback = 0);

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
  void run_for(std::int64_t wall_ns);

  /// Monotonic nanoseconds since construction (the endpoint's timeline).
  [[nodiscard]] std::int64_t now_ns() const;

  [[nodiscard]] const proto::SenderStats& sender_stats() const noexcept {
    return sender_stats_;
  }
  [[nodiscard]] const proto::Receiver& receiver() const noexcept {
    return receiver_;
  }
  [[nodiscard]] proto::Receiver& receiver() noexcept { return receiver_; }
  [[nodiscard]] std::size_t queued_packets() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] UdpChannel& channel(std::size_t i) { return *channels_.at(i); }
  /// End-to-end packet delay samples (seconds), send() time to delivery.
  [[nodiscard]] PercentileTracker& delay_seconds() noexcept { return delay_; }
  [[nodiscard]] Poller::Backend poller_backend() const noexcept {
    return poller_.backend();
  }
  /// The readiness source (e.g. wait_calls() for syscall accounting).
  [[nodiscard]] const Poller& poller() const noexcept { return poller_; }
  /// The shared frame arena all channels draw from.
  [[nodiscard]] const FramePool& pool() const noexcept { return *pool_; }
  /// Reliability internals (null/absent unless reliability.enabled).
  [[nodiscard]] feedback::RetransmitManager* retransmit_manager() noexcept {
    return manager_.get();
  }
  [[nodiscard]] UdpChannel* feedback_channel() noexcept {
    return feedback_ch_.get();
  }
  [[nodiscard]] std::uint64_t reports_sent() const noexcept {
    return reports_sent_;
  }

  /// Publish sender, receiver, per-channel impairment, and socket-layer
  /// counters into the registry (end-of-run hook).
  void publish_metrics(obs::Registry& registry) const;

  /// The runtime telemetry plane; null unless config.telemetry.enabled.
  [[nodiscard]] obs::runtime::RuntimeTelemetry* telemetry() noexcept {
    return telemetry_.get();
  }

 private:
  void init_telemetry();
  void arm_sampler_timer();
  /// Drain closed-packet exposure records into the privacy accountant.
  void fold_closed();
  void pump(std::int64_t now);
  void dispatch(std::vector<std::uint8_t> payload,
                const proto::ShareDecision& decision, std::int64_t now);
  void sync_timeline(std::int64_t now);
  void update_write_interest();
  [[nodiscard]] int poll_timeout_ms(std::int64_t now,
                                    std::int64_t deadline) const;
  void emit_report();
  void resend(std::uint64_t id, std::uint8_t generation,
              const std::vector<std::uint8_t>& payload, int k);
  /// Serialize `frame` straight into a pool slot and hand it to
  /// `channel`. False = dropped (pool exhausted, frame larger than a
  /// slot, or impairment-queue tail drop) — callers count the share.
  bool encode_and_send(const proto::ShareFrame& frame, UdpChannel& channel,
                       std::int64_t now);

  LiveConfig config_;
  std::int64_t epoch_ns_;
  Poller poller_;
  /// Declared before wheel_ and channels_: every FrameRef still alive at
  /// destruction — receive pins, parked frames, and impairment timer
  /// callbacks pending in the wheel — must release into a live pool.
  std::unique_ptr<FramePool> pool_;
  TimerWheel wheel_;
  Rng rng_;
  std::unique_ptr<proto::ShareScheduler> scheduler_;
  std::vector<std::unique_ptr<UdpChannel>> channels_;
  std::vector<bool> write_interest_;  ///< current EPOLLOUT state per channel
  std::unordered_map<int, std::size_t> fd_to_channel_;

  /// Wall-driven timeline: run_until(now - epoch) each iteration, so the
  /// Receiver's reassembly timers see real time.
  net::Simulator timeline_;
  proto::Receiver receiver_;
  DeliverFn deliver_;

  std::deque<std::vector<std::uint8_t>> queue_;
  std::uint64_t next_packet_id_ = 1;
  proto::SenderStats sender_stats_;
  std::unordered_map<std::uint64_t, std::int64_t> sent_at_ns_;
  /// (id, sent-at) in send order, for pruning timestamps of packets the
  /// receiver can no longer deliver.
  std::deque<std::pair<std::uint64_t, std::int64_t>> sent_order_;
  PercentileTracker delay_;
  std::vector<Poller::Event> events_;  ///< reused across wait() calls

  /// Reliability plumbing (engaged only when reliability.enabled).
  std::unique_ptr<UdpChannel> feedback_ch_;
  bool feedback_write_interest_ = false;
  std::optional<feedback::ReportBuilder> builder_;
  std::unique_ptr<feedback::RetransmitManager> manager_;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t reports_dropped_at_channel_ = 0;
  /// Frames whose encoding exceeds the pool's slot size (see
  /// LiveConfig::pool_slot_bytes).
  std::uint64_t pool_oversize_drops_ = 0;
  /// Pump iterations that parked instead of dispatching because the
  /// arena lacked headroom for a full share fan-out (backpressure, not
  /// loss — the packet stays queued).
  std::uint64_t pool_defers_ = 0;

  std::unique_ptr<obs::runtime::RuntimeTelemetry> telemetry_;
  std::vector<obs::runtime::ExposureRecord> closed_scratch_;

  /// Steady-state dispatch scratch, sized once: the per-pump scheduler
  /// view, the per-packet slot handles, payload windows and whole-frame
  /// views (for seal_frames) of the split-into-slot fast path, and the
  /// splitter's coefficient slices.
  std::vector<proto::ChannelView> view_scratch_;
  std::vector<FrameRef> tx_slots_;
  std::vector<std::span<std::uint8_t>> tx_spans_;
  std::vector<std::span<std::uint8_t>> tx_frames_;
  std::vector<std::uint8_t> split_scratch_;
};

}  // namespace mcss::transport
