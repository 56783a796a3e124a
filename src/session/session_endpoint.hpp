// SessionEndpoint: multiplex many independent ReMICSS flows over one
// shared channel set.
//
// One endpoint terminates a large churning population of secret-sharing
// sessions — the multicast / many-receiver shape of "Two-Multicast
// Channel with Confidential Messages". This is the one live event loop:
// transport::LiveEndpoint is a facade over it with a single flow. The
// substrate (UdpChannels behind a Poller, a TimerWheel for impairment
// and pacing, a FramePool arena) is singular; the protocol state is
// per-flow:
//
//   shared, one per endpoint            per-flow, in the flow table
//   ---------------------------         --------------------------------
//   Poller (all sockets)                packet-id space + send queue
//   TimerWheel (RTO + impairment)       DynamicScheduler (dither state)
//   FramePool (TX/RX/partial slots)     proto::Receiver (reassembly)
//   UdpChannels + feedback lane         feedback::ReportBuilder
//   wall-driven net::Simulator          feedback::RetransmitManager
//
// Flows are keyed by the wire header's connection id (wire.hpp flag bit
// 2): every share and every receiver report carries the owning flow's
// id, the demux happens BEFORE any protocol processing, and packet ids /
// generations / acks are scoped within a connection. One flow's report
// can therefore never ack or supersede another flow's packets — two
// flows both using packet id 1 never meet in one reassembly buffer or
// one SACK window. Connection id 0 (omitted on the wire: the single-flow
// encoding) is an ordinary key once open_flow_as(0) opens it; that flow
// also owns the frames no connection can be read from (undecodable
// heads), whose malformation its receiver counts. Receive is batched:
// each run of consecutive frames with one owner reaches that flow's
// Receiver::on_frames in one call, which verifies the run's tags in
// multi-lane SipHash passes.
//
// Reusing the simulator's Receiver verbatim is deliberate — its
// reassembly timeouts, memory cap, and duplicate suppression are the
// logic under test. The trick is a private net::Simulator driven in
// lockstep with the wall clock: every pump iteration calls
// run_until(now - epoch), so "sim time" IS wall time and the receivers'
// schedule_in()-based eviction timers fire at the right real moments.
//
// Scale discipline (the 100k-flow requirements):
//   - O(1) ready-flow scheduling: flows with queued packets sit on an
//     intrusive doubly-linked ready list and are served round-robin (one
//     packet per turn). No per-flow heaps, no scan of idle flows.
//   - Per-flow RTO timers live on the SHARED TimerWheel, armed at the
//     flow's RetransmitManager::next_deadline() and re-armed on ack and
//     fire. The pump never scans managers; an idle endpoint with 100k
//     armed flows does O(due timers) work, not O(flows).
//   - Report emission is paced by one session-wide timer that walks an
//     intrusive list of flows with NEW deliveries since the last report
//     (again no idle-flow scan), coalescing several flows' reports into
//     each feedback datagram.
//   - Flow teardown cancels wheel timers by handle (TimerWheel::cancel)
//     and relies on the Receiver's liveness token for simulator-parked
//     eviction timers, so churn never leaves a callback aimed at freed
//     per-flow state.
//   - Memory degrades PER FLOW: each flow's Receiver gets its own
//     memory cap (limits.per_flow_memory_bytes), so an overloaded or
//     attacked flow evicts its own oldest partials and cannot starve its
//     neighbours' reassembly.
//
// Admission control shares the channel rate budget fairly: a flow
// declares its offered rate (FlowParams), the endpoint prices it as
// rate_pps * mu * (payload + overhead) bytes/s, and admits while the
// aggregate stays under admission_headroom * sum(channel rate). Beyond
// that — or beyond max_flows — open_flow() refuses, with the reason
// counted in stats().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/simulator.hpp"
#include "obs/runtime/telemetry.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "transport/live_config.hpp"
#include "transport/poller.hpp"
#include "transport/timer_wheel.hpp"
#include "transport/udp_channel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::session {

/// What a flow declares at admission time. The endpoint prices the flow
/// from these and holds the reservation until close_flow().
struct FlowParams {
  /// Offered source-packet rate used for admission pricing (not a
  /// shaper — the per-flow queue bound is the actual backpressure).
  double rate_pps = 50.0;
  /// Typical payload size used for admission pricing.
  std::size_t payload_bytes = 256;
  /// Per-flow (kappa, mu) dither targets; unset = the session defaults.
  std::optional<double> kappa;
  std::optional<double> mu;
};

struct SessionLimits {
  /// Hard cap on concurrently open flows.
  std::size_t max_flows = 1u << 20;
  /// Fraction of the aggregate channel byte rate admission may book.
  double admission_headroom = 0.9;
  /// Each flow's Receiver memory cap: reassembly pressure evicts the
  /// offending flow's own oldest partials, never a neighbour's.
  std::size_t per_flow_memory_bytes = 64u << 10;
  /// Per-flow send queue bound (send() returns false beyond it).
  std::size_t max_queue_packets = 16;
  /// Packets dispatched per pump iteration before the loop returns to
  /// socket work — fairness between protocol CPU and IO under load.
  std::size_t max_dispatch_per_pump = 256;
};

struct SessionConfig {
  std::vector<transport::LiveChannelSpec> channels;
  /// Session-default DynamicScheduler targets (per-flow dither state).
  double kappa = 2.0;
  double mu = 3.0;
  /// First RX port; channel i binds port_base + i (+ feedback lane), 0 =
  /// ephemeral. A range past port 65535 is refused at construction.
  std::uint16_t port_base = 0;
  /// When set, frames carry SipHash tags and per-flow receivers are keyed.
  std::optional<crypto::SipHashKey> auth_key;
  /// Template for per-flow receivers; memory_limit_bytes and arena are
  /// overridden per flow (see SessionLimits::per_flow_memory_bytes).
  proto::ReceiverConfig receiver;
  std::uint64_t seed = 1;
  std::size_t max_datagram_bytes = 1400;
  transport::Poller::Backend poller_backend =
      transport::Poller::default_backend();
  /// Reuses the live endpoint's reliability knobs: retransmit config,
  /// report interval, feedback channel impairment, report auth key.
  transport::LiveReliabilityConfig reliability;
  SessionLimits limits;
  std::size_t send_batch = transport::batch_from_env(32);
  std::size_t recv_batch = transport::batch_from_env(32);
  /// FramePool sizing, 0 = auto: transmit in flight (4 send batches per
  /// lane) plus slack for partials. Slot bytes from max_datagram_bytes.
  std::size_t pool_slots = 0;
  std::size_t pool_slot_bytes = 0;
  /// Runtime telemetry plane (scrape server + sampler + privacy
  /// accounting + loop health); off by default. When
  /// telemetry.privacy.channel_risks is empty the endpoint fills a
  /// uniform 0.1 prior per channel (scenarios that know their real
  /// per-channel compromise probabilities should set them).
  obs::runtime::RuntimeTelemetryConfig telemetry;
};

struct SessionStats {
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_closed = 0;
  std::uint64_t flows_rejected_rate = 0;      ///< admission budget exhausted
  std::uint64_t flows_rejected_capacity = 0;  ///< max_flows reached
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t queue_rejects = 0;  ///< send() on a full per-flow queue
  /// RX demux outcomes. Frames whose head fails share framing are counted
  /// here (and handed to flow 0's receiver when it is open); frames
  /// without a connection id while flow 0 is closed and frames for ids
  /// not in the table (late shares of a closed flow, or forgeries) are
  /// dropped before any receiver sees them.
  std::uint64_t frames_demuxed = 0;
  std::uint64_t frames_undecodable = 0;
  std::uint64_t frames_without_connection = 0;
  std::uint64_t frames_unknown_connection = 0;
  /// Feedback demux outcomes, same policy as frames.
  std::uint64_t reports_sent = 0;
  std::uint64_t report_datagrams_sent = 0;
  std::uint64_t reports_dropped_at_channel = 0;
  std::uint64_t reports_demuxed = 0;
  std::uint64_t reports_malformed = 0;
  std::uint64_t reports_auth_failed = 0;
  std::uint64_t reports_without_connection = 0;
  std::uint64_t reports_unknown_connection = 0;
  /// Dispatch backpressure.
  std::uint64_t pool_defers = 0;
  std::uint64_t schedule_defers = 0;
  std::uint64_t pool_oversize_drops = 0;
};

class SessionEndpoint {
 public:
  /// Delivery callback: (connection id, packet id, payload).
  using DeliverFn = std::function<void(std::uint32_t, std::uint64_t,
                                       std::vector<std::uint8_t>)>;

  explicit SessionEndpoint(SessionConfig config);
  ~SessionEndpoint();

  SessionEndpoint(const SessionEndpoint&) = delete;
  SessionEndpoint& operator=(const SessionEndpoint&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Admit a flow and install its state; nullopt when admission refuses
  /// (rate budget or max_flows — see stats()). O(1) amortized. Ids start
  /// at 1; 0 is opened only by name.
  [[nodiscard]] std::optional<std::uint32_t> open_flow(
      const FlowParams& params = {});

  /// open_flow() under a caller-chosen connection id, e.g. 0 for a peer
  /// speaking the single-flow encoding. `cid` must not be open.
  [[nodiscard]] std::optional<std::uint32_t> open_flow_as(
      std::uint32_t cid, const FlowParams& params = {});

  /// Tear a flow down: cancel its wheel timers, unlink it from the
  /// ready/report lists, release its admission reservation, destroy its
  /// state. Pending simulator eviction timers become no-ops via the
  /// Receiver's liveness token. False when `cid` is not an open flow.
  bool close_flow(std::uint32_t cid);

  /// Queue one source packet on flow `cid`. False = unknown flow or
  /// per-flow queue full (backpressure).
  bool send(std::uint32_t cid, std::vector<std::uint8_t> payload);

  /// Run the shared event loop for `wall_ns` of real time.
  void run_for(std::int64_t wall_ns);

  /// Monotonic nanoseconds since construction (the endpoint's timeline).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Feed one feedback datagram (possibly several coalesced reports)
  /// through the demux, exactly as the feedback socket would. Public so
  /// tests and external feedback transports can inject reports.
  void on_feedback_datagram(std::span<const std::uint8_t> datagram,
                            std::int64_t now);

  [[nodiscard]] std::size_t num_flows() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] transport::UdpChannel& channel(std::size_t i) {
    return *channels_.at(i);
  }
  /// The report lane; null unless reliability.enabled.
  [[nodiscard]] transport::UdpChannel* feedback_channel() noexcept {
    return feedback_ch_.get();
  }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  /// Aggregate admitted byte rate and the admission budget it is held
  /// against (bytes/s).
  [[nodiscard]] double admitted_bytes_per_s() const noexcept {
    return admitted_bytes_per_s_;
  }
  [[nodiscard]] double admission_budget_bytes_per_s() const noexcept {
    return budget_bytes_per_s_;
  }
  /// open_flow() wall-clock cost (seconds) — the bench's setup latency.
  [[nodiscard]] PercentileTracker& setup_latency_seconds() noexcept {
    return setup_latency_;
  }
  /// End-to-end packet delay samples (seconds) across all flows.
  [[nodiscard]] PercentileTracker& delay_seconds() noexcept { return delay_; }
  [[nodiscard]] const transport::FramePool& pool() const noexcept {
    return *pool_;
  }
  [[nodiscard]] const transport::Poller& poller() const noexcept {
    return poller_;
  }

  /// Per-flow introspection for tests and benches; null/0 when `cid` is
  /// not an open flow.
  [[nodiscard]] const proto::Receiver* flow_receiver(std::uint32_t cid) const;
  [[nodiscard]] feedback::RetransmitManager* flow_manager(std::uint32_t cid);
  [[nodiscard]] std::size_t flow_queued_packets(std::uint32_t cid) const;
  [[nodiscard]] const proto::SenderStats* flow_sender_stats(
      std::uint32_t cid) const;

  /// Publish session, per-channel, pool, and aggregated per-flow
  /// counters into the registry (end-of-run hook). Session-level
  /// counters go through the same delta tracker the periodic sampler
  /// uses, so totals stay exact whether or not sampling ran.
  void publish_metrics(obs::Registry& registry) const;

  /// The runtime telemetry plane; null unless config.telemetry.enabled.
  [[nodiscard]] obs::runtime::RuntimeTelemetry* telemetry() noexcept {
    return telemetry_.get();
  }

 private:
  struct Flow;
  /// A flow's links in one intrusive FIFO of flows.
  struct Hook {
    Flow* prev = nullptr;
    Flow* next = nullptr;
    bool linked = false;
  };
  /// Intrusive FIFO threaded through each flow's `hook`: O(1) push and
  /// unlink, no allocation, no scan of flows that are not on it.
  struct FlowList {
    Hook Flow::*hook;
    Flow* head = nullptr;
    Flow* tail = nullptr;
    void push_back(Flow& flow);  ///< no-op when already linked
    void unlink(Flow& flow);     ///< no-op when not linked
  };

  struct Flow {
    Flow(std::uint32_t id, const FlowParams& p, double bytes_per_s,
         net::Simulator& timeline, proto::ReceiverConfig rc, double kappa,
         double mu, int num_channels, std::int64_t opened)
        : cid(id),
          params(p),
          admitted_bytes_per_s(bytes_per_s),
          scheduler(kappa, mu, num_channels),
          receiver(timeline, std::move(rc)),
          opened_ns(opened) {}

    std::uint32_t cid;
    FlowParams params;
    double admitted_bytes_per_s;
    proto::DynamicScheduler scheduler;
    proto::Receiver receiver;
    std::optional<feedback::ReportBuilder> builder;
    std::unique_ptr<feedback::RetransmitManager> manager;

    std::deque<std::vector<std::uint8_t>> queue;
    std::uint64_t next_packet_id = 1;
    proto::SenderStats sender_stats;
    /// Send stamps for the delay join, pruned oldest-first on dispatch.
    std::unordered_map<std::uint64_t, std::int64_t> sent_at_ns;
    std::deque<std::pair<std::uint64_t, std::int64_t>> sent_order;

    /// Links in ready_ (queued packets, served round-robin) and report_
    /// (deliveries since the last report).
    Hook ready_hook;
    Hook report_hook;

    /// This flow's RTO timer on the shared wheel; kNoTimer when unarmed.
    transport::TimerWheel::TimerId rto_timer = transport::TimerWheel::kNoTimer;
    std::int64_t rto_deadline = 0;

    std::int64_t opened_ns = 0;
  };

  using Frames = std::span<const std::span<const std::uint8_t>>;

  void pump(std::int64_t now);
  void dispatch(Flow& flow, std::vector<std::uint8_t> payload,
                const proto::ShareDecision& decision, std::int64_t now);
  void resend(std::uint32_t cid, std::uint64_t id, std::uint8_t generation,
              const std::vector<std::uint8_t>& payload, int k);
  /// Split `payload` afresh into one share per entry of `channels` and
  /// send each as its own encoded frame: retransmissions (generation >
  /// 0) and the dispatch path when the arena cannot take the fan-out.
  void send_shares(Flow& flow, std::uint64_t id, std::uint8_t generation,
                   int k, std::span<const std::uint8_t> payload,
                   std::span<const int> channels, std::int64_t now);
  /// Demux one channel receive batch into per-flow runs.
  void on_share_batch(std::size_t channel, Frames frames);
  /// Hand `run` (consecutive frames of connection `cid`, `undecodable`
  /// of them with unreadable heads) to the owning flow's receiver.
  void deliver_run(std::size_t channel, std::uint32_t cid, Frames run,
                   std::size_t undecodable);
  void on_delivered(Flow& flow, std::uint64_t id,
                    std::vector<std::uint8_t> payload);
  /// (Re)arm the flow's wheel timer at its manager's next deadline;
  /// cancels a stale handle first. Call after any event that can move
  /// the deadline (dispatch, ack, fire).
  void arm_rto(Flow& flow, std::int64_t now);
  void emit_reports();
  void sync_timeline(std::int64_t now);
  /// The share channels, then the feedback lane when reliability is on.
  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return channels_.size() + (feedback_ch_ ? 1 : 0);
  }
  [[nodiscard]] transport::UdpChannel& lane(std::size_t i) {
    return i < channels_.size() ? *channels_[i] : *feedback_ch_;
  }
  [[nodiscard]] const transport::UdpChannel& lane(std::size_t i) const {
    return i < channels_.size() ? *channels_[i] : *feedback_ch_;
  }
  void update_write_interest();
  [[nodiscard]] int poll_timeout_ms(std::int64_t now,
                                    std::int64_t deadline) const;
  [[nodiscard]] double price_flow(const FlowParams& params) const noexcept;


  void init_telemetry();
  /// Wake-up timer so an idle poller still advances the sampler; 1 ms
  /// cadence while a sliced flow walk is in progress, the sample
  /// interval otherwise.
  void arm_sampler_timer();
  /// Drain the flow's closed-packet records into the privacy
  /// accountant (call after any event that can close packets).
  void fold_closed(Flow& flow);
  [[nodiscard]] bool probe_flow(std::uint32_t cid,
                                obs::runtime::FlowSample& out) const;
  /// Session-level counters as deltas + cheap gauges; the periodic
  /// sampler's publish hook (O(1) in flows).
  void publish_runtime_metrics(obs::Registry& registry) const;

  SessionConfig config_;
  std::int64_t epoch_ns_;
  transport::Poller poller_;
  /// Before wheel_/channels_/flows_: every FrameRef alive at destruction
  /// (receive pins, parked impairment frames, per-flow partials) must
  /// release into a live pool.
  std::unique_ptr<transport::FramePool> pool_;
  transport::TimerWheel wheel_;
  Rng rng_;
  std::vector<std::unique_ptr<transport::UdpChannel>> channels_;
  std::vector<bool> write_interest_;  ///< current EPOLLOUT state per lane
  std::unordered_map<int, std::size_t> fd_to_channel_;
  std::unique_ptr<transport::UdpChannel> feedback_ch_;

  /// Wall-driven timeline shared by every flow's Receiver (reassembly
  /// eviction timers), run_until(now - epoch) each pump iteration.
  net::Simulator timeline_;

  DeliverFn deliver_;
  SessionStats stats_;
  double budget_bytes_per_s_ = 0.0;
  double admitted_bytes_per_s_ = 0.0;
  std::uint32_t next_cid_ = 1;
  PercentileTracker setup_latency_;
  PercentileTracker delay_;

  FlowList ready_{&Flow::ready_hook};
  FlowList report_{&Flow::report_hook};

  std::unique_ptr<obs::runtime::RuntimeTelemetry> telemetry_;
  /// Last totals published per counter series (publish_metrics is
  /// logically const; the tracker is bookkeeping, not state).
  mutable obs::runtime::CounterDeltas counter_deltas_;
  std::vector<obs::runtime::ExposureRecord> closed_scratch_;

  std::vector<transport::Poller::Event> events_;
  std::vector<proto::ChannelView> view_scratch_;
  std::vector<transport::FrameRef> tx_slots_;
  std::vector<std::span<std::uint8_t>> tx_spans_;
  std::vector<std::span<std::uint8_t>> tx_frames_;  ///< seal_frames views
  std::vector<std::uint8_t> split_scratch_;
  std::vector<std::uint8_t> report_datagram_;

  /// Destroyed FIRST (declared last): per-flow receivers release arena
  /// slots into pool_ and flip their liveness tokens while timeline_ and
  /// wheel_ still exist.
  std::unordered_map<std::uint32_t, std::unique_ptr<Flow>> flows_;
};

}  // namespace mcss::session
