#include "session/session_endpoint.hpp"

#include <algorithm>
#include <utility>

#include "feedback/report.hpp"
#include "obs/metrics.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::session {

namespace {

/// Admission prices a flow against the CANONICAL wire overhead of its
/// declared payload: header + connection id + tag, times the share
/// multiplicity mu (each source packet fans out to ~mu shares of payload
/// size). Generations are excluded — retransmissions are the exception,
/// not the booked rate.
constexpr std::size_t kPricedOverhead =
    proto::kHeaderSize + proto::kConnectionIdSize + proto::kTagSize;

}  // namespace

SessionEndpoint::SessionEndpoint(SessionConfig config)
    : config_(std::move(config)),
      epoch_ns_(transport::monotonic_ns()),
      poller_(config_.poller_backend),
      rng_(config_.seed) {
  MCSS_ENSURE(!config_.channels.empty(), "session endpoint needs channels");
  MCSS_ENSURE(config_.channels.size() <= 32, "at most 32 channels");
  MCSS_ENSURE(config_.send_batch >= 1 && config_.recv_batch >= 1,
              "batch depths must be at least 1");
  MCSS_ENSURE(config_.limits.max_flows >= 1, "max_flows must be at least 1");
  MCSS_ENSURE(config_.limits.admission_headroom > 0.0,
              "admission headroom must be positive");
  if (config_.port_base != 0) {
    // Same wraparound guard as LiveEndpoint: channel i binds
    // port_base + i plus one feedback lane when reliability is on.
    const std::size_t last_lane = config_.channels.size() -
                                  (config_.reliability.enabled ? 0 : 1);
    MCSS_ENSURE(static_cast<std::size_t>(config_.port_base) + last_lane <=
                    65535,
                "port_base + channels (and feedback lane) exceeds 65535: "
                "the port range would wrap");
  }

  // One arena for everything: TX encode slots, RX receive pins, frames
  // parked at the impairment serializer, and per-flow reassembly
  // partials. The auto-size adds partial slack beyond LiveEndpoint's
  // because flows borrow slots for as long as a partial is open.
  {
    const std::size_t slot_bytes =
        config_.pool_slot_bytes != 0
            ? config_.pool_slot_bytes
            : std::max<std::size_t>(2048, 2 * config_.max_datagram_bytes);
    const std::size_t lanes = config_.channels.size() +
                              (config_.reliability.enabled ? 1 : 0);
    const std::size_t slots =
        config_.pool_slots != 0
            ? config_.pool_slots
            : lanes * (config_.recv_batch + 4 * config_.send_batch) + 256;
    pool_ = std::make_unique<transport::FramePool>(slot_bytes, slots);
  }
  poller_.register_buffers({pool_->arena_data(), pool_->arena_bytes()});

  budget_bytes_per_s_ = 0.0;
  for (const auto& spec : config_.channels) {
    budget_bytes_per_s_ += spec.config.rate_bps / 8.0;
  }
  budget_bytes_per_s_ *= config_.limits.admission_headroom;

  channels_.reserve(config_.channels.size());
  write_interest_.assign(config_.channels.size(), false);
  for (std::size_t i = 0; i < config_.channels.size(); ++i) {
    const auto& spec = config_.channels[i];
    const std::uint16_t port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + i)
            : 0;
    auto ch = std::make_unique<transport::UdpChannel>(
        spec.config, rng_.fork(), wheel_, *pool_, port, spec.name,
        config_.max_datagram_bytes, config_.send_batch, config_.recv_batch);
    ch->set_on_frame([this, i](std::span<const std::uint8_t> frame) {
      on_share_frame(i, frame);
    });
    poller_.add(ch->rx_fd(), /*want_read=*/true, /*want_write=*/false);
    poller_.add(ch->tx_fd(), /*want_read=*/false, /*want_write=*/false);
    fd_to_channel_[ch->rx_fd()] = i;
    fd_to_channel_[ch->tx_fd()] = i;
    channels_.push_back(std::move(ch));
  }

  if (config_.reliability.enabled) {
    const std::size_t n = channels_.size();
    const std::uint16_t fb_port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + n)
            : 0;
    feedback_ch_ = std::make_unique<transport::UdpChannel>(
        config_.reliability.feedback_channel, rng_.fork(), wheel_, *pool_,
        fb_port, "feedback", config_.max_datagram_bytes, config_.send_batch,
        config_.recv_batch);
    feedback_ch_->set_on_frame([this](std::span<const std::uint8_t> datagram) {
      on_feedback_datagram(datagram, now_ns());
    });
    poller_.add(feedback_ch_->rx_fd(), /*want_read=*/true,
                /*want_write=*/false);
    poller_.add(feedback_ch_->tx_fd(), /*want_read=*/false,
                /*want_write=*/false);
    fd_to_channel_[feedback_ch_->rx_fd()] = n;
    fd_to_channel_[feedback_ch_->tx_fd()] = n;

    MCSS_ENSURE(config_.reliability.report_interval_ns > 0,
                "report interval must be positive");
    wheel_.schedule_at(now_ns() + config_.reliability.report_interval_ns,
                       [this] { emit_reports(); });
  }

  if (config_.telemetry.enabled) init_telemetry();
}

void SessionEndpoint::init_telemetry() {
  obs::runtime::RuntimeTelemetryConfig tcfg = config_.telemetry;
  if (tcfg.privacy.channel_risks.empty()) {
    // Uniform adversary prior: z_i = 0.1 per channel. Relative signals
    // (widening, degradations) are meaningful under any positive prior;
    // scenarios with real per-channel compromise probabilities override.
    tcfg.privacy.channel_risks.assign(channels_.size(), 0.1);
  }
  telemetry_ = std::make_unique<obs::runtime::RuntimeTelemetry>(tcfg);
  telemetry_->server().set_fd_hooks(
      [this](int fd, bool r, bool w) { poller_.add(fd, r, w); },
      [this](int fd, bool r, bool w) { poller_.modify(fd, r, w); },
      [this](int fd) { poller_.remove(fd); });
  telemetry_->sampler().set_flow_probes(
      [this](std::vector<std::uint32_t>& out) {
        out.clear();
        out.reserve(flows_.size());
        for (const auto& [cid, flow] : flows_) {
          (void)flow;
          out.push_back(cid);
        }
      },
      [this](std::uint32_t cid, obs::runtime::FlowSample& out) {
        return probe_flow(cid, out);
      });
  telemetry_->sampler().set_publish(
      [this](obs::Registry& registry) { publish_runtime_metrics(registry); });
  arm_sampler_timer();
}

void SessionEndpoint::arm_sampler_timer() {
  // The timer never does sampler work itself — run_for polls the
  // sampler every iteration. It exists to bound the poller sleep so an
  // idle endpoint still wakes to take (and finish) samples on time.
  const std::int64_t now = now_ns();
  const std::int64_t due = telemetry_->sampler().sampling()
                               ? now + 1'000'000
                               : telemetry_->sampler().next_due_ns(now);
  wheel_.schedule_at(std::max(due, now + 1), [this] { arm_sampler_timer(); });
}

SessionEndpoint::~SessionEndpoint() = default;

std::int64_t SessionEndpoint::now_ns() const {
  return transport::monotonic_ns() - epoch_ns_;
}

void SessionEndpoint::sync_timeline(std::int64_t now) {
  if (now > timeline_.now()) timeline_.run_until(now);
}

double SessionEndpoint::price_flow(const FlowParams& params) const noexcept {
  const double mu = params.mu.value_or(config_.mu);
  const double frame_bytes =
      static_cast<double>(params.payload_bytes + kPricedOverhead);
  return params.rate_pps * mu * frame_bytes;
}

std::optional<std::uint32_t> SessionEndpoint::open_flow(
    const FlowParams& params) {
  const std::int64_t t0 = transport::monotonic_ns();
  if (flows_.size() >= config_.limits.max_flows) {
    ++stats_.flows_rejected_capacity;
    return std::nullopt;
  }
  const double price = price_flow(params);
  if (admitted_bytes_per_s_ + price > budget_bytes_per_s_) {
    ++stats_.flows_rejected_rate;
    return std::nullopt;
  }

  std::uint32_t cid = next_cid_;
  while (cid == 0 || flows_.count(cid) != 0) ++cid;  // 0 is the no-flow id
  next_cid_ = cid + 1;

  proto::ReceiverConfig rc = config_.receiver;
  rc.memory_limit_bytes = config_.limits.per_flow_memory_bytes;
  rc.arena = pool_.get();
  if (config_.auth_key && !rc.auth_key) rc.auth_key = config_.auth_key;

  auto flow = std::make_unique<Flow>(
      cid, params, price, timeline_, std::move(rc),
      params.kappa.value_or(config_.kappa), params.mu.value_or(config_.mu),
      static_cast<int>(channels_.size()), now_ns());
  flow->receiver.set_deliver(
      [this, cid](std::uint64_t id, std::vector<std::uint8_t> payload) {
        on_delivered(cid, id, std::move(payload));
      });
  if (config_.reliability.enabled) {
    flow->builder.emplace(feedback::ReportBuilderConfig{
        .num_channels = channels_.size(),
        .sack_window_words = config_.reliability.sack_window_words,
        .max_delay_samples = config_.reliability.max_delay_samples});
    flow->manager = std::make_unique<feedback::RetransmitManager>(
        config_.reliability.retransmit, rng_.fork());
    flow->manager->set_retransmit(
        [this, cid](std::uint64_t id, std::uint8_t generation,
                    const std::vector<std::uint8_t>& payload, int k) {
          resend(cid, id, generation, payload, k);
        });
  }

  admitted_bytes_per_s_ += price;
  ++stats_.flows_opened;
  flows_.emplace(cid, std::move(flow));
  const std::int64_t setup_ns = transport::monotonic_ns() - t0;
  setup_latency_.add(static_cast<double>(setup_ns) / 1e9);
  if (obs::metrics_enabled()) {
    obs::Registry& registry = obs::Registry::global();
    static const obs::HistogramId open_id = registry.histogram(
        "mcss_session_open_flow_us", obs::exp_bounds(1.0, 2.0, 16));
    registry.observe(open_id, static_cast<double>(setup_ns) / 1e3);
  }
  return cid;
}

bool SessionEndpoint::close_flow(std::uint32_t cid) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;
  Flow& flow = *it->second;
  // Cancel-by-handle keeps the shared wheel from firing into freed
  // per-flow state; the Receiver's liveness token covers the eviction
  // timers already parked in timeline_ the same way.
  if (flow.rto_timer != transport::TimerWheel::kNoTimer) {
    wheel_.cancel(flow.rto_timer);
    flow.rto_timer = transport::TimerWheel::kNoTimer;
  }
  fold_closed(flow);
  unlink_ready(flow);
  unlink_report(flow);
  admitted_bytes_per_s_ =
      std::max(0.0, admitted_bytes_per_s_ - flow.admitted_bytes_per_s);
  ++stats_.flows_closed;
  flows_.erase(it);
  return true;
}

bool SessionEndpoint::send(std::uint32_t cid,
                           std::vector<std::uint8_t> payload) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;
  Flow& flow = *it->second;
  ++flow.sender_stats.packets_offered;
  MCSS_ENSURE(payload.size() <= proto::kMaxPayload,
              "packet exceeds maximum payload");
  if (flow.queue.size() >= config_.limits.max_queue_packets) {
    ++flow.sender_stats.packets_rejected;
    ++stats_.queue_rejects;
    return false;
  }
  flow.queue.push_back(std::move(payload));
  push_ready(flow);
  return true;
}

void SessionEndpoint::push_ready(Flow& flow) {
  if (flow.in_ready) return;
  flow.in_ready = true;
  flow.ready_prev = ready_tail_;
  flow.ready_next = nullptr;
  if (ready_tail_ != nullptr) {
    ready_tail_->ready_next = &flow;
  } else {
    ready_head_ = &flow;
  }
  ready_tail_ = &flow;
}

void SessionEndpoint::unlink_ready(Flow& flow) {
  if (!flow.in_ready) return;
  if (flow.ready_prev != nullptr) {
    flow.ready_prev->ready_next = flow.ready_next;
  } else {
    ready_head_ = flow.ready_next;
  }
  if (flow.ready_next != nullptr) {
    flow.ready_next->ready_prev = flow.ready_prev;
  } else {
    ready_tail_ = flow.ready_prev;
  }
  flow.ready_prev = flow.ready_next = nullptr;
  flow.in_ready = false;
}

void SessionEndpoint::push_report(Flow& flow) {
  if (flow.in_report) return;
  flow.in_report = true;
  flow.report_prev = report_tail_;
  flow.report_next = nullptr;
  if (report_tail_ != nullptr) {
    report_tail_->report_next = &flow;
  } else {
    report_head_ = &flow;
  }
  report_tail_ = &flow;
}

void SessionEndpoint::unlink_report(Flow& flow) {
  if (!flow.in_report) return;
  if (flow.report_prev != nullptr) {
    flow.report_prev->report_next = flow.report_next;
  } else {
    report_head_ = flow.report_next;
  }
  if (flow.report_next != nullptr) {
    flow.report_next->report_prev = flow.report_prev;
  } else {
    report_tail_ = flow.report_prev;
  }
  flow.report_prev = flow.report_next = nullptr;
  flow.in_report = false;
}

void SessionEndpoint::pump(std::int64_t now) {
  std::size_t budget = config_.limits.max_dispatch_per_pump;
  while (ready_head_ != nullptr && budget > 0) {
    // Pool backpressure: a dispatch fans out to at most one share per
    // channel; without headroom, leave packets queued (flows stay on
    // the ready list) and let departures free slots.
    if (pool_->available() < channels_.size()) {
      ++stats_.pool_defers;
      return;
    }
    view_scratch_.resize(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      view_scratch_[i] = {channels_[i]->ready(now),
                          channels_[i]->backlog_ns(now)};
    }
    Flow& flow = *ready_head_;
    const auto decision = flow.scheduler.next(view_scratch_);
    if (!decision) {
      // DynamicScheduler defers only when no channel is writable — a
      // condition shared by every flow, so stop the round entirely.
      ++stats_.schedule_defers;
      return;
    }
    std::vector<std::uint8_t> payload = std::move(flow.queue.front());
    flow.queue.pop_front();
    // Round-robin fairness: one packet per turn, then to the tail.
    unlink_ready(flow);
    if (!flow.queue.empty()) push_ready(flow);
    dispatch(flow, std::move(payload), *decision, now);
    --budget;
  }
}

void SessionEndpoint::dispatch(Flow& flow, std::vector<std::uint8_t> payload,
                               const proto::ShareDecision& decision,
                               std::int64_t now) {
  const int m = static_cast<int>(decision.channels.size());
  const int k = decision.k;
  MCSS_INVARIANT(k >= 1 && k <= m, "scheduler produced invalid (k, m)");

  const std::uint64_t id = flow.next_packet_id++;
  ++flow.sender_stats.packets_sent;
  flow.sender_stats.sum_k += k;
  flow.sender_stats.sum_m += m;
  ++stats_.packets_sent;
  flow.sent_at_ns[id] = now;
  flow.sent_order.push_back({id, now});
  // Amortized stamp pruning: forget sends the flow's receiver can no
  // longer deliver, so a lossy flow's join map stays bounded.
  const std::int64_t horizon =
      now - 4 * std::max<std::int64_t>(config_.receiver.reassembly_timeout, 1);
  while (!flow.sent_order.empty() && flow.sent_order.front().second < horizon) {
    flow.sent_at_ns.erase(flow.sent_order.front().first);
    flow.sent_order.pop_front();
  }
  if (flow.manager) {
    flow.manager->on_packet_sent(id, k, payload, decision.channels, now);
    arm_rto(flow, now);
  }

  // Same split-into-slot fast path as LiveEndpoint::dispatch, with the
  // flow's connection id in every header. Falls back to the vector path
  // when the pool cannot cover the fan-out or a frame outgrows a slot.
  const bool keyed = config_.auth_key.has_value();
  const std::size_t need =
      proto::encoded_size(payload.size(), 0, keyed, flow.cid);
  bool fast = need <= pool_->slot_bytes();
  if (fast) {
    tx_slots_.clear();
    tx_spans_.clear();
    tx_frames_.clear();
    for (int j = 0; j < m; ++j) {
      transport::FrameRef slot = pool_->acquire();
      if (!slot) {
        fast = false;
        tx_slots_.clear();
        tx_spans_.clear();
        tx_frames_.clear();
        break;
      }
      slot.resize(need);
      proto::FrameMeta meta;
      meta.packet_id = id;
      meta.k = static_cast<std::uint8_t>(k);
      meta.share_index = static_cast<std::uint8_t>(j + 1);
      meta.connection_id = flow.cid;
      const std::size_t off =
          proto::encode_header_into(meta, payload.size(), slot.span(), keyed);
      tx_spans_.push_back(slot.span().subspan(off, payload.size()));
      tx_frames_.push_back(slot.span());
      tx_slots_.push_back(std::move(slot));
    }
  }
  if (fast) {
    sss::split_into(payload, k, tx_spans_, split_scratch_, rng_);
    if (keyed) proto::seal_frames(tx_frames_, *config_.auth_key);
    for (int j = 0; j < m; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      const auto ch = static_cast<std::size_t>(decision.channels[idx]);
      ++flow.sender_stats.shares_sent;
      if (!channels_[ch]->try_send(std::move(tx_slots_[idx]), now)) {
        ++flow.sender_stats.shares_dropped_at_channel;
      }
    }
    tx_slots_.clear();
    tx_spans_.clear();
    tx_frames_.clear();
    return;
  }

  auto shares = sss::split(payload, k, m, rng_);
  const crypto::SipHashKey* key =
      config_.auth_key ? &*config_.auth_key : nullptr;
  for (int j = 0; j < m; ++j) {
    proto::ShareFrame frame;
    frame.packet_id = id;
    frame.k = static_cast<std::uint8_t>(k);
    frame.share_index = shares[static_cast<std::size_t>(j)].index;
    frame.connection_id = flow.cid;
    frame.payload = std::move(shares[static_cast<std::size_t>(j)].data);
    const auto ch = static_cast<std::size_t>(
        decision.channels[static_cast<std::size_t>(j)]);
    ++flow.sender_stats.shares_sent;
    const std::size_t frame_need = proto::encoded_size(frame, keyed);
    if (frame_need > pool_->slot_bytes()) {
      ++stats_.pool_oversize_drops;
      ++flow.sender_stats.shares_dropped_at_channel;
      continue;
    }
    transport::FrameRef slot = pool_->acquire();
    if (!slot) {
      ++flow.sender_stats.shares_dropped_at_channel;
      continue;
    }
    slot.resize(frame_need);
    proto::encode_into(frame, slot.span(), key);
    if (!channels_[ch]->try_send(std::move(slot), now)) {
      ++flow.sender_stats.shares_dropped_at_channel;
    }
  }
}

void SessionEndpoint::resend(std::uint32_t cid, std::uint64_t id,
                             std::uint8_t generation,
                             const std::vector<std::uint8_t>& payload, int k) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return;
  Flow& flow = *it->second;
  const std::int64_t now = now_ns();
  const int n = static_cast<int>(channels_.size());
  const int m = std::min(n, k + config_.reliability.retransmit_extra);
  const std::uint32_t exposure = flow.manager->exposure_mask(id).value_or(0);

  // Privacy-aware channel choice, as LiveEndpoint::resend: channels the
  // adversary model already counts as exposed first, then by index.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const bool ea = (exposure >> a) & 1u;
    const bool eb = (exposure >> b) & 1u;
    if (ea != eb) return ea;
    return a < b;
  });
  order.resize(static_cast<std::size_t>(m));

  ++flow.sender_stats.packets_retransmitted;
  const bool keyed = config_.auth_key.has_value();
  const crypto::SipHashKey* key =
      config_.auth_key ? &*config_.auth_key : nullptr;
  auto shares = sss::split(payload, k, m, rng_);
  for (int j = 0; j < m; ++j) {
    proto::ShareFrame frame;
    frame.packet_id = id;
    frame.k = static_cast<std::uint8_t>(k);
    frame.share_index = shares[static_cast<std::size_t>(j)].index;
    frame.generation = generation;
    frame.connection_id = cid;
    frame.payload = std::move(shares[static_cast<std::size_t>(j)].data);
    const auto ch =
        static_cast<std::size_t>(order[static_cast<std::size_t>(j)]);
    ++flow.sender_stats.shares_retransmitted;
    const std::size_t need = proto::encoded_size(frame, keyed);
    if (need > pool_->slot_bytes()) {
      ++stats_.pool_oversize_drops;
      ++flow.sender_stats.shares_dropped_at_channel;
      continue;
    }
    transport::FrameRef slot = pool_->acquire();
    if (!slot) {
      ++flow.sender_stats.shares_dropped_at_channel;
      continue;
    }
    slot.resize(need);
    proto::encode_into(frame, slot.span(), key);
    if (!channels_[ch]->try_send(std::move(slot), now)) {
      ++flow.sender_stats.shares_dropped_at_channel;
    }
  }
  flow.manager->note_exposure(id, order);
}

void SessionEndpoint::arm_rto(Flow& flow, std::int64_t now) {
  const auto deadline = flow.manager->next_deadline();
  if (!deadline) {
    if (flow.rto_timer != transport::TimerWheel::kNoTimer) {
      wheel_.cancel(flow.rto_timer);
      flow.rto_timer = transport::TimerWheel::kNoTimer;
    }
    return;
  }
  const std::int64_t when = std::max<std::int64_t>(*deadline, now);
  if (flow.rto_timer != transport::TimerWheel::kNoTimer) {
    if (flow.rto_deadline <= when) return;  // armed early enough already
    wheel_.cancel(flow.rto_timer);
  }
  flow.rto_deadline = when;
  const std::uint32_t cid = flow.cid;
  // The callback captures the id, never the Flow: cancel-on-close is the
  // designed teardown path, and the table lookup makes a missed cancel a
  // no-op instead of a use-after-free.
  flow.rto_timer = wheel_.schedule_at(when, [this, cid] {
    const auto it = flows_.find(cid);
    if (it == flows_.end()) return;
    Flow& f = *it->second;
    f.rto_timer = transport::TimerWheel::kNoTimer;
    const std::int64_t fire_now = now_ns();
    f.manager->advance(fire_now);
    fold_closed(f);
    arm_rto(f, fire_now);
  });
}

void SessionEndpoint::on_share_frame(std::size_t channel,
                                     std::span<const std::uint8_t> frame) {
  sync_timeline(now_ns());
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  // Framing-only peek (no key): route on the connection id, then let the
  // owning flow's receiver do its own (keyed) decode and accounting.
  const auto view = proto::decode_view(frame, nullptr, &status);
  if (!view) {
    ++stats_.frames_undecodable;
    return;
  }
  if (view->connection_id == 0) {
    // The single-flow encoding has no owner here; a session endpoint
    // drops it rather than guess (pre-session peers need LiveEndpoint).
    ++stats_.frames_without_connection;
    return;
  }
  const auto it = flows_.find(view->connection_id);
  if (it == flows_.end()) {
    // Late shares of a closed flow, or a forged/unknown id.
    ++stats_.frames_unknown_connection;
    return;
  }
  Flow& flow = *it->second;
  if (flow.builder) flow.builder->on_channel_frame(channel, true);
  ++stats_.frames_demuxed;
  flow.receiver.on_frame(frame);
}

void SessionEndpoint::on_delivered(std::uint32_t cid, std::uint64_t id,
                                   std::vector<std::uint8_t> payload) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return;
  Flow& flow = *it->second;
  const auto sent = flow.sent_at_ns.find(id);
  if (sent != flow.sent_at_ns.end()) {
    const double delay_s = net::to_seconds(now_ns() - sent->second);
    delay_.add(delay_s);
    if (obs::metrics_enabled()) {
      obs::Registry& registry = obs::Registry::global();
      static const obs::HistogramId delay_id = registry.histogram(
          "mcss_session_e2e_delay_seconds", obs::exp_bounds(1e-4, 2.0, 20));
      registry.observe(delay_id, delay_s);
    }
    flow.sent_at_ns.erase(sent);
  }
  ++stats_.packets_delivered;
  if (flow.builder) {
    flow.builder->on_delivered(id, now_ns());
    push_report(flow);
  }
  if (deliver_) deliver_(cid, id, std::move(payload));
}

void SessionEndpoint::emit_reports() {
  const std::int64_t now = now_ns();
  report_datagram_.clear();
  // Only flows with deliveries since the last report are on the list;
  // idle flows cost nothing. Several flows' reports coalesce into each
  // feedback datagram (the report codec's decode_prefix contract).
  while (report_head_ != nullptr) {
    Flow& flow = *report_head_;
    unlink_report(flow);
    feedback::ReceiverReport report = flow.builder->build(now);
    report.connection_id = flow.cid;
    const auto bytes = feedback::encode_report(
        report, config_.reliability.report_auth_key
                    ? &*config_.reliability.report_auth_key
                    : nullptr);
    if (!report_datagram_.empty() &&
        report_datagram_.size() + bytes.size() > config_.max_datagram_bytes) {
      ++stats_.report_datagrams_sent;
      if (!feedback_ch_->try_send(
              std::span<const std::uint8_t>(report_datagram_), now)) {
        ++stats_.reports_dropped_at_channel;
      }
      report_datagram_.clear();
    }
    report_datagram_.insert(report_datagram_.end(), bytes.begin(),
                            bytes.end());
    ++stats_.reports_sent;
  }
  if (!report_datagram_.empty()) {
    ++stats_.report_datagrams_sent;
    if (!feedback_ch_->try_send(std::span<const std::uint8_t>(report_datagram_),
                                now)) {
      ++stats_.reports_dropped_at_channel;
    }
    report_datagram_.clear();
  }
  wheel_.schedule_at(now + config_.reliability.report_interval_ns,
                     [this] { emit_reports(); });
}

void SessionEndpoint::on_feedback_datagram(
    std::span<const std::uint8_t> datagram, std::int64_t now) {
  const crypto::SipHashKey* key = config_.reliability.report_auth_key
                                      ? &*config_.reliability.report_auth_key
                                      : nullptr;
  std::span<const std::uint8_t> rest = datagram;
  while (!rest.empty()) {
    std::size_t consumed = 0;
    proto::DecodeStatus status = proto::DecodeStatus::Ok;
    const auto report = feedback::decode_report_prefix(rest, &consumed, key,
                                                       &status);
    if (!report) {
      // A malformed head has no resynchronization point; drop the rest.
      if (status == proto::DecodeStatus::AuthFailed) {
        ++stats_.reports_auth_failed;
      } else {
        ++stats_.reports_malformed;
      }
      return;
    }
    rest = rest.subspan(consumed);
    if (report->connection_id == 0) {
      ++stats_.reports_without_connection;
      continue;
    }
    const auto it = flows_.find(report->connection_id);
    if (it == flows_.end()) {
      ++stats_.reports_unknown_connection;
      continue;
    }
    Flow& flow = *it->second;
    if (!flow.manager) continue;
    // The demux is the cross-flow safety property: this report reaches
    // ONLY its own flow's manager, so its SACK bits can never ack (and
    // its generations never supersede) another flow's packet ids.
    flow.manager->on_report(*report, now);
    ++stats_.reports_demuxed;
    fold_closed(flow);
    arm_rto(flow, now);
  }
}

void SessionEndpoint::update_write_interest() {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const bool want = channels_[i]->wants_write();
    if (want != write_interest_[i]) {
      poller_.modify(channels_[i]->tx_fd(), /*want_read=*/false,
                     /*want_write=*/want);
      write_interest_[i] = want;
    }
  }
  if (feedback_ch_) {
    const bool want = feedback_ch_->wants_write();
    if (want != feedback_write_interest_) {
      poller_.modify(feedback_ch_->tx_fd(), /*want_read=*/false,
                     /*want_write=*/want);
      feedback_write_interest_ = want;
    }
  }
}

int SessionEndpoint::poll_timeout_ms(std::int64_t now,
                                     std::int64_t deadline) const {
  std::int64_t until = deadline - now;
  if (const auto next = wheel_.next_deadline()) {
    until = std::min(until, *next - now);
  }
  until = std::max<std::int64_t>(until, 0);
  const std::int64_t ms = (until + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::int64_t>(ms, 100));
}

void SessionEndpoint::run_for(std::int64_t wall_ns) {
  MCSS_ENSURE(wall_ns >= 0, "run_for needs a nonnegative duration");
  const std::int64_t deadline = now_ns() + wall_ns;
  for (;;) {
    const std::int64_t now = now_ns();
    sync_timeline(now);
    // Per-flow RTO timers live on the wheel, so this advance is the ONLY
    // retransmission driver — no per-flow manager scan anywhere.
    wheel_.advance(now);
    pump(now);
    for (const auto& ch : channels_) ch->flush(now);
    if (feedback_ch_) feedback_ch_->flush(now);
    update_write_interest();
    if (telemetry_) {
      telemetry_->poll(now_ns());
      telemetry_->health().on_pump(now_ns() - now);
    }
    if (now >= deadline) break;

    const int timeout_ms = poll_timeout_ms(now, deadline);
    const std::int64_t wait_start = telemetry_ ? now_ns() : 0;
    poller_.wait(timeout_ms, events_);
    if (telemetry_) {
      telemetry_->health().on_wait(timeout_ms, now_ns() - wait_start);
    }
    for (const transport::Poller::Event& ev : events_) {
      const auto it = fd_to_channel_.find(ev.fd);
      if (it == fd_to_channel_.end()) {
        if (telemetry_) {
          telemetry_->on_poller_event(ev.fd, ev.readable || ev.error,
                                      ev.writable || ev.error);
        }
        continue;
      }
      transport::UdpChannel& ch = it->second < channels_.size()
                                      ? *channels_[it->second]
                                      : *feedback_ch_;
      if (ev.fd == ch.rx_fd() && (ev.readable || ev.error)) {
        ch.on_readable();
      }
      if (ev.fd == ch.tx_fd() && (ev.writable || ev.error)) {
        ch.on_writable(now_ns());
      }
    }
  }
}

const proto::Receiver* SessionEndpoint::flow_receiver(
    std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? &it->second->receiver : nullptr;
}

feedback::RetransmitManager* SessionEndpoint::flow_manager(std::uint32_t cid) {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? it->second->manager.get() : nullptr;
}

std::size_t SessionEndpoint::flow_queued_packets(std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? it->second->queue.size() : 0;
}

const proto::SenderStats* SessionEndpoint::flow_sender_stats(
    std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? &it->second->sender_stats : nullptr;
}

void SessionEndpoint::fold_closed(Flow& flow) {
  if (!telemetry_ || !flow.manager) return;
  const auto closed = flow.manager->drain_closed();
  if (closed.empty()) return;
  closed_scratch_.clear();
  closed_scratch_.reserve(closed.size());
  for (const feedback::ClosedPacket& packet : closed) {
    closed_scratch_.push_back({packet.k, packet.initial_mask,
                               packet.exposure_mask, packet.retransmits,
                               packet.acked, packet.initial_link_mask,
                               packet.link_exposure_mask});
  }
  telemetry_->privacy().on_closed(closed_scratch_);
}

bool SessionEndpoint::probe_flow(std::uint32_t cid,
                                 obs::runtime::FlowSample& out) const {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;  // closed since collection
  const Flow& flow = *it->second;
  out.cid = cid;
  out.queued_packets = flow.queue.size();
  out.receiver_bytes = flow.receiver.buffered_bytes();
  out.packets_sent = flow.sender_stats.packets_sent;
  out.packets_delivered = flow.receiver.stats().packets_delivered;
  if (flow.manager) {
    out.outstanding = flow.manager->outstanding();
    out.rto_ns = flow.manager->current_rto_ns();
    out.retransmits = flow.manager->stats().retransmits;
    out.exposure_width = flow.manager->widest_exposure();
  }
  return true;
}

void SessionEndpoint::publish_runtime_metrics(obs::Registry& registry) const {
  // O(1) in flows: session-level counters as deltas plus cheap gauges.
  // The O(flows) per-flow aggregation stays in publish_metrics (the
  // end-of-run hook) — a 250 ms sampler must not walk 100k flows twice.
  const auto add = [&](std::string_view name, std::uint64_t value) {
    counter_deltas_.add_total(registry, name, value);
  };
  add("mcss_session_flows_opened", stats_.flows_opened);
  add("mcss_session_flows_closed", stats_.flows_closed);
  add("mcss_session_packets_sent", stats_.packets_sent);
  add("mcss_session_packets_delivered", stats_.packets_delivered);
  add("mcss_session_queue_rejects", stats_.queue_rejects);
  add("mcss_session_reports_sent", stats_.reports_sent);
  add("mcss_session_reports_demuxed", stats_.reports_demuxed);
  add("mcss_session_pool_defers", stats_.pool_defers);
  add("mcss_session_schedule_defers", stats_.schedule_defers);
  registry.set(registry.gauge("mcss_session_flows_open"),
               static_cast<double>(flows_.size()));
  registry.set(registry.gauge("mcss_session_admitted_bytes_per_s"),
               admitted_bytes_per_s_);
  registry.set(registry.gauge("mcss_session_budget_bytes_per_s"),
               budget_bytes_per_s_);
  if (telemetry_) {
    telemetry_->health().set_pool_occupancy(pool_->in_use(),
                                            pool_->capacity());
    // Fold batches skip the gauge stores (too hot); refresh them here
    // at sample cadence instead.
    telemetry_->privacy().publish_gauges();
  }
}

void SessionEndpoint::publish_metrics(obs::Registry& registry) const {
  // Delta-tracked adds: when the periodic sampler already published
  // these series mid-run, only the remainder lands here and the
  // registry converges to the exact totals.
  const auto add = [&](std::string_view name, std::uint64_t value) {
    counter_deltas_.add_total(registry, name, value);
  };
  add("mcss_session_flows_opened", stats_.flows_opened);
  add("mcss_session_flows_closed", stats_.flows_closed);
  add("mcss_session_flows_rejected_rate", stats_.flows_rejected_rate);
  add("mcss_session_flows_rejected_capacity", stats_.flows_rejected_capacity);
  add("mcss_session_packets_sent", stats_.packets_sent);
  add("mcss_session_packets_delivered", stats_.packets_delivered);
  add("mcss_session_queue_rejects", stats_.queue_rejects);
  add("mcss_session_frames_demuxed", stats_.frames_demuxed);
  add("mcss_session_frames_undecodable", stats_.frames_undecodable);
  add("mcss_session_frames_without_connection",
      stats_.frames_without_connection);
  add("mcss_session_frames_unknown_connection",
      stats_.frames_unknown_connection);
  add("mcss_session_reports_sent", stats_.reports_sent);
  add("mcss_session_report_datagrams_sent", stats_.report_datagrams_sent);
  add("mcss_session_reports_dropped_at_channel",
      stats_.reports_dropped_at_channel);
  add("mcss_session_reports_demuxed", stats_.reports_demuxed);
  add("mcss_session_reports_malformed", stats_.reports_malformed);
  add("mcss_session_reports_auth_failed", stats_.reports_auth_failed);
  add("mcss_session_reports_without_connection",
      stats_.reports_without_connection);
  add("mcss_session_reports_unknown_connection",
      stats_.reports_unknown_connection);
  add("mcss_session_pool_defers", stats_.pool_defers);
  add("mcss_session_schedule_defers", stats_.schedule_defers);
  add("mcss_session_pool_oversize_drops", stats_.pool_oversize_drops);
  registry.set(registry.gauge("mcss_session_flows_open"),
               static_cast<double>(flows_.size()));
  registry.set(registry.gauge("mcss_session_admitted_bytes_per_s"),
               admitted_bytes_per_s_);
  registry.set(registry.gauge("mcss_session_budget_bytes_per_s"),
               budget_bytes_per_s_);

  // Aggregate the per-flow protocol counters (flows are too many to
  // publish individually) plus the shared substrate, mirroring
  // LiveEndpoint::publish_metrics.
  proto::SenderStats sender_total;
  proto::ReceiverStats receiver_total;
  for (const auto& [cid, flow] : flows_) {
    (void)cid;
    const proto::SenderStats& s = flow->sender_stats;
    sender_total.packets_offered += s.packets_offered;
    sender_total.packets_rejected += s.packets_rejected;
    sender_total.packets_sent += s.packets_sent;
    sender_total.packets_retransmitted += s.packets_retransmitted;
    sender_total.shares_sent += s.shares_sent;
    sender_total.shares_retransmitted += s.shares_retransmitted;
    sender_total.shares_dropped_at_channel += s.shares_dropped_at_channel;
    sender_total.sum_k += s.sum_k;
    sender_total.sum_m += s.sum_m;
    const proto::ReceiverStats& r = flow->receiver.stats();
    receiver_total.frames_received += r.frames_received;
    receiver_total.malformed_frames += r.malformed_frames;
    receiver_total.auth_failures += r.auth_failures;
    receiver_total.duplicate_shares += r.duplicate_shares;
    receiver_total.late_shares += r.late_shares;
    receiver_total.conflicting_metadata += r.conflicting_metadata;
    receiver_total.packets_delivered += r.packets_delivered;
    receiver_total.bytes_delivered += r.bytes_delivered;
    receiver_total.packets_evicted_timeout += r.packets_evicted_timeout;
    receiver_total.packets_evicted_memory += r.packets_evicted_memory;
    receiver_total.shares_dropped_memory += r.shares_dropped_memory;
    receiver_total.stale_generation_shares += r.stale_generation_shares;
    receiver_total.partials_superseded += r.partials_superseded;
    receiver_total.partials_in_arena += r.partials_in_arena;
    receiver_total.partials_on_heap += r.partials_on_heap;
  }
  proto::publish(registry, sender_total);
  proto::publish(registry, receiver_total);

  std::vector<const transport::UdpChannel*> all_channels;
  all_channels.reserve(channels_.size() + 1);
  for (const auto& ch : channels_) all_channels.push_back(ch.get());
  if (feedback_ch_) all_channels.push_back(feedback_ch_.get());
  for (const transport::UdpChannel* ch : all_channels) {
    net::publish(registry, ch->impair_stats());
  }

  const transport::FramePool::Stats& ps = pool_->stats();
  add("mcss_session_pool_acquired", ps.acquired);
  add("mcss_session_pool_exhausted", ps.exhausted);
  registry.set(registry.gauge("mcss_session_pool_high_water"),
               static_cast<double>(ps.high_water));
  registry.set(registry.gauge("mcss_session_pool_slots"),
               static_cast<double>(pool_->capacity()));
}

}  // namespace mcss::session
