#include "transport/live_endpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

std::uint16_t port_base_from_env(std::uint16_t fallback) {
  const char* env = std::getenv("MCSS_LIVE_PORT_BASE");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v > 65535) return fallback;
  return static_cast<std::uint16_t>(v);
}

std::size_t batch_from_env(std::size_t fallback) {
  const char* env = std::getenv("MCSS_LIVE_BATCH");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0 || v > 1024) return fallback;
  return static_cast<std::size_t>(v);
}

LiveEndpoint::LiveEndpoint(LiveConfig config)
    : config_(std::move(config)),
      epoch_ns_(monotonic_ns()),
      poller_(config_.poller_backend),
      rng_(config_.seed),
      receiver_(timeline_,
                [&]() {
                  // A keyed endpoint keys its receiver unless the caller
                  // already set a (possibly different) receiver key.
                  proto::ReceiverConfig rc = config_.receiver;
                  if (config_.auth_key && !rc.auth_key) {
                    rc.auth_key = config_.auth_key;
                  }
                  return rc;
                }()) {
  MCSS_ENSURE(!config_.channels.empty(), "live endpoint needs channels");
  MCSS_ENSURE(config_.channels.size() <= 32, "at most 32 channels");
  MCSS_ENSURE(config_.send_batch >= 1 && config_.recv_batch >= 1,
              "batch depths must be at least 1");
  if (config_.port_base != 0) {
    // Channel i binds port_base + i, plus one feedback lane when
    // reliability is on. uint16_t arithmetic would otherwise wrap
    // silently and bind a channel at a low port (or 0 = ephemeral).
    const std::size_t last_lane = config_.channels.size() -
                                  (config_.reliability.enabled ? 0 : 1);
    MCSS_ENSURE(static_cast<std::size_t>(config_.port_base) + last_lane <=
                    65535,
                "port_base + channels (and feedback lane) exceeds 65535: "
                "the port range would wrap");
  }

  // One arena for every channel: TX frames are encoded straight into
  // slots, RX pins recv_batch slots per channel. Auto-sizing leaves
  // ample slack for frames parked at the impairment serializer.
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
            : lanes * (config_.recv_batch + 4 * config_.send_batch) + 64;
    pool_ = std::make_unique<FramePool>(slot_bytes, slots);
  }
  // Reassembly partials share the arena too: small-k partials live in
  // slots, so steady-state RX appends never touch the heap.
  receiver_.set_arena(pool_.get());
  // On the uring backend, pre-register the arena with the ring
  // (IORING_REGISTER_BUFFERS) so the pages RX slots live in are pinned
  // once instead of per syscall; epoll/poll ignore this.
  poller_.register_buffers({pool_->arena_data(), pool_->arena_bytes()});

  scheduler_ = config_.scheduler
                   ? std::move(config_.scheduler)
                   : std::make_unique<proto::DynamicScheduler>(
                         config_.kappa, config_.mu,
                         static_cast<int>(config_.channels.size()));

  receiver_.set_deliver(
      [this](std::uint64_t id, std::vector<std::uint8_t> payload) {
        const auto it = sent_at_ns_.find(id);
        if (it != sent_at_ns_.end()) {
          delay_.add(net::to_seconds(now_ns() - it->second));
          sent_at_ns_.erase(it);
        }
        if (builder_) builder_->on_delivered(id, now_ns());
        if (deliver_) deliver_(id, std::move(payload));
      });

  channels_.reserve(config_.channels.size());
  write_interest_.assign(config_.channels.size(), false);
  for (std::size_t i = 0; i < config_.channels.size(); ++i) {
    const auto& spec = config_.channels[i];
    const std::uint16_t port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + i)
            : 0;
    auto ch = std::make_unique<UdpChannel>(
        spec.config, rng_.fork(), wheel_, *pool_, port, spec.name,
        config_.max_datagram_bytes, config_.send_batch, config_.recv_batch);
    ch->set_on_batch(
        [this, i](std::span<const std::span<const std::uint8_t>> frames) {
          // Keep the receiver's clock caught up before it stamps
          // first_seen.
          sync_timeline(now_ns());
          if (builder_) {
            // Classify for the per-channel report counters the way the
            // receiver will: a parseable head is a share frame, anything
            // else is an undecodable blob the channel mangled.
            for (const auto frame : frames) {
              builder_->on_channel_frame(
                  i, proto::frame_extent(frame).has_value());
            }
          }
          // Spans straight from the receive slots: the receiver verifies
          // the batch's tags together and copies only the share payloads
          // it retains.
          receiver_.on_frames(frames);
        });
    poller_.add(ch->rx_fd(), /*want_read=*/true, /*want_write=*/false);
    poller_.add(ch->tx_fd(), /*want_read=*/false, /*want_write=*/false);
    fd_to_channel_[ch->rx_fd()] = i;
    fd_to_channel_[ch->tx_fd()] = i;
    channels_.push_back(std::move(ch));
  }

  if (config_.reliability.enabled) {
    const std::size_t n = channels_.size();
    builder_.emplace(feedback::ReportBuilderConfig{
        .num_channels = n,
        .sack_window_words = config_.reliability.sack_window_words,
        .max_delay_samples = config_.reliability.max_delay_samples});
    manager_ = std::make_unique<feedback::RetransmitManager>(
        config_.reliability.retransmit, rng_.fork());
    manager_->set_retransmit([this](std::uint64_t id, std::uint8_t generation,
                                    const std::vector<std::uint8_t>& payload,
                                    int k) {
      resend(id, generation, payload, k);
    });

    // The feedback channel rides the same wheel/poller machinery as the
    // share channels; report datagrams fail share-frame parsing at the
    // channel, so they arrive whole via the unparsed-forward path.
    const std::uint16_t fb_port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + n)
            : 0;
    feedback_ch_ = std::make_unique<UdpChannel>(
        config_.reliability.feedback_channel, rng_.fork(), wheel_, *pool_,
        fb_port, "feedback", config_.max_datagram_bytes, config_.send_batch,
        config_.recv_batch);
    feedback_ch_->set_on_frame([this](std::span<const std::uint8_t> datagram) {
      manager_->on_report_datagram(datagram, now_ns(),
                                   config_.reliability.report_auth_key
                                       ? &*config_.reliability.report_auth_key
                                       : nullptr);
      fold_closed();
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
                       [this] { emit_report(); });
  }

  if (config_.telemetry.enabled) init_telemetry();
}

void LiveEndpoint::init_telemetry() {
  obs::runtime::RuntimeTelemetryConfig tcfg = config_.telemetry;
  if (tcfg.privacy.channel_risks.empty()) {
    // Uniform adversary prior (see SessionEndpoint::init_telemetry).
    tcfg.privacy.channel_risks.assign(channels_.size(), 0.1);
  }
  telemetry_ = std::make_unique<obs::runtime::RuntimeTelemetry>(tcfg);
  telemetry_->server().set_fd_hooks(
      [this](int fd, bool r, bool w) { poller_.add(fd, r, w); },
      [this](int fd, bool r, bool w) { poller_.modify(fd, r, w); },
      [this](int fd) { poller_.remove(fd); });
  // The single protocol pipeline shows up in /flows as pseudo-flow 0.
  telemetry_->sampler().set_flow_probes(
      [](std::vector<std::uint32_t>& out) {
        out.clear();
        out.push_back(0);
      },
      [this](std::uint32_t cid, obs::runtime::FlowSample& out) {
        out.cid = cid;
        out.queued_packets = queue_.size();
        out.receiver_bytes = receiver_.buffered_bytes();
        out.packets_sent = sender_stats_.packets_sent;
        out.packets_delivered = receiver_.stats().packets_delivered;
        if (manager_) {
          out.outstanding = manager_->outstanding();
          out.rto_ns = manager_->current_rto_ns();
          out.retransmits = manager_->stats().retransmits;
          out.exposure_width = manager_->widest_exposure();
        }
        return true;
      });
  telemetry_->sampler().set_publish([this](obs::Registry& registry) {
    registry.set(registry.gauge("mcss_live_queued_packets"),
                 static_cast<double>(queue_.size()));
    telemetry_->health().set_pool_occupancy(pool_->in_use(),
                                            pool_->capacity());
    telemetry_->privacy().publish_gauges();
  });
  arm_sampler_timer();
}

void LiveEndpoint::arm_sampler_timer() {
  // Wake-up only — run_for polls the sampler each iteration (see
  // SessionEndpoint::arm_sampler_timer for the cadence rationale).
  const std::int64_t now = now_ns();
  const std::int64_t due = telemetry_->sampler().sampling()
                               ? now + 1'000'000
                               : telemetry_->sampler().next_due_ns(now);
  wheel_.schedule_at(std::max(due, now + 1), [this] { arm_sampler_timer(); });
}

void LiveEndpoint::fold_closed() {
  if (!telemetry_ || !manager_) return;
  const auto closed = manager_->drain_closed();
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

std::int64_t LiveEndpoint::now_ns() const {
  return monotonic_ns() - epoch_ns_;
}

void LiveEndpoint::sync_timeline(std::int64_t now) {
  if (now > timeline_.now()) timeline_.run_until(now);
}

bool LiveEndpoint::send(std::vector<std::uint8_t> payload) {
  ++sender_stats_.packets_offered;
  MCSS_ENSURE(payload.size() <= proto::kMaxPayload,
              "packet exceeds maximum payload");
  if (queue_.size() >= config_.max_queue_packets) {
    ++sender_stats_.packets_rejected;
    return false;
  }
  queue_.push_back(std::move(payload));
  return true;
}

void LiveEndpoint::pump(std::int64_t now) {
  while (!queue_.empty()) {
    // Pool backpressure: one decision fans out to at most one share per
    // channel, each serialized straight into an arena slot that stays
    // live until the frame clears impairment and sendmmsg retires it.
    // Without headroom for that fan-out, park the packet in the send
    // queue instead of dispatching shares encode_and_send would have to
    // drop; departures free slots and the next pump resumes.
    if (pool_->available() < channels_.size()) {
      ++pool_defers_;
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("pool_defer", "sender", now, 0, "queued",
                                      queue_.size());
      }
      return;
    }
    view_scratch_.resize(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      view_scratch_[i] = {channels_[i]->ready(now),
                          channels_[i]->backlog_ns(now)};
    }
    const auto decision = scheduler_->next(view_scratch_);
    if (!decision) {
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("schedule_defer", "sender", now, 0,
                                      "queued", queue_.size());
      }
      return;  // wait for channels to drain
    }
    std::vector<std::uint8_t> payload = std::move(queue_.front());
    queue_.pop_front();
    dispatch(std::move(payload), *decision, now);
  }
}

void LiveEndpoint::dispatch(std::vector<std::uint8_t> payload,
                            const proto::ShareDecision& decision,
                            std::int64_t now) {
  const int m = static_cast<int>(decision.channels.size());
  const int k = decision.k;
  MCSS_INVARIANT(k >= 1 && k <= m, "scheduler produced invalid (k, m)");

  const std::uint64_t id = next_packet_id_++;
  ++sender_stats_.packets_sent;
  sender_stats_.sum_k += k;
  sender_stats_.sum_m += m;
  sent_at_ns_[id] = now;
  sent_order_.push_back({id, now});
  if (manager_) {
    manager_->on_packet_sent(id, k, payload, decision.channels, now);
  }

  if (obs::trace_enabled()) {
    obs::Tracer::global().async_begin("packet", "packet", id, now, "k",
                                      static_cast<std::uint64_t>(k), "m",
                                      static_cast<std::uint64_t>(m));
  }

  // Fast path: one arena slot per share, header written first, then
  // sss::split_into computes the share bytes STRAIGHT into the slots'
  // payload regions — no Share vectors, no per-share copy, nothing
  // allocated per packet after warmup. Falls back to the split()-based
  // path when the pool cannot cover the whole fan-out (the pump gate
  // makes that rare) or a frame would not fit a slot.
  const bool keyed = config_.auth_key.has_value();
  const std::size_t need = proto::encoded_size(payload.size(), 0, keyed);
  bool fast = need <= pool_->slot_bytes();
  if (fast) {
    tx_slots_.clear();
    tx_spans_.clear();
    tx_frames_.clear();
    for (int j = 0; j < m; ++j) {
      FrameRef slot = pool_->acquire();
      if (!slot) {
        fast = false;
        tx_slots_.clear();  // hand the acquired slots back
        tx_spans_.clear();
        tx_frames_.clear();
        break;
      }
      slot.resize(need);
      proto::FrameMeta meta;
      meta.packet_id = id;
      meta.k = static_cast<std::uint8_t>(k);
      meta.share_index = static_cast<std::uint8_t>(j + 1);
      const std::size_t off =
          proto::encode_header_into(meta, payload.size(), slot.span(), keyed);
      tx_spans_.push_back(slot.span().subspan(off, payload.size()));
      tx_frames_.push_back(slot.span());
      tx_slots_.push_back(std::move(slot));
    }
  }
  if (fast) {
    sss::split_into(payload, k, tx_spans_, split_scratch_, rng_);
    // All m frames have the same length: one multi-lane tag pass.
    if (keyed) proto::seal_frames(tx_frames_, *config_.auth_key);
    for (int j = 0; j < m; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      const auto ch_index =
          static_cast<std::size_t>(decision.channels[idx]);
      ++sender_stats_.shares_sent;
      if (obs::trace_enabled()) {
        obs::Tracer::global().async_begin(
            "share", "share",
            obs::share_span_id(id, static_cast<std::uint8_t>(j + 1)), now,
            "channel", ch_index);
      }
      if (!channels_[ch_index]->try_send(std::move(tx_slots_[idx]), now)) {
        ++sender_stats_.shares_dropped_at_channel;
        if (obs::trace_enabled()) {
          obs::Tracer::global().async_end(
              "share", "share",
              obs::share_span_id(id, static_cast<std::uint8_t>(j + 1)), now);
        }
      }
    }
    tx_slots_.clear();
    tx_spans_.clear();
    tx_frames_.clear();
    return;
  }

  auto shares = sss::split(payload, k, m, rng_);
  for (int j = 0; j < m; ++j) {
    proto::ShareFrame frame;
    frame.packet_id = id;
    frame.k = static_cast<std::uint8_t>(k);
    frame.share_index = shares[static_cast<std::size_t>(j)].index;
    frame.payload = std::move(shares[static_cast<std::size_t>(j)].data);
    const auto ch_index = static_cast<std::size_t>(
        decision.channels[static_cast<std::size_t>(j)]);
    ++sender_stats_.shares_sent;
    if (obs::trace_enabled()) {
      obs::Tracer::global().async_begin(
          "share", "share", obs::share_span_id(id, frame.share_index), now,
          "channel", ch_index);
    }
    if (!encode_and_send(frame, *channels_[ch_index], now)) {
      ++sender_stats_.shares_dropped_at_channel;
      if (obs::trace_enabled()) {
        obs::Tracer::global().async_end(
            "share", "share", obs::share_span_id(id, frame.share_index), now);
      }
    }
  }
}

bool LiveEndpoint::encode_and_send(const proto::ShareFrame& frame,
                                   UdpChannel& channel, std::int64_t now) {
  const crypto::SipHashKey* key =
      config_.auth_key ? &*config_.auth_key : nullptr;
  const std::size_t need = proto::encoded_size(frame, key != nullptr);
  if (need > pool_->slot_bytes()) {
    // A frame too large for the arena cannot travel the pooled path;
    // degrade is drop-with-stat (size the pool for your payloads).
    ++pool_oversize_drops_;
    return false;
  }
  FrameRef slot = pool_->acquire();
  if (!slot) return false;  // exhaustion already counted by the pool
  slot.resize(need);
  // Serialize once, straight into the arena — the frame's bytes are
  // never copied again until the kernel gathers them into a datagram.
  proto::encode_into(frame, slot.span(), key);
  return channel.try_send(std::move(slot), now);
}

void LiveEndpoint::update_write_interest() {
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

int LiveEndpoint::poll_timeout_ms(std::int64_t now,
                                  std::int64_t deadline) const {
  std::int64_t until = deadline - now;
  if (const auto next = wheel_.next_deadline()) {
    until = std::min(until, *next - now);
  }
  until = std::max<std::int64_t>(until, 0);
  // Round up so a 0.3 ms timer does not busy-poll, but cap the sleep so
  // the loop re-checks the wall deadline at a reasonable cadence.
  const std::int64_t ms = (until + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::int64_t>(ms, 100));
}

void LiveEndpoint::run_for(std::int64_t wall_ns) {
  MCSS_ENSURE(wall_ns >= 0, "run_for needs a nonnegative duration");
  const std::int64_t deadline = now_ns() + wall_ns;
  for (;;) {
    const std::int64_t now = now_ns();
    sync_timeline(now);
    wheel_.advance(now);
    if (manager_) {
      manager_->advance(now);
      fold_closed();
    }
    pump(now);
    // One flush per pump iteration: everything the wheel advance just
    // released (plus anything the transparent fast path handed over
    // during pump) leaves in a single sendmmsg per channel.
    for (const auto& ch : channels_) ch->flush(now);
    if (feedback_ch_) feedback_ch_->flush(now);
    update_write_interest();
    if (telemetry_) {
      telemetry_->poll(now_ns());
      telemetry_->health().on_pump(now_ns() - now);
    }
    if (now >= deadline) break;

    // RTO deadlines bound the sleep alongside the wheel and the wall
    // deadline, so a due retransmission never waits for traffic.
    std::int64_t wake = deadline;
    if (manager_) {
      if (const auto rto = manager_->next_deadline()) {
        wake = std::min(wake, *rto);
      }
    }
    const int timeout_ms = poll_timeout_ms(now, wake);
    const std::int64_t wait_start = telemetry_ ? now_ns() : 0;
    poller_.wait(timeout_ms, events_);
    if (telemetry_) {
      telemetry_->health().on_wait(timeout_ms, now_ns() - wait_start);
    }
    for (const Poller::Event& ev : events_) {
      const auto it = fd_to_channel_.find(ev.fd);
      if (it == fd_to_channel_.end()) {
        if (telemetry_) {
          telemetry_->on_poller_event(ev.fd, ev.readable || ev.error,
                                      ev.writable || ev.error);
        }
        continue;
      }
      UdpChannel& ch = it->second < channels_.size()
                           ? *channels_[it->second]
                           : *feedback_ch_;
      if (ev.fd == ch.rx_fd() && (ev.readable || ev.error)) {
        // POLLERR on the RX fd means a pending ICMP error; recv() drains
        // and counts it alongside any queued datagrams.
        ch.on_readable();
      }
      if (ev.fd == ch.tx_fd() && (ev.writable || ev.error)) {
        ch.on_writable(now_ns());
      }
    }
  }

  // Forget send timestamps nothing can deliver anymore (the receiver has
  // long evicted those partials), so a lossy run does not grow the map.
  const std::int64_t horizon =
      now_ns() - 4 * std::max<std::int64_t>(
                         config_.receiver.reassembly_timeout, 1);
  while (!sent_order_.empty() && sent_order_.front().second < horizon) {
    sent_at_ns_.erase(sent_order_.front().first);
    sent_order_.pop_front();
  }
}

void LiveEndpoint::emit_report() {
  const std::int64_t now = now_ns();
  auto report = builder_->build(now);
  auto bytes = feedback::encode_report(report,
                                       config_.reliability.report_auth_key
                                           ? &*config_.reliability.report_auth_key
                                           : nullptr);
  ++reports_sent_;
  if (!feedback_ch_->try_send(std::span<const std::uint8_t>(bytes), now)) {
    ++reports_dropped_at_channel_;
  }
  wheel_.schedule_at(now + config_.reliability.report_interval_ns,
                     [this] { emit_report(); });
}

void LiveEndpoint::resend(std::uint64_t id, std::uint8_t generation,
                          const std::vector<std::uint8_t>& payload, int k) {
  const std::int64_t now = now_ns();
  const int n = static_cast<int>(channels_.size());
  const int m = std::min(n, k + config_.reliability.retransmit_extra);
  const std::uint32_t exposure = manager_->exposure_mask(id).value_or(0);

  // Privacy-aware channel choice: already-exposed channels first (free
  // for the adversary model), then unexposed by index. The live config
  // has no per-channel risk estimate; index order is the deterministic
  // fallback, matching ReliableLink with an empty risk vector.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const bool ea = (exposure >> a) & 1u;
    const bool eb = (exposure >> b) & 1u;
    if (ea != eb) return ea;
    return a < b;
  });
  order.resize(static_cast<std::size_t>(m));

  ++sender_stats_.packets_retransmitted;
  if (obs::trace_enabled()) {
    obs::Tracer::global().instant("retransmit", "sender", now, id,
                                  "generation",
                                  static_cast<std::uint64_t>(generation), "m",
                                  static_cast<std::uint64_t>(m));
  }
  auto shares = sss::split(payload, k, m, rng_);
  for (int j = 0; j < m; ++j) {
    proto::ShareFrame frame;
    frame.packet_id = id;
    frame.k = static_cast<std::uint8_t>(k);
    frame.share_index = shares[static_cast<std::size_t>(j)].index;
    frame.generation = generation;
    frame.payload = std::move(shares[static_cast<std::size_t>(j)].data);
    const auto ch_index = static_cast<std::size_t>(order[static_cast<std::size_t>(j)]);
    ++sender_stats_.shares_retransmitted;
    if (!encode_and_send(frame, *channels_[ch_index], now)) {
      ++sender_stats_.shares_dropped_at_channel;
    }
  }
  manager_->note_exposure(id, order);
}

void LiveEndpoint::publish_metrics(obs::Registry& registry) const {
  proto::publish(registry, sender_stats_);
  scheduler_->publish_metrics(registry);
  receiver_.publish_metrics(registry);

  if (manager_) {
    feedback::publish(registry, manager_->stats());
    const auto add_fb = [&](std::string_view name, std::uint64_t value) {
      registry.add(registry.counter(name), value);
    };
    add_fb("mcss_live_reports_sent", reports_sent_);
    add_fb("mcss_live_reports_dropped_at_channel",
           reports_dropped_at_channel_);
  }

  UdpChannelStats sockets;
  std::uint64_t syscalls = poller_.wait_calls();
  std::vector<const UdpChannel*> all_channels;
  all_channels.reserve(channels_.size() + 1);
  for (const auto& ch : channels_) all_channels.push_back(ch.get());
  if (feedback_ch_) all_channels.push_back(feedback_ch_.get());
  for (const UdpChannel* ch : all_channels) {
    net::publish(registry, ch->impair_stats());
    const UdpChannelStats& s = ch->stats();
    sockets.datagrams_sent += s.datagrams_sent;
    sockets.datagrams_received += s.datagrams_received;
    sockets.bytes_sent += s.bytes_sent;
    sockets.bytes_received += s.bytes_received;
    sockets.frames_coalesced += s.frames_coalesced;
    sockets.send_wouldblock += s.send_wouldblock;
    sockets.send_retries += s.send_retries;
    sockets.send_refused += s.send_refused;
    sockets.send_errors += s.send_errors;
    sockets.sendmmsg_short += s.sendmmsg_short;
    sockets.recv_refused += s.recv_refused;
    sockets.recv_errors += s.recv_errors;
    sockets.recv_truncated += s.recv_truncated;
    sockets.frames_forwarded += s.frames_forwarded;
    sockets.unparsed_forwarded += s.unparsed_forwarded;
    sockets.frames_dropped_pool += s.frames_dropped_pool;
    syscalls += ch->syscalls_send() + ch->syscalls_recv();
  }
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_live_datagrams_sent", sockets.datagrams_sent);
  add("mcss_live_datagrams_received", sockets.datagrams_received);
  add("mcss_live_bytes_sent", sockets.bytes_sent);
  add("mcss_live_bytes_received", sockets.bytes_received);
  add("mcss_live_frames_coalesced", sockets.frames_coalesced);
  add("mcss_live_send_wouldblock", sockets.send_wouldblock);
  add("mcss_live_send_retries", sockets.send_retries);
  add("mcss_live_send_refused", sockets.send_refused);
  add("mcss_live_send_errors", sockets.send_errors);
  add("mcss_live_sendmmsg_short", sockets.sendmmsg_short);
  add("mcss_live_recv_refused", sockets.recv_refused);
  add("mcss_live_recv_errors", sockets.recv_errors);
  add("mcss_live_recv_truncated", sockets.recv_truncated);
  add("mcss_live_frames_forwarded", sockets.frames_forwarded);
  add("mcss_live_unparsed_forwarded", sockets.unparsed_forwarded);
  add("mcss_live_frames_dropped_pool", sockets.frames_dropped_pool);

  // The bench's syscalls_per_packet numerator: every kernel crossing the
  // transport makes — send/sendmmsg, recv/recvmmsg, and poller waits.
  add("mcss_transport_syscalls_total", syscalls);

  const FramePool::Stats& ps = pool_->stats();
  add("mcss_live_pool_acquired", ps.acquired);
  add("mcss_live_pool_exhausted", ps.exhausted);
  add("mcss_live_pool_oversize_drops", pool_oversize_drops_);
  add("mcss_live_pool_defers", pool_defers_);
  registry.set(registry.gauge("mcss_live_pool_high_water"),
               static_cast<double>(ps.high_water));
  registry.set(registry.gauge("mcss_live_pool_slots"),
               static_cast<double>(pool_->capacity()));
}

}  // namespace mcss::transport
