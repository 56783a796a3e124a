#include "protocol/receiver.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {

namespace {

/// Sim-time from a packet's first share arriving to its k-th (the
/// reassembly wait). Invalid while metrics are disabled.
obs::HistogramId reassembly_wait_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram(
      "mcss_receiver_reassembly_wait_seconds", obs::exp_bounds(1e-6, 2.0, 24));
}

/// Wall-clock cost of one Shamir reconstruction.
obs::HistogramId reconstruct_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram(
      "mcss_receiver_reconstruct_seconds", obs::exp_bounds(1e-8, 4.0, 16));
}

}  // namespace

void publish(obs::Registry& registry, const ReceiverStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_receiver_frames_received", stats.frames_received);
  add("mcss_receiver_malformed_frames", stats.malformed_frames);
  add("mcss_receiver_auth_failures", stats.auth_failures);
  add("mcss_receiver_duplicate_shares", stats.duplicate_shares);
  add("mcss_receiver_late_shares", stats.late_shares);
  add("mcss_receiver_conflicting_metadata", stats.conflicting_metadata);
  add("mcss_receiver_packets_delivered", stats.packets_delivered);
  add("mcss_receiver_bytes_delivered", stats.bytes_delivered);
  add("mcss_receiver_packets_evicted_timeout", stats.packets_evicted_timeout);
  add("mcss_receiver_packets_evicted_memory", stats.packets_evicted_memory);
  add("mcss_receiver_shares_dropped_memory", stats.shares_dropped_memory);
  add("mcss_receiver_stale_generation_shares", stats.stale_generation_shares);
  add("mcss_receiver_partials_superseded", stats.partials_superseded);
  add("mcss_receiver_partials_in_arena", stats.partials_in_arena);
  add("mcss_receiver_partials_on_heap", stats.partials_on_heap);
}

void Receiver::publish_metrics(obs::Registry& registry) const {
  publish(registry, stats_);
}

Receiver::Receiver(net::Simulator& sim, ReceiverConfig config,
                   net::CpuModel* cpu)
    : sim_(sim), config_(config), cpu_(cpu) {
  MCSS_ENSURE(config_.reassembly_timeout > 0, "timeout must be positive");
  MCSS_ENSURE(config_.memory_limit_bytes > 0, "memory limit must be positive");
}

Receiver::~Receiver() {
  // Timers this receiver parked in the (possibly shared, longer-lived)
  // simulator hold the token, check it, and stand down.
  *alive_ = false;
}

void Receiver::set_arena(util::FramePool* arena) {
  MCSS_ENSURE(partials_.empty(),
              "set_arena requires no pending partials (storage layouts "
              "would mix)");
  config_.arena = arena;
}

void Receiver::attach(net::ChannelPort& channel) {
  channel.set_receiver([this](std::vector<std::uint8_t> f) {
    on_frame(std::move(f));
  });
}

void Receiver::on_frames(
    std::span<const std::span<const std::uint8_t>> frames) {
  const crypto::SipHashKey* key =
      config_.auth_key ? &*config_.auth_key : nullptr;
  // Tags are hashed one window ahead of the decodes that use them; the
  // frames' bytes do not change in between.
  std::optional<std::uint64_t> tags[kTagBatch];
  for (std::size_t base = 0; base < frames.size(); base += kTagBatch) {
    const auto window =
        frames.subspan(base, std::min(kTagBatch, frames.size() - base));
    if (key != nullptr) body_tags(window, *key, {tags, window.size()});
    for (std::size_t i = 0; i < window.size(); ++i) {
      on_frame_tagged(window[i], tags[i]);
    }
  }
}

void Receiver::on_frame_tagged(std::span<const std::uint8_t> raw,
                               std::optional<std::uint64_t> body_tag) {
  ++stats_.frames_received;
  DecodeStatus decode_status = DecodeStatus::Ok;
  // Zero-copy parse: the payload stays a span into `raw` and is copied
  // exactly once, straight into the partial's storage, on append.
  const auto frame =
      decode_view(raw, config_.auth_key ? &*config_.auth_key : nullptr,
                  &decode_status, body_tag);
  if (!frame) {
    if (decode_status == DecodeStatus::AuthFailed) {
      ++stats_.auth_failures;
    } else {
      ++stats_.malformed_frames;
    }
    return;
  }
  const std::uint64_t id = frame->packet_id;
  if (obs::trace_enabled()) {
    // Ends the span the sender opened when it enqueued this share.
    obs::Tracer::global().async_end(
        "share", "share", obs::share_span_id(id, frame->share_index),
        sim_.now());
  }
  if (completed_.contains(id)) {
    ++stats_.late_shares;
    return;
  }

  auto it = partials_.find(id);
  if (it == partials_.end()) {
    if (!make_room(frame->payload.size(), std::nullopt)) {
      ++stats_.shares_dropped_memory;
      return;
    }
    Partial partial;
    partial.k = frame->k;
    partial.generation = frame->generation;
    partial.share_size = frame->payload.size();
    partial.first_seen = sim_.now();
    it = partials_.emplace(id, std::move(partial)).first;
    init_storage(it->second);
    it->second.order_it = creation_order_.insert(creation_order_.end(), id);
    if (obs::trace_enabled()) {
      obs::Tracer::global().async_begin("reassembly", "receiver", id,
                                        sim_.now(), "k", frame->k);
    }
    arm_eviction_timer(id);
  }

  Partial& partial = it->second;
  if (frame->generation != partial.generation) {
    // RFC 1982 serial order on the 8-bit generation, so an ARQ session
    // surviving 255 re-splits wraps cleanly.
    const bool newer =
        static_cast<std::uint8_t>(frame->generation - partial.generation) <
        0x80;
    if (!newer) {
      ++stats_.stale_generation_shares;
      return;
    }
    // A retransmission re-split the packet: stored shares are from a
    // different random polynomial and can never combine with this one.
    // Restart the partial around the new generation, and give it a fresh
    // reassembly lease — with ARQ, a packet legitimately outlives one
    // reassembly timeout while retransmissions are still arriving (the
    // superseded timer finds first_seen moved and stands down).
    buffered_bytes_ -= partial.share_size * partial.count;
    partial.shares.clear();
    partial.slot.reset();
    partial.count = 0;
    partial.k = frame->k;
    partial.generation = frame->generation;
    partial.share_size = frame->payload.size();
    partial.first_seen = sim_.now();
    init_storage(partial);
    ++stats_.partials_superseded;
    arm_eviction_timer(id);
  }
  if (frame->k != partial.k || frame->payload.size() != partial.share_size) {
    ++stats_.conflicting_metadata;
    return;
  }
  if (has_share(partial, frame->share_index)) {
    ++stats_.duplicate_shares;
    return;
  }

  // The cap must hold for APPENDS too, not only for new partials — an
  // existing packet accumulating shares grows buffered_bytes_ all the
  // same. The partial being extended is never its own victim; if even
  // evicting everything else cannot fit the share, drop the share.
  if (!make_room(frame->payload.size(), id)) {
    ++stats_.shares_dropped_memory;
    return;
  }
  buffered_bytes_ += frame->payload.size();
  append_share(partial, frame->share_index, frame->payload);
  if (partial.count >= partial.k) {
    complete(id, partial);
  }
}

void Receiver::init_storage(Partial& partial) {
  // One arena slot holds the whole partial: k index bytes up front, then
  // k share regions of share_size each. Appends are then a byte write
  // plus a memcpy — no heap. Partials that cannot fit a slot (or find
  // the pool exhausted) degrade to per-share heap vectors.
  const std::size_t need =
      static_cast<std::size_t>(partial.k) * (1 + partial.share_size);
  if (config_.arena != nullptr && need <= config_.arena->slot_bytes()) {
    partial.slot = config_.arena->acquire();
  }
  if (partial.in_arena()) {
    partial.slot.resize(need);
    ++stats_.partials_in_arena;
  } else {
    partial.shares.reserve(partial.k);
    ++stats_.partials_on_heap;
  }
}

bool Receiver::has_share(const Partial& partial, std::uint8_t index) const {
  if (partial.in_arena()) {
    const std::uint8_t* indices = partial.slot.data();
    for (std::uint8_t i = 0; i < partial.count; ++i) {
      if (indices[i] == index) return true;
    }
    return false;
  }
  return std::any_of(
      partial.shares.begin(), partial.shares.end(),
      [index](const sss::Share& s) { return s.index == index; });
}

void Receiver::append_share(Partial& partial, std::uint8_t index,
                            std::span<const std::uint8_t> payload) {
  if (partial.in_arena()) {
    std::uint8_t* base = partial.slot.data();
    base[partial.count] = index;
    if (!payload.empty()) {
      std::memcpy(base + partial.k +
                      static_cast<std::size_t>(partial.count) *
                          partial.share_size,
                  payload.data(), payload.size());
    }
  } else {
    partial.shares.push_back(
        {index, std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
  ++partial.count;
}

void Receiver::arm_eviction_timer(std::uint64_t id) {
  // IP-reassembly-style timer: if the packet is still partial when it
  // fires, evict it. first_seen disambiguates both id reuse (never
  // happens with 64-bit ids) and generation supersedes that renewed the
  // lease after this timer was armed.
  // `alive` outlives the receiver (the simulator may be shared and
  // longer-lived — session-layer flows come and go); a timer surviving
  // its receiver stands down instead of touching freed state.
  sim_.schedule_in(config_.reassembly_timeout,
                   [this, alive = alive_, id, born = sim_.now()] {
                     if (!*alive) return;
                     auto p = partials_.find(id);
                     if (p != partials_.end() && p->second.first_seen == born) {
                       evict(id, &stats_.packets_evicted_timeout);
                     }
                   });
}

void Receiver::complete(std::uint64_t id, Partial& partial) {
  const net::SimTime now = sim_.now();
  if (obs::metrics_enabled()) {
    obs::Registry::global().observe(reassembly_wait_hist(),
                                    net::to_seconds(now - partial.first_seen));
  }

  std::vector<std::uint8_t> payload;
  {
    obs::ScopeTimer reconstruct_timer(reconstruct_hist());
    if (partial.in_arena()) {
      // Views straight into the arena slot; k <= 255 bounds the stack
      // array. complete() fires on the k-th append, so count == k.
      sss::ShareView views[255];
      const std::uint8_t* base = partial.slot.data();
      for (std::size_t i = 0; i < partial.k; ++i) {
        views[i] = {base[i],
                    {base + partial.k + i * partial.share_size,
                     partial.share_size}};
      }
      payload = sss::reconstruct_views(
          std::span<const sss::ShareView>(views, partial.k));
    } else {
      payload = sss::reconstruct_first_k(partial.shares, partial.k);
    }
  }

  net::SimTime done = now;
  if (cpu_ != nullptr) {
    done = cpu_->submit(cpu_->reconstruct_ops(partial.k));
  }
  if (obs::trace_enabled()) {
    obs::Tracer::global().async_end("reassembly", "receiver", id, now);
    // Sim-time reconstruction charge, then the end of the packet span
    // the sender opened at dispatch.
    obs::Tracer::global().complete("reconstruct", "receiver", now,
                                   std::max<net::SimTime>(0, done - now), id,
                                   "k", partial.k);
    obs::Tracer::global().async_end("packet", "packet", id, done);
  }
  ++stats_.packets_delivered;
  stats_.bytes_delivered += payload.size();
  if (deliver_) {
    if (done <= sim_.now()) {
      deliver_(id, std::move(payload));
    } else {
      sim_.schedule_at(
          done, [this, alive = alive_, id, p = std::move(payload)]() mutable {
            if (!*alive) return;
            deliver_(id, std::move(p));
          });
    }
  }

  buffered_bytes_ -= partial.share_size * partial.count;
  creation_order_.erase(partial.order_it);
  partials_.erase(id);
  remember_completed(id);
}

void Receiver::evict(std::uint64_t id, std::uint64_t* counter) {
  const auto it = partials_.find(id);
  MCSS_INVARIANT(it != partials_.end(), "evicting a packet that is not pending");
  buffered_bytes_ -= it->second.share_size * it->second.count;
  creation_order_.erase(it->second.order_it);
  partials_.erase(it);
  ++*counter;
  if (obs::trace_enabled()) {
    obs::Tracer::global().instant(counter == &stats_.packets_evicted_timeout
                                      ? "evict_timeout"
                                      : "evict_memory",
                                  "receiver", sim_.now(), id);
    obs::Tracer::global().async_end("reassembly", "receiver", id, sim_.now());
  }
}

bool Receiver::make_room(std::size_t incoming_bytes,
                         std::optional<std::uint64_t> exclude) {
  auto it = creation_order_.begin();
  while (buffered_bytes_ + incoming_bytes > config_.memory_limit_bytes &&
         it != creation_order_.end()) {
    const std::uint64_t victim = *it;
    ++it;  // advance before evict() unlinks the node behind us
    if (exclude && victim == *exclude) continue;
    evict(victim, &stats_.packets_evicted_memory);
  }
  return buffered_bytes_ + incoming_bytes <= config_.memory_limit_bytes;
}

void Receiver::remember_completed(std::uint64_t id) {
  completed_.insert(id);
  completed_order_.push_back(id);
  while (completed_order_.size() > config_.completed_history) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

}  // namespace mcss::proto
