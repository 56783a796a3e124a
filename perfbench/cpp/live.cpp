// live_bulk and live_small: traffic through transport::LiveEndpoint over
// four clean loopback channels (kappa = 2, mu = 3).
//
// Untraced runs drive the endpoint itself. Traced runs drive it for half
// their live time, then drive the same traffic through a replay of its
// event loop built here from the public pieces the endpoint is made of
// (DynamicScheduler, sss::split_into, encode_header_into, seal_frame,
// UdpChannel, Poller, TimerWheel, Receiver), timing each call. The
// replay's goodput over the endpoint's is trace.replay_ratio: how well
// the replay represents the endpoint it breaks down. live_small's traced
// run spends only half its time on this and the rest on the session and
// psim layers (churn.cpp, psim.cpp).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/live_endpoint.hpp"
#include "transport/poller.hpp"
#include "transport/timer_wheel.hpp"
#include "transport/udp_channel.hpp"
#include "transport/wall_clock.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcss;

constexpr int kChannels = 4;
constexpr double kKappa = 2.0;
constexpr double kMu = 3.0;
/// The send queue holds about 0.65 s of live_small's offered load. When
/// the host pauses the process, the open loop offers every packet that
/// fell due meanwhile at once; with 1024 slots (20 ms of load) a pause
/// of a few tens of ms made the endpoint refuse sends, so `failed` came
/// and went with the host (0 or ~2 000 in 10 M across two 10-run sets).
constexpr std::size_t kMaxQueuePackets = 32768;
/// A packet not delivered this long after it was due is lost: twice the
/// receiver's 500 ms reassembly timeout, after which it cannot complete.
constexpr std::int64_t kExpiryNs = 1'000'000'000;

struct LiveShape {
  std::size_t payload_bytes = 0;
  bool auth = false;
  /// Closed loop: packets in flight. Open loop: 0.
  std::size_t window = 0;
  /// Open loop: offered packets per second. Closed loop: 0.
  double rate_pps = 0.0;
};

/// live_bulk: work scales with bytes (split, seal, reconstruct). The
/// window is sized for steadiness: with 256 in flight the endpoint's
/// arena ran out of slots, the loop idled on pool defers, and goodput
/// spread 0.10-0.22 of its median across seeds; 128 spread about 0.06.
constexpr LiveShape kBulk{1470, true, 128, 0.0};
/// live_small: fixed per-packet costs at a load well below one core.
constexpr LiveShape kSmall{128, false, 0, 50'000.0};

crypto::SipHashKey auth_key(std::uint64_t seed) {
  crypto::SipHashKey key{};
  Rng rng(seed ^ 0xA17Bu);
  rng.fill(key);
  return key;
}

transport::LiveConfig live_config(const LiveShape& shape, std::uint64_t seed) {
  transport::LiveConfig cfg;
  // Clean: rate high enough that the impairment shim stays transparent,
  // no loss, no delay. Traffic crosses loopback, not a real link.
  net::ChannelConfig clean;
  clean.rate_bps = 1e12;
  clean.loss = 0.0;
  clean.delay = 0;
  clean.queue_capacity_bytes = 4 * 1024 * 1024;
  for (int i = 0; i < kChannels; ++i) {
    cfg.channels.push_back({clean, "lane" + std::to_string(i)});
  }
  cfg.kappa = kKappa;
  cfg.mu = kMu;
  cfg.seed = seed;
  cfg.max_queue_packets = kMaxQueuePackets;
  if (shape.auth) cfg.auth_key = auth_key(seed);
  return cfg;
}

using DeliverFn = std::function<void(std::uint64_t, std::vector<std::uint8_t>)>;

/// What the traffic generators drive: the endpoint, or the replay.
class LiveDriver {
 public:
  virtual ~LiveDriver() = default;
  virtual bool send(std::vector<std::uint8_t> payload) = 0;
  virtual void run_for(std::int64_t wall_ns) = 0;
  [[nodiscard]] virtual std::int64_t now_ns() const = 0;
  virtual void set_deliver(DeliverFn fn) = 0;
  /// Share frames the receiver has taken in (its event count).
  [[nodiscard]] virtual std::uint64_t frames_received() const = 0;
};

class EndpointDriver final : public LiveDriver {
 public:
  EndpointDriver(const LiveShape& shape, std::uint64_t seed)
      : ep_(live_config(shape, seed)) {}
  bool send(std::vector<std::uint8_t> payload) override {
    return ep_.send(std::move(payload));
  }
  void run_for(std::int64_t wall_ns) override { ep_.run_for(wall_ns); }
  [[nodiscard]] std::int64_t now_ns() const override { return ep_.now_ns(); }
  void set_deliver(DeliverFn fn) override { ep_.set_deliver(std::move(fn)); }
  [[nodiscard]] std::uint64_t frames_received() const override {
    return ep_.receiver().stats().frames_received;
  }
  [[nodiscard]] transport::LiveEndpoint& endpoint() { return ep_; }

 private:
  transport::LiveEndpoint ep_;
};

/// Per-layer span ids of the replay.
struct LiveLayers {
  SpanLedger::Id schedule, encode, split, seal, offer, tx, timer, poll, rx,
      receive, complete, generator;

  explicit LiveLayers(SpanLedger& l)
      : schedule(l.layer("protocol.schedule")),
        encode(l.layer("protocol.encode")),
        split(l.layer("sss.split")),
        seal(l.layer("crypto.seal")),
        offer(l.layer("transport.offer")),
        tx(l.layer("transport.tx")),
        timer(l.layer("transport.timer")),
        poll(l.layer("transport.poll")),
        rx(l.layer("transport.rx")),
        receive(l.layer("protocol.receive")),
        complete(l.layer("protocol.complete")),
        generator(l.layer("bench.generator")) {}
};

/// The endpoint's single-flow event loop (LiveEndpoint::run_for, pump and
/// the split-into-slot dispatch fast path), rebuilt from public calls with
/// a span around each. Reliability, telemetry and tracing are off in both.
class ReplayDriver final : public LiveDriver {
 public:
  ReplayDriver(const LiveShape& shape, std::uint64_t seed, SpanLedger& ledger,
               const LiveLayers& layers)
      : cfg_(live_config(shape, seed)),
        ledger_(ledger),
        layers_(layers),
        epoch_ns_(transport::monotonic_ns()),
        poller_(cfg_.poller_backend),
        rng_(cfg_.seed),
        scheduler_(cfg_.kappa, cfg_.mu, kChannels),
        receiver_(timeline_, [&] {
          proto::ReceiverConfig rc = cfg_.receiver;
          rc.auth_key = cfg_.auth_key;
          return rc;
        }()) {
    // Same arena sizing as LiveEndpoint's automatic one.
    const std::size_t slot_bytes =
        std::max<std::size_t>(2048, 2 * cfg_.max_datagram_bytes);
    const std::size_t slots =
        cfg_.channels.size() * (cfg_.recv_batch + 4 * cfg_.send_batch) + 64;
    pool_ = std::make_unique<transport::FramePool>(slot_bytes, slots);
    receiver_.set_arena(pool_.get());
    receiver_.set_deliver(
        [this](std::uint64_t id, std::vector<std::uint8_t> payload) {
          delivered_in_call_ = true;
          if (deliver_) deliver_(id, std::move(payload));
        });
    for (std::size_t i = 0; i < cfg_.channels.size(); ++i) {
      auto ch = std::make_unique<transport::UdpChannel>(
          cfg_.channels[i].config, rng_.fork(), wheel_, *pool_, 0,
          cfg_.channels[i].name, cfg_.max_datagram_bytes, cfg_.send_batch,
          cfg_.recv_batch);
      ch->set_on_frame([this](std::span<const std::uint8_t> frame) {
        ledger_.begin(layers_.receive, wall_ns());
        sync_timeline(now_ns());
        delivered_in_call_ = false;
        receiver_.on_frame(frame);
        ledger_.end_as(
            delivered_in_call_ ? layers_.complete : layers_.receive,
            wall_ns());
      });
      poller_.add(ch->rx_fd(), true, false);
      poller_.add(ch->tx_fd(), false, false);
      fd_to_channel_[ch->rx_fd()] = i;
      fd_to_channel_[ch->tx_fd()] = i;
      channels_.push_back(std::move(ch));
    }
    write_interest_.assign(channels_.size(), false);
  }

  bool send(std::vector<std::uint8_t> payload) override {
    if (queue_.size() >= cfg_.max_queue_packets) return false;
    queue_.push_back(std::move(payload));
    return true;
  }

  void run_for(std::int64_t wall_ns_budget) override {
    const std::int64_t deadline = now_ns() + wall_ns_budget;
    for (;;) {
      const std::int64_t now = now_ns();
      sync_timeline(now);
      {
        Span span(&ledger_, layers_.timer);
        wheel_.advance(now);
      }
      pump(now);
      {
        Span span(&ledger_, layers_.tx);
        for (const auto& ch : channels_) ch->flush(now);
      }
      update_write_interest();
      if (now >= deadline) break;

      int timeout_ms = 0;
      {
        Span span(&ledger_, layers_.timer);
        timeout_ms = poll_timeout_ms(now, deadline);
      }
      const std::int64_t wall0 = wall_ns();
      const std::int64_t cpu0 = thread_cpu_ns();
      poller_.wait(timeout_ms, events_);
      const std::int64_t cpu = thread_cpu_ns() - cpu0;
      const std::int64_t wall = wall_ns() - wall0;
      ledger_.add(layers_.poll, cpu, 1);
      poll_idle_ns_ += std::max<std::int64_t>(wall - cpu, 0);

      for (const transport::Poller::Event& ev : events_) {
        const auto it = fd_to_channel_.find(ev.fd);
        if (it == fd_to_channel_.end()) continue;
        transport::UdpChannel& ch = *channels_[it->second];
        if (ev.fd == ch.rx_fd() && (ev.readable || ev.error)) {
          Span span(&ledger_, layers_.rx);
          ch.on_readable();
        }
        if (ev.fd == ch.tx_fd() && (ev.writable || ev.error)) {
          Span span(&ledger_, layers_.tx);
          ch.on_writable(now_ns());
        }
      }
    }
  }

  [[nodiscard]] std::int64_t now_ns() const override {
    return transport::monotonic_ns() - epoch_ns_;
  }
  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  [[nodiscard]] std::uint64_t frames_received() const override {
    return receiver_.stats().frames_received;
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return next_id_ - 1; }
  [[nodiscard]] std::uint64_t split_bytes() const { return split_bytes_; }
  [[nodiscard]] std::int64_t poll_idle_ns() const { return poll_idle_ns_; }
  [[nodiscard]] std::uint64_t waits() const { return poller_.wait_calls(); }
  [[nodiscard]] std::uint64_t syscalls_send() const {
    std::uint64_t n = 0;
    for (const auto& ch : channels_) n += ch->syscalls_send();
    return n;
  }
  [[nodiscard]] std::uint64_t syscalls_recv() const {
    std::uint64_t n = 0;
    for (const auto& ch : channels_) n += ch->syscalls_recv();
    return n;
  }

 private:
  void sync_timeline(std::int64_t now) {
    if (now > timeline_.now()) timeline_.run_until(now);
  }

  void pump(std::int64_t now) {
    while (!queue_.empty()) {
      if (pool_->available() < channels_.size()) return;
      std::optional<proto::ShareDecision> decision;
      {
        Span span(&ledger_, layers_.schedule);
        view_.resize(channels_.size());
        for (std::size_t i = 0; i < channels_.size(); ++i) {
          view_[i] = {channels_[i]->ready(now), channels_[i]->backlog_ns(now)};
        }
        decision = scheduler_.next(view_);
      }
      if (!decision) return;
      std::vector<std::uint8_t> payload = std::move(queue_.front());
      queue_.pop_front();
      dispatch(payload, *decision, now);
    }
  }

  void dispatch(const std::vector<std::uint8_t>& payload,
                const proto::ShareDecision& decision, std::int64_t now) {
    const std::size_t m = decision.channels.size();
    const int k = decision.k;
    const std::uint64_t id = next_id_++;
    const bool keyed = cfg_.auth_key.has_value();
    const std::size_t need = proto::encoded_size(payload.size(), 0, keyed);
    if (need > pool_->slot_bytes()) {
      throw std::logic_error("replay: frame larger than a pool slot");
    }
    {
      Span span(&ledger_, layers_.encode);
      slots_.clear();
      spans_.clear();
      for (std::size_t j = 0; j < m; ++j) {
        transport::FrameRef slot = pool_->acquire();
        // pump() gated on available() >= channels >= m.
        if (!slot) throw std::logic_error("replay: pool exhausted");
        slot.resize(need);
        proto::FrameMeta meta;
        meta.packet_id = id;
        meta.k = static_cast<std::uint8_t>(k);
        meta.share_index = static_cast<std::uint8_t>(j + 1);
        const std::size_t off =
            proto::encode_header_into(meta, payload.size(), slot.span(), keyed);
        spans_.push_back(slot.span().subspan(off, payload.size()));
        slots_.push_back(std::move(slot));
      }
    }
    {
      Span span(&ledger_, layers_.split);
      sss::split_into(payload, k, spans_, split_scratch_, rng_);
    }
    split_bytes_ += payload.size();
    if (keyed) {
      Span span(&ledger_, layers_.seal);
      for (auto& slot : slots_) proto::seal_frame(slot.span(), *cfg_.auth_key);
    }
    {
      Span span(&ledger_, layers_.offer);
      for (std::size_t j = 0; j < m; ++j) {
        const auto ch = static_cast<std::size_t>(decision.channels[j]);
        (void)channels_[ch]->try_send(std::move(slots_[j]), now);
      }
    }
    slots_.clear();
    spans_.clear();
  }

  void update_write_interest() {
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const bool want = channels_[i]->wants_write();
      if (want != write_interest_[i]) {
        poller_.modify(channels_[i]->tx_fd(), false, want);
        write_interest_[i] = want;
      }
    }
  }

  [[nodiscard]] int poll_timeout_ms(std::int64_t now,
                                    std::int64_t deadline) const {
    std::int64_t until = deadline - now;
    if (const auto next = wheel_.next_deadline()) {
      until = std::min(until, *next - now);
    }
    until = std::max<std::int64_t>(until, 0);
    const std::int64_t ms = (until + 999'999) / 1'000'000;
    return static_cast<int>(std::min<std::int64_t>(ms, 100));
  }

  transport::LiveConfig cfg_;
  SpanLedger& ledger_;
  LiveLayers layers_;
  std::int64_t epoch_ns_;
  transport::Poller poller_;
  /// Before wheel_, channels_ and receiver_: every FrameRef they hold
  /// releases into a live pool.
  std::unique_ptr<transport::FramePool> pool_;
  transport::TimerWheel wheel_;
  Rng rng_;
  proto::DynamicScheduler scheduler_;
  std::vector<std::unique_ptr<transport::UdpChannel>> channels_;
  std::vector<bool> write_interest_;
  std::unordered_map<int, std::size_t> fd_to_channel_;
  net::Simulator timeline_;
  proto::Receiver receiver_;
  DeliverFn deliver_;
  bool delivered_in_call_ = false;

  std::deque<std::vector<std::uint8_t>> queue_;
  std::uint64_t next_id_ = 1;
  std::uint64_t split_bytes_ = 0;
  std::int64_t poll_idle_ns_ = 0;
  std::vector<transport::Poller::Event> events_;
  std::vector<proto::ChannelView> view_;
  std::vector<transport::FrameRef> slots_;
  std::vector<std::span<std::uint8_t>> spans_;
  std::vector<std::uint8_t> split_scratch_;
};

/// Books one driver's traffic: generates each payload from (seed, id),
/// checks every delivery byte for byte against it, and keeps the count
/// of everything attempted, refused, delivered and lost.
///
/// Packet ids are the order of accepted sends (the endpoint numbers
/// packets as it dequeues them, FIFO), starting at `first_id`.
class Traffic {
 public:
  Traffic(std::uint64_t seed, std::size_t payload_bytes, std::uint64_t first_id,
          SpanLedger* ledger, SpanLedger::Id generator)
      : seed_(seed),
        payload_bytes_(payload_bytes),
        base_id_(first_id),
        ledger_(ledger),
        generator_(generator),
        expected_(payload_bytes) {}

  /// Route `driver`'s deliveries here.
  void attach(LiveDriver& driver) {
    driver.set_deliver([this, &driver](std::uint64_t id,
                                       std::vector<std::uint8_t> payload) {
      on_deliver(id, payload, driver.now_ns());
    });
  }

  /// Offer the next packet to `driver`, timed from `due_ns`.
  bool offer(LiveDriver& driver, std::int64_t due_ns) {
    ++attempted_;
    std::vector<std::uint8_t> payload(payload_bytes_);
    {
      Span span(ledger_, generator_);
      fill(next_id(), payload);
    }
    if (!driver.send(std::move(payload))) {
      ++refused_;
      return false;
    }
    pending_.push_back({due_ns, false});
    return true;
  }

  /// Count packets older than the expiry as lost.
  void expire(std::int64_t now_ns) {
    while (!pending_.empty() &&
           (pending_.front().delivered ||
            now_ns - pending_.front().due_ns > kExpiryNs)) {
      if (!pending_.front().delivered) ++expired_;
      pending_.pop_front();
      ++base_id_;
    }
  }

  [[nodiscard]] std::uint64_t in_flight() const {
    return accepted() - delivered_ - expired_;
  }
  [[nodiscard]] std::uint64_t next_id() const {
    return base_id_ + pending_.size();
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t accepted() const { return attempted_ - refused_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }
  [[nodiscard]] std::uint64_t expired() const { return expired_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const {
    return delivered_ * payload_bytes_;
  }
  [[nodiscard]] PercentileTracker& delay_ns() { return delay_ns_; }

  /// Output checks: every delivery was a packet in flight, delivered
  /// once, with exactly the bytes sent.
  void check(Report& report, const std::string& what) const {
    report.check(mismatches_ == 0,
                 what + ": " + std::to_string(mismatches_) +
                     " payloads differ from what was sent");
    report.check(unexpected_ == 0,
                 what + ": " + std::to_string(unexpected_) +
                     " deliveries of packets not in flight");
    report.check(duplicates_ == 0,
                 what + ": " + std::to_string(duplicates_) +
                     " packets delivered twice");
  }

 private:
  struct Pending {
    std::int64_t due_ns;
    bool delivered;
  };

  void fill(std::uint64_t id, std::span<std::uint8_t> out) const {
    Rng rng(seed_ ^ (id * 0x9e3779b97f4a7c15ULL));
    rng.fill(out);
  }

  void on_deliver(std::uint64_t id, const std::vector<std::uint8_t>& payload,
                  std::int64_t now_ns) {
    Span span(ledger_, generator_);
    if (id < base_id_ || id >= next_id()) {
      ++unexpected_;
      return;
    }
    Pending& p = pending_[static_cast<std::size_t>(id - base_id_)];
    if (p.delivered) {
      ++duplicates_;
      return;
    }
    fill(id, expected_);
    if (payload.size() != expected_.size() ||
        std::memcmp(payload.data(), expected_.data(), payload.size()) != 0) {
      ++mismatches_;
    }
    p.delivered = true;
    ++delivered_;
    delay_ns_.add(static_cast<double>(now_ns - p.due_ns));
  }

  std::uint64_t seed_;
  std::size_t payload_bytes_;
  std::uint64_t base_id_;
  SpanLedger* ledger_;
  SpanLedger::Id generator_;
  std::vector<std::uint8_t> expected_;
  std::deque<Pending> pending_;
  std::uint64_t attempted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t unexpected_ = 0;
  std::uint64_t duplicates_ = 0;
  PercentileTracker delay_ns_;
};

/// Run `shape`'s traffic on `driver` until `until_ns` (driver time),
/// adding how late each open-loop send ran (ns) to `late_ns` if given.
void drive(LiveDriver& driver, Traffic& traffic, const LiveShape& shape,
           std::int64_t until_ns, PercentileTracker* late_ns = nullptr) {
  if (shape.window != 0) {
    // Closed loop: refill the window, then let the loop run briefly so
    // the window refills as soon as deliveries land.
    while (driver.now_ns() < until_ns) {
      while (traffic.in_flight() < shape.window) {
        if (!traffic.offer(driver, driver.now_ns())) break;
      }
      driver.run_for(200'000);
      traffic.expire(driver.now_ns());
    }
    return;
  }
  // Open loop: packet i is due at start + i / rate whatever the endpoint
  // is doing; delay is timed from when it was due.
  const double interval_ns = 1e9 / shape.rate_pps;
  const std::int64_t start = driver.now_ns();
  std::uint64_t i = 0;
  for (;;) {
    const std::int64_t now = driver.now_ns();
    if (now >= until_ns) break;
    for (;;) {
      const auto due = start + static_cast<std::int64_t>(
                                   static_cast<double>(i) * interval_ns);
      if (due > now) break;
      if (late_ns != nullptr) late_ns->add(static_cast<double>(now - due));
      (void)traffic.offer(driver, due);
      ++i;
    }
    const auto next_due = start + static_cast<std::int64_t>(
                                      static_cast<double>(i) * interval_ns);
    driver.run_for(std::clamp<std::int64_t>(next_due - driver.now_ns(), 1,
                                            2'000'000));
    traffic.expire(driver.now_ns());
  }
}

/// Let in-flight packets land (bounded), then count the rest as lost.
void drain(LiveDriver& driver, Traffic& traffic) {
  const std::int64_t until = driver.now_ns() + 300'000'000;
  while (traffic.in_flight() > 0 && driver.now_ns() < until) {
    driver.run_for(1'000'000);
    traffic.expire(driver.now_ns());
  }
}

/// One measured interval's totals.
struct Phase {
  double wall_s = 0.0;
  CpuTime cpu;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t frames = 0;
  Quantile delay_p50;
  Quantile delay_p99;

  [[nodiscard]] double goodput_per_core() const {
    return per_cpu_second(mbit_per_s(static_cast<double>(delivered_bytes), 1.0),
                          cpu.total_s());
  }
  [[nodiscard]] double goodput() const {
    return mbit_per_s(static_cast<double>(delivered_bytes), wall_s);
  }
};

/// Measure `slices` consecutive intervals splitting `seconds`.
std::vector<Phase> measure(LiveDriver& driver, Traffic& traffic,
                           const LiveShape& shape, double seconds, int slices,
                           PercentileTracker* late_ns = nullptr) {
  std::vector<Phase> out;
  const auto slice_ns = static_cast<std::int64_t>(seconds * 1e9 / slices);
  for (int i = 0; i < slices; ++i) {
    Phase phase;
    traffic.delay_ns() = PercentileTracker{};
    const std::uint64_t bytes0 = traffic.delivered_bytes();
    const std::uint64_t frames0 = driver.frames_received();
    const CpuTime cpu0 = process_cpu();
    const std::int64_t start = driver.now_ns();
    drive(driver, traffic, shape, start + slice_ns, late_ns);
    phase.wall_s = static_cast<double>(driver.now_ns() - start) / 1e9;
    phase.cpu = process_cpu() - cpu0;
    phase.delivered_bytes = traffic.delivered_bytes() - bytes0;
    phase.frames = driver.frames_received() - frames0;
    phase.delay_p50 = quantile(traffic.delay_ns(), 50.0);
    phase.delay_p99 = quantile(traffic.delay_ns(), 99.0);
    out.push_back(phase);
  }
  return out;
}

/// Median over intervals of `fn(interval)`.
template <typename T, typename Fn>
double median_of(const std::vector<T>& items, Fn fn) {
  PercentileTracker values;
  for (const T& item : items) values.add(fn(item));
  return values.median();
}

/// Untraced runs measure this many segments, each on a freshly set-up
/// endpoint (its own sockets and arena), each split into intervals, and
/// report the median over all intervals: a burst of interference from
/// the host, or an unlucky endpoint, moves a few intervals, not the run.
constexpr int kSegments = 10;
constexpr int kSlicesPerSegment = 1;
constexpr double kWarmupSeconds = 0.05;
/// live_small's traced run: half its time for the endpoint and the
/// replay; of the rest, this share for the session layers, the remainder
/// for the psim layers.
constexpr double kTracedLiveShare = 0.5;
constexpr double kTracedSessionShare = 0.6;

/// A set-up endpoint: constructed, warmed up (caches, arena slots, socket
/// buffers) and drained; `next_id` is the id its next packet gets.
struct Ready {
  std::unique_ptr<EndpointDriver> ep;
  std::uint64_t next_id = 1;
};

/// Every set-up's wall time, its CPU, and the RSS one endpoint adds.
struct SetUps {
  PercentileTracker wall_s;
  PercentileTracker cpu_s;
  std::size_t endpoint_rss = 0;
};

Ready set_up(const LiveShape& shape, std::uint64_t seed, SetUps& setups,
             Report& report) {
  const CpuTime cpu0 = process_cpu();
  const std::int64_t t0 = wall_ns();
  const std::size_t rss0 = rss_bytes();
  Ready ready{std::make_unique<EndpointDriver>(shape, seed), 1};
  const std::size_t rss1 = rss_bytes();
  if (setups.endpoint_rss == 0 && rss1 > rss0) setups.endpoint_rss = rss1 - rss0;
  Traffic warm(seed ^ 0x5EED, shape.payload_bytes, 1, nullptr, 0);
  warm.attach(*ready.ep);
  drive(*ready.ep, warm, shape,
        ready.ep->now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  drain(*ready.ep, warm);
  setups.wall_s.add(static_cast<double>(wall_ns() - t0) / 1e9);
  setups.cpu_s.add((process_cpu() - cpu0).total_s());
  warm.check(report, "warm-up");
  ready.ep->set_deliver({});  // `warm` ends here
  ready.next_id = warm.next_id();
  return ready;
}

std::string backend_name(transport::Poller::Backend backend) {
  switch (backend) {
    case transport::Poller::Backend::Epoll: return "epoll";
    case transport::Poller::Backend::Poll: return "poll";
    case transport::Poller::Backend::Uring: return "uring";
  }
  return "unknown";
}

Report run_live(const LiveShape& shape, const RunOptions& options) {
  Report report;
  report.note("traffic", "loopback UDP inside one process, not a real link");
  SetUps setups;

  if (!options.trace) {
    std::vector<Phase> phases;
    std::uint64_t attempted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t refused = 0;
    std::uint64_t expired = 0;
    for (int segment = 0; segment < kSegments; ++segment) {
      const std::uint64_t seed =
          options.seed * 16 + static_cast<std::uint64_t>(segment);
      Ready ready = set_up(shape, seed, setups, report);
      Traffic traffic(seed, shape.payload_bytes, ready.next_id, nullptr, 0);
      traffic.attach(*ready.ep);
      for (const Phase& p :
           measure(*ready.ep, traffic, shape, options.seconds / kSegments,
                   kSlicesPerSegment)) {
        phases.push_back(p);
      }
      drain(*ready.ep, traffic);
      traffic.check(report, "endpoint");
      report.check(ready.ep->endpoint().receiver().stats().auth_failures == 0,
                   "endpoint: frames failed authentication");
      attempted += traffic.attempted();
      delivered += traffic.delivered();
      refused += traffic.refused();
      expired += traffic.expired();
      if (segment == 0) {
        report.note("poller_backend",
                    backend_name(ready.ep->endpoint().poller_backend()));
      }
    }
    report.check(delivered > 0, "endpoint: nothing was delivered");
    report.attempted = attempted;
    report.failed = attempted - delivered;

    std::size_t fewest_samples = std::numeric_limits<std::size_t>::max();
    CpuTime cpu;
    for (const Phase& p : phases) {
      fewest_samples = std::min(fewest_samples, p.delay_p50.samples);
      cpu.user_s += p.cpu.user_s;
      cpu.sys_s += p.cpu.sys_s;
    }
    report.note("intervals", std::to_string(phases.size()));
    report.note("refused_sends", std::to_string(refused));
    report.note("expired_packets", std::to_string(expired));
    report.note("fewest_delay_samples_per_interval",
                std::to_string(fewest_samples));
    report.note("cpu_user_s", std::to_string(cpu.user_s));
    report.note("cpu_sys_s", std::to_string(cpu.sys_s));

    report.set("setup_s", setups.wall_s.median(), "s");
    report.set("goodput_mbps_per_core",
               median_of(phases, [](const Phase& p) {
                 return p.goodput_per_core();
               }),
               "Mbit/core-s");
    report.set("goodput_mbps",
               median_of(phases, [](const Phase& p) { return p.goodput(); }),
               "Mbit/s");
    report.set("delay_p50_us",
               median_of(phases,
                         [](const Phase& p) { return p.delay_p50.value / 1e3; }),
               "us");
    report.set("delivered_fraction",
               static_cast<double>(delivered) / static_cast<double>(attempted),
               "ratio");
    // A live endpoint carries one flow: opening it is setting it up.
    report.set("flows_opened_per_core_s",
               per_cpu_second(1.0, setups.cpu_s.median()), "1/core-s");
    report.set("mem_per_flow_bytes", static_cast<double>(setups.endpoint_rss),
               "B");
    report.set("sim_events_per_s",
               median_of(phases,
                         [](const Phase& p) {
                           return static_cast<double>(p.frames) / p.wall_s;
                         }),
               "1/s");
    report.set("sim_events_per_core_s",
               median_of(phases,
                         [](const Phase& p) {
                           return per_cpu_second(static_cast<double>(p.frames),
                                                 p.cpu.total_s());
                         }),
               "1/core-s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  // Traced: the endpoint, then the replay, each for a share of the time;
  // live_small then gives the rest to the session and psim layers.
  const double live_share = shape.window == 0 ? kTracedLiveShare : 1.0;
  const double half = options.seconds * live_share / 2;
  Ready ready = set_up(shape, options.seed, setups, report);
  EndpointDriver* ep = ready.ep.get();
  Traffic traffic(options.seed, shape.payload_bytes, ready.next_id, nullptr, 0);
  traffic.attach(*ep);
  const Phase phase =
      measure(*ep, traffic, shape, half, 1).front();
  drain(*ep, traffic);
  traffic.check(report, "endpoint");
  report.attempted = traffic.attempted();
  report.failed = traffic.attempted() - traffic.delivered();
  report.note("poller_backend", backend_name(ep->endpoint().poller_backend()));
  report.set("delay_p99_us", phase.delay_p99.value / 1e3, "us");
  report.note("delay_p99_samples_beyond", std::to_string(phase.delay_p99.beyond));

  {
    obs::Registry registry;
    ep->endpoint().publish_metrics(registry);
    report.set("transport.pool_defers",
               static_cast<double>(
                   registry.snapshot().counter_value("mcss_live_pool_defers")),
               "count");
  }
  ready.ep.reset();

  SpanLedger ledger;
  const LiveLayers layers(ledger);
  ReplayDriver replay(shape, options.seed, ledger, layers);
  Traffic replay_warm(options.seed ^ 0x5EED, shape.payload_bytes, 1, &ledger,
                      layers.generator);
  replay_warm.attach(replay);
  drive(replay, replay_warm, shape,
        replay.now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  drain(replay, replay_warm);
  replay_warm.check(report, "replay warm-up");

  // Per-layer figures are deltas over the measured phase only.
  const SpanLedger warm_ledger = ledger;
  const std::uint64_t sent0 = replay.packets_sent();
  const std::uint64_t split0 = replay.split_bytes();
  const std::int64_t idle0 = replay.poll_idle_ns();
  const std::uint64_t waits0 = replay.waits();
  const std::uint64_t ss0 = replay.syscalls_send();
  const std::uint64_t sr0 = replay.syscalls_recv();

  Traffic replay_traffic(options.seed, shape.payload_bytes,
                         replay_warm.next_id(), &ledger, layers.generator);
  replay_traffic.attach(replay);
  PercentileTracker replay_late;
  const Phase rp = measure(replay, replay_traffic, shape, half, 1,
                           &replay_late)
                       .front();
  const std::uint64_t packets = replay.packets_sent() - sent0;
  const std::uint64_t split_bytes = replay.split_bytes() - split0;
  const std::int64_t idle = replay.poll_idle_ns() - idle0;
  const std::uint64_t waits = replay.waits() - waits0;
  const std::uint64_t syscalls_send = replay.syscalls_send() - ss0;
  const std::uint64_t syscalls_recv = replay.syscalls_recv() - sr0;
  const auto delta = [&](SpanLedger::Id id) {
    SpanLedger::Layer d = ledger[id];
    d.total_ns -= warm_ledger[id].total_ns;
    d.self_ns -= warm_ledger[id].self_ns;
    d.calls -= warm_ledger[id].calls;
    return d;
  };
  drain(replay, replay_traffic);
  replay_traffic.check(report, "replay");

  const double cpu_ns = rp.cpu.total_s() * 1e9;
  const auto per_call = [&](SpanLedger::Id id) {
    return delta(id).self_ns_per_call();
  };
  const auto self = [&](SpanLedger::Id id) {
    return static_cast<double>(delta(id).self_ns);
  };
  const auto per_pkt = [&](double n) {
    return packets == 0 ? 0.0 : n / static_cast<double>(packets);
  };

  report.set("protocol.schedule_ns", per_call(layers.schedule), "ns");
  report.set("sss.split_ns", per_call(layers.split), "ns");
  report.set("sss.split_mb_per_s",
             self(layers.split) > 0
                 ? static_cast<double>(split_bytes) / self(layers.split) * 1e3
                 : 0.0,
             "MB/s");
  report.set("protocol.encode_ns", per_call(layers.encode), "ns");
  report.set("crypto.seal_ns", per_call(layers.seal), "ns");
  report.set("transport.offer_ns", per_call(layers.offer), "ns");
  report.set("transport.tx_ns", per_call(layers.tx), "ns");
  report.set("transport.tx_syscalls_per_pkt",
             per_pkt(static_cast<double>(syscalls_send)), "1/pkt");
  report.set("transport.poll_ns", per_call(layers.poll), "ns");
  report.set("transport.poll_idle_ns",
             waits == 0 ? 0.0
                        : static_cast<double>(idle) / static_cast<double>(waits),
             "ns");
  report.set("transport.wakes_per_pkt", per_pkt(static_cast<double>(waits)),
             "1/pkt");
  report.set("transport.rx_ns", per_call(layers.rx), "ns");
  report.set("transport.rx_syscalls_per_pkt",
             per_pkt(static_cast<double>(syscalls_recv)), "1/pkt");
  report.set("transport.timer_ns", per_call(layers.timer), "ns");
  report.set("protocol.receive_ns", per_call(layers.receive), "ns");
  report.set("protocol.complete_ns",
             per_call(layers.complete) - per_call(layers.receive), "ns");
  report.set("bench.generator_ns", per_call(layers.generator), "ns");
  report.set("generator_late_p99_us",
             shape.window == 0 ? quantile(replay_late, 99.0).value / 1e3 : 0.0,
             "us");
  report.set("protocol.cpu_share",
             (self(layers.schedule) + self(layers.encode) +
              self(layers.receive) + self(layers.complete)) /
                 cpu_ns,
             "ratio");
  report.set("sss.cpu_share", self(layers.split) / cpu_ns, "ratio");
  report.set("crypto.cpu_share", self(layers.seal) / cpu_ns, "ratio");
  report.set("transport.cpu_share",
             (self(layers.offer) + self(layers.tx) + self(layers.timer) +
              self(layers.poll) + self(layers.rx)) /
                 cpu_ns,
             "ratio");
  report.set("bench.cpu_share", self(layers.generator) / cpu_ns, "ratio");
  double covered = 0.0;
  for (SpanLedger::Id id = 0; id < ledger.size(); ++id) covered += self(id);
  report.set("trace.coverage", covered / cpu_ns, "ratio");
  report.set("trace.replay_ratio",
             phase.goodput_per_core() > 0
                 ? rp.goodput_per_core() / phase.goodput_per_core()
                 : 0.0,
             "ratio");
  report.note("replay_packets", std::to_string(packets));
  if (shape.window == 0) {
    const double rest = options.seconds * (1.0 - live_share);
    measure_session_layers(options, rest * kTracedSessionShare, report);
    measure_psim_layers(options, rest * (1.0 - kTracedSessionShare), report);
  }
  return report;
}

}  // namespace

Report run_live_bulk(const RunOptions& options) {
  return run_live(kBulk, options);
}

Report run_live_small(const RunOptions& options) {
  return run_live(kSmall, options);
}

}  // namespace perfbench
