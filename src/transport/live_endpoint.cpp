#include "transport/live_endpoint.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

session::SessionConfig session_config(LiveConfig live) {
  session::SessionConfig config;
  const std::size_t lanes =
      live.channels.size() + (live.reliability.enabled ? 1 : 0);
  config.channels = std::move(live.channels);
  config.kappa = live.kappa;
  config.mu = live.mu;
  config.port_base = live.port_base;
  config.auth_key = live.auth_key;
  config.receiver = live.receiver;
  config.seed = live.seed;
  config.max_datagram_bytes = live.max_datagram_bytes;
  config.poller_backend = live.poller_backend;
  config.reliability = std::move(live.reliability);
  config.send_batch = live.send_batch;
  config.recv_batch = live.recv_batch;
  // One flow borrows few reassembly slots: keep the single-flow arena
  // (transmit in flight plus 64 slack), not the session's partial slack.
  config.pool_slots = live.pool_slots != 0
                          ? live.pool_slots
                          : lanes * 4 * live.send_batch + 64;
  config.pool_slot_bytes = live.pool_slot_bytes;
  config.telemetry = std::move(live.telemetry);
  config.limits.max_flows = 1;
  // The flow is the whole endpoint: its receiver gets the configured
  // reassembly cap, and each pump may drain its whole queue.
  config.limits.per_flow_memory_bytes = live.receiver.memory_limit_bytes;
  config.limits.max_queue_packets = live.max_queue_packets;
  config.limits.max_dispatch_per_pump = live.max_queue_packets;
  return config;
}

}  // namespace

LiveEndpoint::LiveEndpoint(LiveConfig config)
    : session_(session_config(std::move(config))) {
  // Unpriced (rate 0): admission never refuses the endpoint's one flow.
  const auto cid = session_.open_flow_as(kFlow, {.rate_pps = 0.0});
  MCSS_INVARIANT(cid.has_value(), "live endpoint could not open its flow");
  session_.set_deliver([this](std::uint32_t, std::uint64_t id,
                              std::vector<std::uint8_t> payload) {
    if (deliver_) deliver_(id, std::move(payload));
  });
}

bool LiveEndpoint::send(std::vector<std::uint8_t> payload) {
  return session_.send(kFlow, std::move(payload));
}

void LiveEndpoint::publish_metrics(obs::Registry& registry) const {
  session_.publish_metrics(registry);
  registry.add(registry.counter("mcss_live_pool_defers"),
               session_.stats().pool_defers);
}

}  // namespace mcss::transport
