// Configuration shared by the live endpoints: the channel spec, the
// reliability add-on, the batch/port environment overrides and the delay
// tracker. SessionEndpoint takes these directly; LiveEndpoint, its
// single-flow facade, wraps them in LiveConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "crypto/siphash.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_channel.hpp"
#include "util/stats.hpp"

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
/// recv_batch defaults), or `fallback` when unset/unparsable.
[[nodiscard]] inline std::size_t batch_from_env(std::size_t fallback = 32) {
  const char* env = std::getenv("MCSS_LIVE_BATCH");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0 || v > 1024) return fallback;
  return static_cast<std::size_t>(v);
}

/// MCSS_LIVE_PORT_BASE as uint16, or `fallback` when unset/unparsable.
[[nodiscard]] inline std::uint16_t port_base_from_env(
    std::uint16_t fallback = 0) {
  const char* env = std::getenv("MCSS_LIVE_PORT_BASE");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v > 65535) return fallback;
  return static_cast<std::uint16_t>(v);
}

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

}  // namespace mcss::transport
