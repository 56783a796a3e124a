// MICSS baseline: reliable, maximum-privacy multichannel secrecy.
//
// The protocol ReMICSS was redesigned from (Section V). Characteristics
// reproduced here:
//   - perfect (XOR n-of-n) secret sharing: kappa = mu = n always, the one
//     configuration MICSS offers for a given channel set,
//   - reliable share transport: every share is acknowledged on a reverse
//     channel and retransmitted after an RTO until acknowledged — losing
//     ANY share stalls the packet and consumes extra channel capacity,
//   - a bounded in-flight window: when it fills (because some share of an
//     old packet keeps being lost), the sender blocks.
//
// Integration.RemicssOutperformsMicssUnderLoss (tests/integration_test.cpp)
// contrasts this with ReMICSS's best-effort threshold shares, which
// tolerate m - k losses without retransmission.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace mcss::proto {

/// Share acknowledgment frame (reverse direction), 13 bytes.
struct AckFrame {
  std::uint64_t packet_id = 0;
  std::uint8_t share_index = 0;
};

[[nodiscard]] std::vector<std::uint8_t> encode_ack(const AckFrame& ack);
[[nodiscard]] std::optional<AckFrame> decode_ack(
    std::span<const std::uint8_t> buf);

struct MicssConfig {
  net::SimTime rto = net::from_millis(50);   ///< retransmission timeout
  std::size_t window_packets = 64;           ///< max unacknowledged packets
};

struct MicssSenderStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_rejected = 0;  ///< window full (stalled)
  std::uint64_t packets_completed = 0; ///< fully acknowledged
  std::uint64_t shares_sent = 0;       ///< first transmissions
  std::uint64_t retransmissions = 0;
};

/// Add these totals into the registry under mcss_micss_sender_* names.
void publish(obs::Registry& registry, const MicssSenderStats& stats);

class MicssSender {
 public:
  /// `data_out[i]` carries share i+1; `ack_in[i]` is the matching reverse
  /// channel (this sender attaches itself as their receiver).
  MicssSender(net::Simulator& sim, std::vector<net::SimChannel*> data_out,
              std::vector<net::SimChannel*> ack_in, Rng rng,
              MicssConfig config = {});

  MicssSender(const MicssSender&) = delete;
  MicssSender& operator=(const MicssSender&) = delete;

  /// Offer a packet; false when the reliable window is full.
  bool send(std::vector<std::uint8_t> payload);

  [[nodiscard]] const MicssSenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t in_flight() const noexcept { return pending_.size(); }

 private:
  struct PendingPacket {
    std::vector<std::vector<std::uint8_t>> frames;  // encoded, per share
    std::vector<bool> acked;
    int unacked = 0;
  };

  void on_ack_frame(std::vector<std::uint8_t> raw);
  void arm_retransmit(std::uint64_t id);

  net::Simulator& sim_;
  std::vector<net::SimChannel*> data_out_;
  Rng rng_;
  MicssConfig config_;
  std::map<std::uint64_t, PendingPacket> pending_;
  std::uint64_t next_packet_id_ = 1;
  MicssSenderStats stats_;
};

struct MicssReceiverStats {
  std::uint64_t shares_received = 0;
  std::uint64_t duplicate_shares = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t acks_sent = 0;
};

/// Add these totals into the registry under mcss_micss_receiver_* names.
void publish(obs::Registry& registry, const MicssReceiverStats& stats);

class MicssReceiver {
 public:
  using DeliverFn = std::function<void(std::uint64_t, std::vector<std::uint8_t>)>;

  /// `data_in[i]` delivers share i+1; `ack_out[i]` is the reverse channel
  /// acknowledgments leave on.
  MicssReceiver(net::Simulator& sim, std::vector<net::SimChannel*> data_in,
                std::vector<net::SimChannel*> ack_out);

  MicssReceiver(const MicssReceiver&) = delete;
  MicssReceiver& operator=(const MicssReceiver&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  [[nodiscard]] const MicssReceiverStats& stats() const noexcept { return stats_; }

 private:
  struct Partial {
    std::vector<std::optional<std::vector<std::uint8_t>>> shares;
    std::size_t have = 0;
  };

  void on_data_frame(std::vector<std::uint8_t> raw);
  void send_ack(std::uint64_t id, std::uint8_t index);

  net::Simulator& sim_;
  std::vector<net::SimChannel*> ack_out_;
  std::size_t n_;
  DeliverFn deliver_;
  std::map<std::uint64_t, Partial> partials_;
  std::unordered_set<std::uint64_t> completed_;
  std::deque<std::uint64_t> completed_order_;
  MicssReceiverStats stats_;
};

}  // namespace mcss::proto
