// Simulator glue: one object that turns a (Sender, Receiver, channels)
// triple into a reliable session.
//
// The link owns the plumbing the reliability layer needs on both sides:
//
//   receiver side   a tap on every forward channel feeds per-channel
//                   counters into a ReportBuilder; deliveries set SACK
//                   bits and delay samples; a periodic sim event encodes
//                   the next report onto the feedback channel
//   sender side     the Sender's dispatch hook registers packets with a
//                   RetransmitManager; arriving reports ack/close them;
//                   RTO timers re-split and resend via Sender::resend()
//
// Retransmission channel choice is privacy-aware (retransmit_order in
// feedback/retransmit.hpp): channels already in the packet's realized
// exposure set are preferred (re-using them cannot widen what an
// eavesdropper could have seen), then unexposed channels by ascending
// risk. Construct the link INSTEAD of calling
// receiver.attach() — it installs its own channel receivers.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/channel_port.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/sender.hpp"

namespace mcss::feedback {

struct ReliableLinkConfig {
  RetransmitConfig retransmit;
  /// SACK window and delay-ring sizing (num_channels is filled in).
  std::size_t sack_window_words = 16;
  std::size_t max_delay_samples = 64;
  net::SimTime report_interval = net::from_millis(20);
  /// Stop emitting reports after this time (0 = run forever — note a
  /// forever-recurring event keeps Simulator::run() from terminating;
  /// pair 0 with run_until()).
  net::SimTime stop_after = 0;
  /// Shares beyond k on each retransmission (margin per repair).
  int retransmit_extra = 1;
  /// When set, reports are SipHash-tagged and unauthenticated or
  /// tampered reports are rejected (counted in the manager's stats).
  std::optional<crypto::SipHashKey> report_auth_key;
  /// Per-forward-channel risk z_i, ordering unexposed channels on
  /// retransmit (lowest first). Missing entries default to 0 (= prefer
  /// by index).
  std::vector<double> risks;
  /// Routed-topology link mode: when channel_link_masks is non-empty,
  /// entry i is the LinkMask (util/link_risk.hpp) of forward channel
  /// i's path, link_risks[l] is the tap probability of link l, and
  /// retransmit ordering generalizes from channel exposure to link
  /// exposure — a channel whose links the packet already traversed is
  /// free (re-using a tapped link cannot widen exposure), others are
  /// ordered by the marginal risk of the NEW links their path adds.
  /// The manager's link map is installed from this automatically.
  std::vector<std::uint64_t> channel_link_masks;
  std::vector<double> link_risks;
};

struct ReliableLinkStats {
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_dropped_at_channel = 0;
};

class ReliableLink {
 public:
  /// `forward` are the share channels (sender -> receiver, the same
  /// vector the Sender owns); `feedback` carries reports the other way.
  /// All referents must outlive the link.
  ReliableLink(net::Simulator& sim, proto::Sender& sender,
               proto::Receiver& receiver,
               std::vector<net::ChannelPort*> forward,
               net::ChannelPort& feedback, ReliableLinkConfig config, Rng rng);

  /// Convenience: accept a vector of any concrete port type.
  template <std::derived_from<net::ChannelPort> Ch>
  ReliableLink(net::Simulator& sim, proto::Sender& sender,
               proto::Receiver& receiver, const std::vector<Ch*>& forward,
               net::ChannelPort& feedback, ReliableLinkConfig config, Rng rng)
      : ReliableLink(
            sim, sender, receiver,
            std::vector<net::ChannelPort*>(forward.begin(), forward.end()),
            feedback, std::move(config), rng) {}

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Downstream delivery callback (the link wraps the Receiver's own).
  void set_deliver(proto::Receiver::DeliverFn fn) {
    deliver_ = std::move(fn);
  }

  [[nodiscard]] RetransmitManager& manager() noexcept { return manager_; }
  [[nodiscard]] const RetransmitManager& manager() const noexcept {
    return manager_;
  }
  [[nodiscard]] ReportBuilder& builder() noexcept { return builder_; }
  [[nodiscard]] const ReliableLinkStats& stats() const noexcept {
    return stats_;
  }

 private:
  void tick_report();
  void schedule_advance();
  void on_retransmit(std::uint64_t packet_id, std::uint8_t generation,
                     const std::vector<std::uint8_t>& payload, int k);

  net::Simulator& sim_;
  proto::Sender& sender_;
  proto::Receiver& receiver_;
  std::vector<net::ChannelPort*> forward_;
  net::ChannelPort& feedback_;
  ReliableLinkConfig config_;
  proto::Receiver::DeliverFn deliver_;

  ReportBuilder builder_;
  RetransmitManager manager_;
  bool advance_scheduled_ = false;
  net::SimTime scheduled_for_ = 0;
  ReliableLinkStats stats_;
};

}  // namespace mcss::feedback
