#include "feedback/reliable_link.hpp"

#include <utility>

#include "protocol/wire.hpp"
#include "util/ensure.hpp"

namespace mcss::feedback {

ReliableLink::ReliableLink(net::Simulator& sim, proto::Sender& sender,
                           proto::Receiver& receiver,
                           std::vector<net::ChannelPort*> forward,
                           net::ChannelPort& feedback,
                           ReliableLinkConfig config, Rng rng)
    : sim_(sim),
      sender_(sender),
      receiver_(receiver),
      forward_(std::move(forward)),
      feedback_(feedback),
      config_(std::move(config)),
      builder_({.num_channels = forward_.size(),
                .sack_window_words = config_.sack_window_words,
                .max_delay_samples = config_.max_delay_samples}),
      manager_(config_.retransmit, rng) {
  MCSS_ENSURE(!forward_.empty(), "need at least one forward channel");
  MCSS_ENSURE(config_.report_interval > 0, "report interval must be positive");
  MCSS_ENSURE(config_.retransmit_extra >= 0, "extra shares must be >= 0");
  if (!config_.channel_link_masks.empty()) {
    MCSS_ENSURE(config_.channel_link_masks.size() == forward_.size(),
                "link map must cover every forward channel");
    manager_.set_link_map(config_.channel_link_masks);
  }

  // Receiver side: tap each forward channel for per-channel counters
  // (classifying arrivals the way the receiver will), then reassemble.
  for (std::size_t i = 0; i < forward_.size(); ++i) {
    MCSS_ENSURE(forward_[i] != nullptr, "null forward channel");
    forward_[i]->set_receiver([this, i](std::vector<std::uint8_t> frame) {
      std::size_t consumed = 0;
      const bool decodable =
          proto::decode_prefix(frame, &consumed).has_value();
      builder_.on_channel_frame(i, decodable);
      receiver_.on_frame(std::move(frame));
    });
  }
  receiver_.set_deliver(
      [this](std::uint64_t id, std::vector<std::uint8_t> payload) {
        builder_.on_delivered(id, sim_.now());
        if (deliver_) deliver_(id, std::move(payload));
      });

  // Sender side: track dispatches, ingest reports, retransmit on RTO.
  sender_.set_dispatch_hook([this](std::uint64_t id, int k,
                                   std::span<const std::uint8_t> payload,
                                   std::span<const int> channels) {
    manager_.on_packet_sent(id, k, payload, channels, sim_.now());
    schedule_advance();
  });
  feedback_.set_receiver([this](std::vector<std::uint8_t> datagram) {
    manager_.on_report_datagram(
        datagram, sim_.now(),
        config_.report_auth_key ? &*config_.report_auth_key : nullptr);
    schedule_advance();
  });
  manager_.set_retransmit([this](std::uint64_t id, std::uint8_t generation,
                                 const std::vector<std::uint8_t>& payload,
                                 int k) {
    on_retransmit(id, generation, payload, k);
  });

  sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
}

void ReliableLink::tick_report() {
  auto report = builder_.build(sim_.now());
  auto bytes = encode_report(
      report, config_.report_auth_key ? &*config_.report_auth_key : nullptr);
  ++stats_.reports_sent;
  if (!feedback_.try_send(std::move(bytes))) {
    ++stats_.reports_dropped_at_channel;
  }
  if (config_.stop_after == 0 || sim_.now() < config_.stop_after) {
    sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
  }
}

void ReliableLink::schedule_advance() {
  const auto deadline = manager_.next_deadline();
  if (!deadline) return;
  if (advance_scheduled_ && *deadline >= scheduled_for_) return;
  advance_scheduled_ = true;
  scheduled_for_ = *deadline;
  sim_.schedule_at(*deadline, [this] {
    advance_scheduled_ = false;
    manager_.advance(sim_.now());
    schedule_advance();
  });
}

void ReliableLink::on_retransmit(std::uint64_t packet_id,
                                 std::uint8_t generation,
                                 const std::vector<std::uint8_t>& payload,
                                 int k) {
  const auto order = retransmit_order(
      manager_, packet_id, static_cast<int>(forward_.size()),
      k + config_.retransmit_extra, config_.risks, config_.link_risks);
  sender_.resend(packet_id, generation, payload, k, order);
  manager_.note_exposure(packet_id, order);
}

}  // namespace mcss::feedback
