// Tests for the reliability subsystem (src/feedback): the report wire
// format, the receiver-side ReportBuilder, the RetransmitManager (RTO,
// Karn, backoff budget, replay, exposure accounting), the proactive
// redundancy planner, and the ReliableLink end-to-end simulator glue.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "feedback/redundancy.hpp"
#include "feedback/reliable_link.hpp"
#include "feedback/report.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace mcss::feedback {
namespace {

const crypto::SipHashKey kKey{1, 2,  3,  4,  5,  6,  7,  8,
                              9, 10, 11, 12, 13, 14, 15, 16};

ReceiverReport sample_report() {
  ReceiverReport r;
  r.seq = 7;
  r.receiver_time_ns = 123'456'789;
  r.packets_delivered = 42;
  r.sack_base = 17;
  r.sack = {0xDEADBEEFCAFEF00DULL, 0x1ULL};
  r.channels = {{100, 2}, {250, 0}, {9, 9}};
  r.delays = {{17, 1'000'000}, {18, 2'000'000}};
  return r;
}

// ------------------------------------------------------------ report codec

TEST(ReportCodec, RoundtripBasic) {
  const auto r = sample_report();
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes.size(), kReportHeaderSize + 8 * r.sack.size() +
                              16 * r.channels.size() + 16 * r.delays.size());
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(ReportCodec, RoundtripMinimal) {
  ReceiverReport r;
  r.seq = 1;
  r.sack_base = 1;
  r.channels = {{0, 0}};  // one channel, nothing else
  const auto back = decode_report(encode_report(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  EXPECT_TRUE(back->sack.empty());
  EXPECT_TRUE(back->delays.empty());
}

TEST(ReportCodec, SackAckSemantics) {
  ReceiverReport r;
  r.sack_base = 100;
  r.sack = {0b101};  // ids 100 and 102
  EXPECT_TRUE(r.acked(100));
  EXPECT_FALSE(r.acked(101));
  EXPECT_TRUE(r.acked(102));
  EXPECT_FALSE(r.acked(99));    // below the base: unknown, not negative
  EXPECT_FALSE(r.acked(164));   // beyond the window
}

TEST(ReportCodec, AuthenticatedRoundtripAndTamperRejection) {
  const auto r = sample_report();
  auto bytes = encode_report(r, &kKey);
  EXPECT_EQ(bytes.size(),
            kReportHeaderSize + 8 * r.sack.size() + 16 * r.channels.size() +
                16 * r.delays.size() + proto::kTagSize);

  const auto back = decode_report(bytes, &kKey);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);

  // A keyless consumer parses the tagged report, ignoring the tag
  // (mirrors the share codec's convention).
  EXPECT_TRUE(decode_report(bytes).has_value());

  // One flipped bit anywhere in the body fails authentication.
  auto tampered = bytes;
  tampered[kReportHeaderSize + 3] ^= 0x10;
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(tampered, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);

  // A keyed consumer refuses unauthenticated reports (downgrade).
  const auto untagged = encode_report(r);
  EXPECT_FALSE(decode_report(untagged, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(ReportCodec, RejectsMalformed) {
  const auto good = encode_report(sample_report());
  proto::DecodeStatus status = proto::DecodeStatus::Ok;

  // Too short for a header.
  EXPECT_FALSE(
      decode_report(std::vector<std::uint8_t>(kReportHeaderSize - 1, 0),
                    nullptr, &status)
          .has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Malformed);
  // Bad magic / version.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_report(bad).has_value());
  bad = good;
  bad[2] = 9;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Unknown flag bits (0x01 = authenticated and 0x02 = connection id
  // are defined; 0x04 is the first reserved bit).
  bad = good;
  bad[3] = 0x04;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Connection flag set without the 4 id bytes: truncated report.
  bad = good;
  bad[3] = kReportFlagConnection;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Channel count out of range (0 and > 32).
  bad = good;
  bad[4] = 0;
  EXPECT_FALSE(decode_report(bad).has_value());
  bad = good;
  bad[4] = 33;
  EXPECT_FALSE(decode_report(bad).has_value());
  // SACK word count over the wire limit.
  bad = good;
  bad[6] = 0xFF;
  bad[7] = 0xFF;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Truncated body and trailing junk (strict decode).
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(decode_report(bad).has_value());
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(decode_report(bad).has_value());
  // The untouched report still parses.
  EXPECT_TRUE(decode_report(good).has_value());
}

TEST(ReportCodec, EncodeRejectsOverWireLimits) {
  ReceiverReport r;
  r.channels.clear();  // zero channels
  EXPECT_THROW((void)encode_report(r), PreconditionError);
  r.channels.assign(kMaxReportChannels + 1, {});
  EXPECT_THROW((void)encode_report(r), PreconditionError);
  r.channels.assign(1, {});
  r.sack.assign(kMaxSackWords + 1, 0);
  EXPECT_THROW((void)encode_report(r), PreconditionError);
  r.sack.clear();
  r.delays.assign(kMaxDelaySamples + 1, {});
  EXPECT_THROW((void)encode_report(r), PreconditionError);
}

TEST(ReportCodec, PrefixParsesCoalescedReports) {
  auto r1 = sample_report();
  ReceiverReport r2;
  r2.seq = 8;
  r2.sack_base = 1;
  r2.channels = {{1, 0}};
  std::vector<std::uint8_t> buf = encode_report(r1);
  const std::size_t first_size = buf.size();
  const auto b2 = encode_report(r2);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::size_t consumed = 0;
  auto parsed = decode_report_prefix(buf, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r1);
  EXPECT_EQ(consumed, first_size);
  parsed = decode_report_prefix(std::span(buf).subspan(consumed), &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r2);

  // A malformed head consumes nothing: no resynchronization point.
  std::vector<std::uint8_t> junk(64, 0x55);
  consumed = 99;
  EXPECT_FALSE(decode_report_prefix(junk, &consumed).has_value());
  EXPECT_EQ(consumed, 0u);
}

TEST(ReportCodec, ConnectionIdRoundtrip) {
  auto r = sample_report();
  r.connection_id = 0xC0FFEE;
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes.size(), kReportHeaderSize + kReportConnectionIdSize +
                              8 * r.sack.size() + 16 * r.channels.size() +
                              16 * r.delays.size());
  EXPECT_EQ(bytes[3], kReportFlagConnection);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);

  // Authenticated: the tag covers the connection id — a forged demux
  // would let one flow's report ack another flow's packets.
  auto tagged = encode_report(r, &kKey);
  ASSERT_TRUE(decode_report(tagged, &kKey).has_value());
  tagged[kReportHeaderSize] ^= 0x01;  // first connection-id byte
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(tagged, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(ReportCodec, ConnectionZeroIsByteIdenticalToLegacyEncoding) {
  // Single-flow reports must not change on the wire just because the
  // session layer exists: connection 0 omits the field.
  auto r = sample_report();
  ASSERT_EQ(r.connection_id, 0u);
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes[3], 0);  // no flag bits
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->connection_id, 0u);
}

TEST(ReportCodec, NonCanonicalConnectionZeroRejected) {
  auto r = sample_report();
  r.connection_id = 1;
  auto bytes = encode_report(r);
  ASSERT_EQ(bytes[3], kReportFlagConnection);
  for (std::size_t i = 0; i < kReportConnectionIdSize; ++i) {
    bytes[kReportHeaderSize + i] = 0;  // id -> 0, flag still set
  }
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Malformed);
}

TEST(ReportCodec, RandomizedRoundtrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    ReceiverReport r;
    r.connection_id = static_cast<std::uint32_t>(rng.uniform_int(3) == 0
                                                     ? 0
                                                     : (rng() & 0xFFFFFFFF));
    r.seq = rng();
    r.receiver_time_ns = static_cast<std::int64_t>(rng() >> 1);
    r.packets_delivered = rng();
    r.sack_base = rng();
    r.sack.resize(rng.uniform_int(40));
    for (auto& w : r.sack) w = rng();
    r.channels.resize(1 + rng.uniform_int(kMaxReportChannels));
    for (auto& c : r.channels) c = {rng(), rng()};
    r.delays.resize(rng.uniform_int(11));
    for (auto& d : r.delays) {
      d = {rng(), static_cast<std::int64_t>(rng() >> 1)};
    }
    const bool keyed = rng.uniform_int(2) == 0;
    const auto bytes = encode_report(r, keyed ? &kKey : nullptr);
    const auto back = decode_report(bytes, keyed ? &kKey : nullptr);
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    EXPECT_EQ(*back, r) << "trial " << trial;
  }
}

TEST(ReportCodec, OneWayDelayDefinition) {
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(1'000'000'000, 1'250'000'000), 0.25);
  // Serialization time excluded (the model's d is propagation only)...
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(0, 300'000'000, 0.1), 0.2);
  // ...and clamped at zero rather than going negative.
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(0, 50'000'000, 0.1), 0.0);
}

// ----------------------------------------------------------- ReportBuilder

TEST(ReportBuilder, SackAndCountersAccumulate) {
  ReportBuilder builder({.num_channels = 2});
  builder.on_channel_frame(0, true);
  builder.on_channel_frame(0, false);  // arrived but undecodable
  builder.on_channel_frame(1, true);
  builder.on_delivered(1, 10);
  builder.on_delivered(3, 20);

  EXPECT_TRUE(builder.acked(1));
  EXPECT_FALSE(builder.acked(2));
  EXPECT_TRUE(builder.acked(3));

  const auto r1 = builder.build(100);
  EXPECT_EQ(r1.seq, 1u);
  EXPECT_EQ(r1.receiver_time_ns, 100);
  EXPECT_EQ(r1.packets_delivered, 2u);
  EXPECT_TRUE(r1.acked(1));
  EXPECT_FALSE(r1.acked(2));
  EXPECT_TRUE(r1.acked(3));
  ASSERT_EQ(r1.channels.size(), 2u);
  EXPECT_EQ(r1.channels[0], (ChannelCounters{2, 1}));
  EXPECT_EQ(r1.channels[1], (ChannelCounters{1, 0}));
  ASSERT_EQ(r1.delays.size(), 2u);
  EXPECT_EQ(r1.delays[0], (DelaySample{1, 10}));

  // Reports are cumulative: the next build restates SACK and counters,
  // but delay samples were drained.
  const auto r2 = builder.build(200);
  EXPECT_EQ(r2.seq, 2u);
  EXPECT_TRUE(r2.acked(1));
  EXPECT_EQ(r2.channels[0], (ChannelCounters{2, 1}));
  EXPECT_TRUE(r2.delays.empty());
  EXPECT_EQ(builder.reports_built(), 2u);
}

TEST(ReportBuilder, WindowSlidesForwardInWordSteps) {
  ReportBuilder builder({.num_channels = 1, .sack_window_words = 2});
  builder.on_delivered(1, 0);
  EXPECT_EQ(builder.sack_base(), 1u);
  // 128 ids fit; id 129 forces the window one word forward.
  builder.on_delivered(129, 0);
  EXPECT_GT(builder.sack_base(), 1u);
  EXPECT_FALSE(builder.acked(1));  // aged out
  EXPECT_TRUE(builder.acked(129));

  // A huge jump takes the full-clear path but keeps the new id acked.
  builder.on_delivered(1'000'000, 0);
  EXPECT_TRUE(builder.acked(1'000'000));
  EXPECT_FALSE(builder.acked(129));
  // The builder's view and the encoded report agree after the slides.
  const auto r = builder.build(0);
  EXPECT_TRUE(r.acked(1'000'000));
  EXPECT_FALSE(r.acked(129));
  EXPECT_EQ(r.packets_delivered, 3u);
}

TEST(ReportBuilder, DelayRingKeepsNewestSamples) {
  ReportBuilder builder({.num_channels = 1, .max_delay_samples = 4});
  for (std::uint64_t id = 1; id <= 10; ++id) {
    builder.on_delivered(id, static_cast<std::int64_t>(id) * 100);
  }
  const auto r = builder.build(0);
  ASSERT_EQ(r.delays.size(), 4u);
  EXPECT_EQ(r.delays.front().packet_id, 7u);  // oldest kept
  EXPECT_EQ(r.delays.back().packet_id, 10u);  // newest
}

// -------------------------------------------------------- RetransmitManager

ReceiverReport ack_report(std::uint64_t seq, std::uint64_t sack_base,
                          std::vector<std::uint64_t> acked_ids,
                          std::size_t num_channels = 1) {
  ReceiverReport r;
  r.seq = seq;
  r.sack_base = sack_base;
  r.sack.assign(4, 0);
  for (std::uint64_t id : acked_ids) {
    const std::uint64_t off = id - sack_base;
    r.sack[static_cast<std::size_t>(off / 64)] |= std::uint64_t{1}
                                                  << (off % 64);
  }
  r.channels.assign(num_channels, {});
  return r;
}

TEST(RetransmitManager, AckClosesPacketAndSamplesRtt) {
  RetransmitManager mgr({}, Rng(1));
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const std::vector<int> channels{0, 2};
  mgr.on_packet_sent(1, 2, payload, channels, 0);
  EXPECT_EQ(mgr.outstanding(), 1u);

  mgr.on_report(ack_report(1, 1, {1}), 100'000'000);  // acked at t=100ms
  EXPECT_EQ(mgr.outstanding(), 0u);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.stats().rtt_samples, 1u);
  EXPECT_NEAR(mgr.srtt_s(), 0.1, 1e-9);
  // RFC 6298 first sample: RTO = R + max(granularity, 4 * R/2) = 300ms.
  EXPECT_EQ(mgr.current_rto_ns(), 300'000'000);

  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].packet_id, 1u);
  EXPECT_TRUE(closed[0].acked);
  EXPECT_EQ(closed[0].retransmits, 0);
  EXPECT_EQ(closed[0].initial_mask, 0b101u);
  EXPECT_EQ(closed[0].exposure_mask, 0b101u);
  EXPECT_TRUE(mgr.drain_closed().empty());  // drained
}

TEST(RetransmitManager, TimeoutRetransmitsUntilBudgetThenAbandons) {
  RetransmitConfig config;
  config.max_retransmits = 2;
  config.initial_rto_ns = 100'000'000;
  RetransmitManager mgr(config, Rng(3));
  std::vector<std::uint8_t> seen_generations;
  mgr.set_retransmit([&](std::uint64_t id, std::uint8_t generation,
                         const std::vector<std::uint8_t>& payload, int k) {
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(k, 2);
    EXPECT_EQ(payload, (std::vector<std::uint8_t>{9, 9}));
    seen_generations.push_back(generation);
  });

  const std::vector<int> channels{0, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{9, 9}, channels, 0);
  std::int64_t now = 0;
  // Drive the RTO clock: each advance at the pending deadline fires one
  // retransmission until the budget is gone, then the packet is dropped.
  for (int round = 0; round < 3; ++round) {
    const auto deadline = mgr.next_deadline();
    ASSERT_TRUE(deadline.has_value());
    EXPECT_GT(*deadline, now);
    now = *deadline;
    mgr.advance(now);
  }
  EXPECT_FALSE(mgr.next_deadline().has_value());
  EXPECT_EQ(seen_generations, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(mgr.stats().retransmits, 2u);
  EXPECT_EQ(mgr.stats().packets_abandoned, 1u);
  EXPECT_EQ(mgr.outstanding(), 0u);

  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_FALSE(closed[0].acked);
  EXPECT_EQ(closed[0].retransmits, 2);
}

TEST(RetransmitManager, TrackingOnlyModeAbandonsAtFirstTimeout) {
  RetransmitConfig config;
  config.max_retransmits = 0;  // ARQ off: exposure/ack accounting only
  RetransmitManager mgr(config, Rng(3));
  bool retransmitted = false;
  mgr.set_retransmit([&](auto, auto, const auto&, auto) {
    retransmitted = true;
  });
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.advance(*mgr.next_deadline());
  EXPECT_FALSE(retransmitted);
  EXPECT_EQ(mgr.stats().packets_abandoned, 1u);
}

TEST(RetransmitManager, KarnRuleExcludesRetransmittedPackets) {
  RetransmitConfig config;
  config.initial_rto_ns = 100'000'000;
  RetransmitManager mgr(config, Rng(5));
  mgr.set_retransmit([](auto, auto, const auto&, auto) {});
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.advance(*mgr.next_deadline());  // one retransmission
  EXPECT_EQ(mgr.stats().retransmits, 1u);

  // The eventual ack closes the packet but its RTT (and one-way delay
  // samples) are ambiguous and must not train the estimator.
  auto report = ack_report(1, 1, {1});
  report.delays = {{1, 500'000'000}};
  mgr.on_report(report, 500'000'000);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.stats().rtt_samples, 0u);
  EXPECT_EQ(mgr.stats().delay.count(), 0u);
}

TEST(RetransmitManager, DelaySamplesJoinSendStamps) {
  RetransmitManager mgr({}, Rng(5));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(4, 1, std::vector<std::uint8_t>{1}, channels,
                     10'000'000);
  auto report = ack_report(1, 4, {4});
  report.delays = {{4, 35'000'000}};  // delivered 25ms after send
  mgr.on_report(report, 40'000'000);
  EXPECT_EQ(mgr.stats().delay.count(), 1u);
  EXPECT_NEAR(mgr.stats().delay.mean(), 0.025, 1e-9);
}

TEST(RetransmitManager, ReplayedAndStaleReportsDropped) {
  RetransmitManager mgr({}, Rng(7));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_packet_sent(2, 1, std::vector<std::uint8_t>{2}, channels, 0);

  mgr.on_report(ack_report(5, 1, {1}), 1000);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  // Replay of seq 5 and a reordered stale seq 4: both dropped wholesale,
  // even though seq 4 would have acked packet 2.
  mgr.on_report(ack_report(5, 1, {1}), 2000);
  mgr.on_report(ack_report(4, 1, {2}), 3000);
  EXPECT_EQ(mgr.stats().reports_replayed, 2u);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.outstanding(), 1u);
}

TEST(RetransmitManager, DatagramPathCountsMalformedAndAuthFailures) {
  RetransmitManager mgr({}, Rng(9));
  // Garbage datagram.
  mgr.on_report_datagram(std::vector<std::uint8_t>(32, 0xAB), 0);
  EXPECT_EQ(mgr.stats().reports_malformed, 1u);
  // Unauthenticated report hitting a keyed manager.
  const auto untagged = encode_report(ack_report(1, 1, {}));
  mgr.on_report_datagram(untagged, 0, &kKey);
  EXPECT_EQ(mgr.stats().reports_auth_failed, 1u);
  // Two coalesced valid reports parse in one datagram.
  auto buf = encode_report(ack_report(1, 1, {}), &kKey);
  const auto second = encode_report(ack_report(2, 1, {}), &kKey);
  buf.insert(buf.end(), second.begin(), second.end());
  mgr.on_report_datagram(buf, 0, &kKey);
  EXPECT_EQ(mgr.stats().reports_received, 2u);
}

TEST(RetransmitManager, SurvivesAReportStorm) {
  // Malformed, truncated, tampered, replayed, and valid reports
  // interleaved at random must leave the manager consistent: every
  // datagram lands in exactly one counter bucket and acks only move
  // forward.
  RetransmitConfig config;
  config.max_retransmits = 0;
  RetransmitManager mgr(config, Rng(11));
  Rng rng(77);
  const std::vector<int> channels{0};
  for (std::uint64_t id = 1; id <= 64; ++id) {
    mgr.on_packet_sent(id, 1, std::vector<std::uint8_t>{1}, channels, 0);
  }

  std::uint64_t valid_sent = 0;
  for (int i = 0; i < 500; ++i) {
    auto bytes = encode_report(
        ack_report(1 + rng.uniform_int(40), 1, {1 + rng.uniform_int(64)}), &kKey);
    switch (rng.uniform_int(4)) {
      case 0:  // valid (possibly replayed seq)
        ++valid_sent;
        break;
      case 1:  // truncated
        bytes.resize(bytes.size() / 2);
        break;
      case 2:  // tampered body (auth failure)
        bytes[kReportHeaderSize - 1] ^= 0x40;
        break;
      case 3:  // garbage head
        bytes[0] ^= 0xFF;
        break;
    }
    mgr.on_report_datagram(bytes, static_cast<std::int64_t>(i), &kKey);
  }
  const auto& s = mgr.stats();
  EXPECT_EQ(s.reports_received, valid_sent);
  EXPECT_EQ(s.reports_received + s.reports_malformed + s.reports_auth_failed,
            500u);
  EXPECT_LE(s.reports_replayed, s.reports_received);
  EXPECT_LE(s.packets_acked, 64u);
  EXPECT_EQ(mgr.outstanding(), 64u - s.packets_acked);
}

TEST(RetransmitManager, OverflowDisplacesTheOldestPacket) {
  RetransmitConfig config;
  config.max_outstanding = 2;
  RetransmitManager mgr(config, Rng(13));
  const std::vector<int> channels{0};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    mgr.on_packet_sent(id, 1, std::vector<std::uint8_t>{1}, channels, 0);
  }
  EXPECT_EQ(mgr.outstanding(), 2u);
  EXPECT_EQ(mgr.stats().packets_displaced, 1u);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].packet_id, 1u);
  EXPECT_FALSE(closed[0].acked);
}

TEST(RetransmitManager, ExposureUnionsAcrossRetransmissions) {
  RetransmitManager mgr({}, Rng(15));
  const std::vector<int> initial{0, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{1}, initial, 0);
  EXPECT_EQ(mgr.exposure_mask(1), 0b011u);
  const std::vector<int> retry{1, 2, 3};
  mgr.note_exposure(1, retry);
  EXPECT_EQ(mgr.exposure_mask(1), 0b1111u);

  mgr.on_report(ack_report(1, 1, {1}), 1000);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].initial_mask, 0b011u);
  EXPECT_EQ(closed[0].exposure_mask, 0b1111u);
  EXPECT_EQ(mgr.stats().initial_channel_sum, 2u);
  EXPECT_EQ(mgr.stats().exposure_channel_sum, 4u);

  // Telemetry counted every share: 2 initial + 3 on the retry.
  const auto& telemetry = mgr.channel_telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
  EXPECT_EQ(telemetry[1].shares_sent, 2u);
  EXPECT_EQ(telemetry[3].shares_sent, 1u);
}

TEST(RetransmitManager, SnapshotOpenCoversInFlightPackets) {
  RetransmitManager mgr({}, Rng(17));
  const std::vector<int> channels{0, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_packet_sent(2, 2, std::vector<std::uint8_t>{2}, channels, 0);
  const auto open = mgr.snapshot_open();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_FALSE(open[0].acked);
  EXPECT_EQ(open[0].exposure_mask, 0b011u);
  EXPECT_EQ(mgr.outstanding(), 2u);  // snapshot does not close
}

TEST(RetransmitManager, LinkMapUnionsAcrossRetransmissions) {
  RetransmitManager mgr({}, Rng(19));
  // ch0 -> links {0,1}, ch1 -> links {1,2}, ch2 -> link {3}.
  mgr.set_link_map({0b011, 0b110, 0b1000});
  const std::vector<int> initial{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, initial, 0);
  EXPECT_EQ(mgr.link_exposure(1), 0b011u);
  const std::vector<int> retry{1};
  mgr.note_exposure(1, retry);
  // Link 1 is shared between ch0 and ch1: the union adds only link 2.
  EXPECT_EQ(mgr.link_exposure(1), 0b111u);

  mgr.on_report(ack_report(1, 1, {1}), 1000);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].initial_link_mask, 0b011u);
  EXPECT_EQ(closed[0].link_exposure_mask, 0b111u);
  EXPECT_EQ(mgr.stats().initial_link_sum, 2u);
  EXPECT_EQ(mgr.stats().exposure_link_sum, 3u);
}

TEST(RetransmitManager, LinkMapInstallRequiresNothingOutstanding) {
  RetransmitManager mgr({}, Rng(21));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  EXPECT_THROW(mgr.set_link_map({0b1}), PreconditionError);
  // Without a map installed, link fields stay zero-valued.
  mgr.on_report(ack_report(1, 1, {1}), 1000);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].initial_link_mask, 0u);
  EXPECT_EQ(mgr.stats().initial_link_sum, 0u);
  EXPECT_FALSE(mgr.link_exposure(2).has_value());  // unknown packet
  mgr.set_link_map({0b1});  // legal again once everything closed
}

// ------------------------------------------------------ retransmit order

TEST(RetransmitOrder, ExposedChannelsFirstThenAscendingRiskThenIndex) {
  RetransmitManager mgr({}, Rng(23));
  const std::vector<int> initial{3, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{1}, initial, 0);
  // Exposed {1, 3} lead by their own risk; the rest follow by risk, and
  // channels 2 and 4 tie at 0.1 so the index decides.
  const std::vector<double> risks{0.3, 0.9, 0.1, 0.5, 0.1};
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 5, risks),
            (std::vector<int>{3, 1, 2, 4, 0}));
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 3, risks),
            (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 9, risks).size(), 5u);
  // No risk estimate (the live endpoints): exposed first, then index.
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 5), (std::vector<int>{1, 3, 0, 2, 4}));
  // Missing risk entries count as 0; an unknown packet exposes nothing.
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 5, std::vector<double>{0.3, 0.9}),
            (std::vector<int>{3, 1, 2, 4, 0}));
  EXPECT_EQ(retransmit_order(mgr, 7, 5, 5, risks),
            (std::vector<int>{2, 4, 0, 3, 1}));
}

TEST(RetransmitOrder, LinkModeFreeChannelsFirstThenAddedLinkRisk) {
  RetransmitManager mgr({}, Rng(25));
  // ch0 -> {0}, ch1 -> {0, 1}, ch2 -> {2}, ch3 -> {3, 4}; ch4 is beyond
  // the map and traverses no link.
  mgr.set_link_map({0b00001, 0b00011, 0b00100, 0b11000});
  const std::vector<int> initial{1};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, initial, 0);
  // Links {0, 1} are exposed, so ch0, ch1 and ch4 add nothing. ch2 adds
  // link 2 (risk 0.3); ch3 adds links 3 and 4, tapped with probability
  // 1 - 0.8 * 0.8 = 0.36, so it goes last although each of its links is
  // safer than link 2. Channel risks play no part in link mode.
  const std::vector<double> link_risks{0.5, 0.9, 0.3, 0.2, 0.2};
  const std::vector<double> channel_risks{0.9, 0.9, 0.0, 0.0, 0.9};
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 5, channel_risks, link_risks),
            (std::vector<int>{0, 1, 4, 2, 3}));
  EXPECT_EQ(retransmit_order(mgr, 1, 5, 4, channel_risks, link_risks),
            (std::vector<int>{0, 1, 4, 2}));
}

TEST(RetransmitOrder, RejectsChannelCountsOutsideTheExposureMask) {
  RetransmitManager mgr({}, Rng(27));
  const std::vector<int> initial{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, initial, 0);
  EXPECT_EQ(retransmit_order(mgr, 1, 32, 2), (std::vector<int>{0, 1}));
  EXPECT_THROW((void)retransmit_order(mgr, 1, 33, 2), PreconditionError);
  EXPECT_THROW((void)retransmit_order(mgr, 1, 0, 2), PreconditionError);
}

// -------------------------------------------------------------- redundancy

ChannelSet eval_channels() {
  // loss-sorted order: 1 (.005), 0 (.01), 2 (.02), 3 (.06), 4 (.10)
  return ChannelSet{{.risk = 0.2, .loss = 0.01, .delay = 0.01, .rate = 500},
                    {.risk = 0.3, .loss = 0.005, .delay = 0.01, .rate = 2000},
                    {.risk = 0.1, .loss = 0.02, .delay = 0.02, .rate = 1500},
                    {.risk = 0.2, .loss = 0.06, .delay = 0.03, .rate = 1500},
                    {.risk = 0.4, .loss = 0.10, .delay = 0.05, .rate = 3000}};
}

TEST(Redundancy, PicksSmallestFeasibleSubset) {
  const auto model = eval_channels();
  const RedundancyPlan plan =
      plan_redundancy(model, {.k = 2, .target_delivery = 0.999});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.k, 2);
  // k=2 over the two best channels misses 0.999 (loss ~ 1.5e-2 pairwise
  // ... actually l(2,{0,1}) = 1-(1-.01)(1-.005) ~ .015); three channels
  // suffice: l(2, {0,1,2}) ~ 3.5e-4 <= 1e-3.
  EXPECT_EQ(plan.channels, (std::vector<int>{0, 1, 2}));
  EXPECT_LE(plan.predicted_loss, 0.001);
  EXPECT_GT(plan.predicted_risk, 0.0);
  // Adding channels only helps loss, so the planner stopped at the
  // smallest m; m-1 must be infeasible.
  const Mask two_best = 0b10 | 0b01;
  EXPECT_GT(subset_loss(model, 2, two_best), 0.001);
}

TEST(Redundancy, RateFilterExcludesSlowChannels) {
  const auto model = eval_channels();
  // Offered 1000 pkt/s excludes channel 0 (500/s): the plan must not
  // contain it even though it is among the lowest-loss channels.
  const RedundancyPlan plan = plan_redundancy(
      model, {.k = 2, .target_delivery = 0.999, .offered_pps = 1000.0});
  ASSERT_TRUE(plan.feasible);
  EXPECT_TRUE(std::find(plan.channels.begin(), plan.channels.end(), 0) ==
              plan.channels.end());
  EXPECT_GE(plan.channels.size(), 2u);
}

TEST(Redundancy, InfeasibleGoalReturnsBestEffortPlan) {
  ChannelSet lossy{{.risk = 0.1, .loss = 0.4, .delay = 0.01, .rate = 100},
                   {.risk = 0.1, .loss = 0.4, .delay = 0.01, .rate = 100}};
  const RedundancyPlan plan =
      plan_redundancy(lossy, {.k = 2, .target_delivery = 0.999999});
  EXPECT_FALSE(plan.feasible);
  // Best effort: every eligible channel, with honest predictions.
  EXPECT_EQ(plan.channels, (std::vector<int>{0, 1}));
  EXPECT_GT(plan.predicted_loss, 1.0 - 0.999999);

  // Fewer than k eligible channels: empty plan.
  const RedundancyPlan none = plan_redundancy(
      lossy, {.k = 2, .target_delivery = 0.9, .offered_pps = 1000.0});
  EXPECT_FALSE(none.feasible);
  EXPECT_TRUE(none.channels.empty());
}

TEST(ProactiveScheduler, WaitsUntilEveryPlanChannelIsReady) {
  RedundancyPlan plan;
  plan.k = 2;
  plan.channels = {0, 2, 3};
  ProactiveScheduler sched(plan);
  std::vector<proto::ChannelView> view{
      {true, 0}, {true, 0}, {false, 0}, {true, 0}};
  EXPECT_FALSE(sched.next(view).has_value());  // channel 2 not ready
  view[2].ready = true;
  view[1].ready = false;  // non-plan channel may be busy
  const auto d = sched.next(view);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 2);
  EXPECT_EQ(d->channels, (std::vector<int>{0, 2, 3}));
}

// ------------------------------------------------------------ ReliableLink

struct ReliableTestbed {
  net::Simulator sim;
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::unique_ptr<net::SimChannel> feedback;
  std::unique_ptr<proto::Receiver> receiver;
  std::unique_ptr<proto::Sender> sender;
  std::unique_ptr<ReliableLink> link;
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;

  ReliableTestbed(std::vector<net::ChannelConfig> configs,
                  net::ChannelConfig feedback_config,
                  std::unique_ptr<proto::ShareScheduler> scheduler,
                  ReliableLinkConfig link_config, std::uint64_t seed) {
    Rng seeder(seed);
    std::vector<net::SimChannel*> raw;
    for (auto& cfg : configs) {
      channels.push_back(
          std::make_unique<net::SimChannel>(sim, cfg, seeder.fork()));
      raw.push_back(channels.back().get());
    }
    feedback = std::make_unique<net::SimChannel>(sim, feedback_config,
                                                 seeder.fork());
    receiver = std::make_unique<proto::Receiver>(sim);
    sender = std::make_unique<proto::Sender>(sim, raw, std::move(scheduler),
                                             seeder.fork());
    link = std::make_unique<ReliableLink>(sim, *sender, *receiver, raw,
                                          *feedback, std::move(link_config),
                                          seeder.fork());
    link->set_deliver([this](std::uint64_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
  }
};

std::vector<net::ChannelConfig> lossy_channels(int n, double loss) {
  net::ChannelConfig cfg;
  cfg.rate_bps = 20e6;
  cfg.loss = loss;
  cfg.delay = net::from_millis(1);
  std::vector<net::ChannelConfig> v(static_cast<std::size_t>(n), cfg);
  return v;
}

ReliableLinkConfig arq_config() {
  ReliableLinkConfig cfg;
  cfg.retransmit.max_retransmits = 6;
  cfg.retransmit.initial_rto_ns = 100'000'000;
  cfg.retransmit.min_rto_ns = 30'000'000;
  cfg.report_interval = net::from_millis(20);
  cfg.retransmit_extra = 1;
  return cfg;
}

TEST(ReliableLink, ArqRecoversPacketsBestEffortLoses) {
  // kappa = mu = 2 on 5%-lossy channels leaves zero share slack: ~9.7%
  // of packets die without ARQ. The reliable link must recover
  // essentially all of them within the run's drain time.
  const int count = 300;
  ReliableTestbed t(lossy_channels(3, 0.05), {.rate_bps = 10e6, .loss = 0.1},
                    std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 3),
                    arq_config(), /*seed=*/21);
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 1000),
                      [&t] { (void)t.sender->send({1, 2, 3, 4}); });
  }
  t.sim.run_until(net::from_seconds(4.0));

  EXPECT_GE(t.delivered.size(), static_cast<std::size_t>(count) - 1)
      << "ARQ should deliver >= 99.9%";
  const auto& stats = t.link->manager().stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.packets_acked, 0u);
  EXPECT_GT(stats.rtt_samples, 0u);
  EXPECT_GT(t.link->stats().reports_sent, 0u);
  // Retransmissions widen realized exposure beyond the initial plan.
  EXPECT_GE(stats.exposure_channel_sum, stats.initial_channel_sum);
}

TEST(ReliableLink, ExposureNeverShrinksAndCoversInitial) {
  ReliableTestbed t(lossy_channels(3, 0.08), {.rate_bps = 10e6},
                    std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 3),
                    arq_config(), /*seed=*/33);
  for (int i = 0; i < 200; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 1000),
                      [&t] { (void)t.sender->send({5, 6, 7}); });
  }
  t.sim.run_until(net::from_seconds(3.0));

  auto packets = t.link->manager().drain_closed();
  const auto open = t.link->manager().snapshot_open();
  packets.insert(packets.end(), open.begin(), open.end());
  ASSERT_EQ(packets.size(), 200u);
  for (const auto& p : packets) {
    EXPECT_EQ(p.exposure_mask & p.initial_mask, p.initial_mask)
        << "packet " << p.packet_id;
    if (p.retransmits == 0) {
      EXPECT_EQ(p.exposure_mask, p.initial_mask);
    }
  }
}

TEST(ReliableLink, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    ReliableTestbed t(lossy_channels(3, 0.05),
                      {.rate_bps = 10e6, .loss = 0.1},
                      std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 3),
                      arq_config(), seed);
    for (int i = 0; i < 100; ++i) {
      t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 1000),
                        [&t] { (void)t.sender->send({1, 2}); });
    }
    t.sim.run_until(net::from_seconds(2.0));
    return std::tuple{t.delivered.size(),
                      t.link->manager().stats().retransmits,
                      t.link->manager().stats().packets_acked,
                      t.link->manager().stats().exposure_channel_sum};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // the loss draws actually differ
}

/// Link-mode testbed: 4 lossless forward channels, a feedback channel
/// whose delay exceeds the whole run (no report ever returns, so every
/// RTO fires and the retransmit path runs a fixed number of times), one
/// packet. The
/// dynamic scheduler picks the least-backlogged ready channels — {0, 1}
/// at an idle start — so the initial link set is known exactly.
ClosedPacket one_packet_link_run(std::vector<std::uint64_t> masks,
                                 std::vector<double> link_risks,
                                 int retransmit_extra) {
  ReliableLinkConfig cfg;
  cfg.retransmit.max_retransmits = 2;
  cfg.retransmit.initial_rto_ns = 100'000'000;
  cfg.retransmit.min_rto_ns = 30'000'000;
  cfg.report_interval = net::from_millis(20);
  cfg.retransmit_extra = retransmit_extra;
  cfg.channel_link_masks = std::move(masks);
  cfg.link_risks = std::move(link_risks);
  ReliableTestbed t(lossy_channels(4, 0.0),
                    {.rate_bps = 10e6, .delay = net::from_seconds(10.0)},
                    std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 4),
                    std::move(cfg), /*seed=*/27);
  (void)t.sender->send({1, 2, 3});
  t.sim.run_until(net::from_seconds(2.0));
  EXPECT_EQ(t.link->manager().stats().retransmits, 2u);
  EXPECT_EQ(t.link->manager().stats().packets_abandoned, 1u);
  auto closed = t.link->manager().drain_closed();
  EXPECT_EQ(closed.size(), 1u);
  return closed.empty() ? ClosedPacket{} : closed[0];
}

TEST(ReliableLink, RetransmitReusesAlreadyExposedLinks) {
  // Channels 0/1 share link 0 and channels 2/3 share link 1: after the
  // initial send on {0, 1}, retransmitting over {0, 1} again is free
  // (the adversary tapping link 0 learned those shares already), so the
  // realized link union must never widen past the initial one.
  const auto p = one_packet_link_run({0b01, 0b01, 0b10, 0b10}, {0.5, 0.5},
                                     /*retransmit_extra=*/0);
  EXPECT_EQ(p.initial_link_mask, 0b01u);
  EXPECT_EQ(p.link_exposure_mask, 0b01u);
  EXPECT_EQ(p.retransmits, 2u);
}

TEST(ReliableLink, RetransmitAddsTheCheapestFreshLink) {
  // Disjoint single-link paths with retransmit_extra = 1 force one
  // fresh channel per retransmit: the pick must be channel 3 (added
  // link risk 0.01), not channel 2 (0.4), on top of the free {0, 1}.
  const auto p =
      one_packet_link_run({0b0001, 0b0010, 0b0100, 0b1000},
                          {0.5, 0.5, 0.4, 0.01}, /*retransmit_extra=*/1);
  EXPECT_EQ(p.initial_link_mask, 0b0011u);
  EXPECT_EQ(p.link_exposure_mask, 0b1011u);
  EXPECT_EQ(p.exposure_mask, 0b1011u);
}

TEST(ReliableLink, RejectsMoreForwardChannelsThanTheExposureMaskHolds) {
  net::Simulator sim;
  Rng seeder(29);
  std::vector<std::unique_ptr<net::SimChannel>> storage;
  std::vector<net::SimChannel*> forward;
  for (int i = 0; i < 33; ++i) {
    storage.push_back(
        std::make_unique<net::SimChannel>(sim, net::ChannelConfig{},
                                          seeder.fork()));
    forward.push_back(storage.back().get());
  }
  net::SimChannel feedback(sim, net::ChannelConfig{}, seeder.fork());
  proto::Receiver receiver(sim);
  proto::Sender sender(sim, std::vector<net::SimChannel*>{forward[0]},
                       std::make_unique<proto::DynamicScheduler>(1.0, 1.0, 1),
                       seeder.fork());
  EXPECT_THROW(ReliableLink(sim, sender, receiver, forward, feedback, {},
                            seeder.fork()),
               PreconditionError);
}

TEST(ReliableLink, AuthenticatedReportsRejectForgeries) {
  ReliableLinkConfig cfg = arq_config();
  cfg.report_auth_key = kKey;
  ReliableTestbed t(lossy_channels(2, 0.0), {.rate_bps = 10e6},
                    std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 2),
                    std::move(cfg), /*seed=*/9);
  (void)t.sender->send({1, 2, 3});
  // A forged (unkeyed) report injected onto the feedback channel must be
  // rejected; the genuine keyed reports keep flowing.
  t.sim.schedule_at(net::from_millis(5), [&t] {
    (void)t.feedback->try_send(encode_report(ack_report(99, 1, {1})));
  });
  t.sim.run_until(net::from_seconds(0.5));
  EXPECT_EQ(t.link->manager().stats().reports_auth_failed, 1u);
  EXPECT_GT(t.link->manager().stats().reports_received, 0u);
  EXPECT_EQ(t.delivered.size(), 1u);
}

// --------------------------------------------- re-split + receiver behavior

TEST(Resend, FreshShareBytesStillReconstruct) {
  // The ISSUE's acceptance test: a retransmitted share must carry
  // DIFFERENT bytes than the original (fresh polynomial), and the
  // retransmitted generation alone must reconstruct the packet.
  net::Simulator sim;
  Rng seeder(51);
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::vector<net::SimChannel*> raw;
  for (int i = 0; i < 2; ++i) {
    channels.push_back(std::make_unique<net::SimChannel>(
        sim, net::ChannelConfig{.rate_bps = 10e6}, seeder.fork()));
    raw.push_back(channels.back().get());
  }
  std::vector<std::vector<std::uint8_t>> captured;
  for (auto* ch : raw) {
    ch->set_receiver(
        [&](std::vector<std::uint8_t> f) { captured.push_back(std::move(f)); });
  }
  proto::Sender sender(
      sim, raw, std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 2),
      seeder.fork());

  const std::vector<std::uint8_t> payload{10, 20, 30, 40, 50};
  ASSERT_TRUE(sender.send(payload));
  sim.run();
  ASSERT_EQ(captured.size(), 2u);  // generation-0 shares
  const auto originals = captured;

  captured.clear();
  const std::vector<int> both{0, 1};
  sender.resend(1, 1, payload, 2, both);
  sim.run();
  ASSERT_EQ(captured.size(), 2u);  // generation-1 shares

  std::map<std::uint8_t, proto::ShareFrame> gen0, gen1;
  for (const auto& bytes : originals) {
    auto f = proto::decode(bytes);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->generation, 0);
    gen0[f->share_index] = *f;
  }
  for (const auto& bytes : captured) {
    auto f = proto::decode(bytes);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->generation, 1);
    gen1[f->share_index] = *f;
    // Same (packet, index) across generations -> different share bytes.
    if (gen0.contains(f->share_index)) {
      EXPECT_NE(gen0[f->share_index].payload, f->payload);
    }
  }
  EXPECT_EQ(sender.stats().packets_retransmitted, 1u);
  EXPECT_EQ(sender.stats().shares_retransmitted, 2u);

  // The retransmitted generation reconstructs on its own.
  proto::Receiver rx(sim);
  std::vector<std::uint8_t> out;
  rx.set_deliver(
      [&](std::uint64_t, std::vector<std::uint8_t> p) { out = std::move(p); });
  for (const auto& bytes : captured) {
    rx.on_frame(bytes);
  }
  EXPECT_EQ(out, payload);
}

TEST(Resend, ReceiverSupersedesOldGenerationAndDropsStale) {
  // Mixing generations must never happen: a newer generation restarts
  // reassembly, an older one is dropped as stale.
  net::Simulator sim;
  Rng rng(61);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  auto gen_frames = [&](std::uint8_t generation) {
    auto shares = sss::split(payload, 2, 2, rng);
    std::vector<std::vector<std::uint8_t>> frames;
    for (const auto& s : shares) {
      proto::ShareFrame f;
      f.packet_id = 1;
      f.k = 2;
      f.share_index = s.index;
      f.generation = generation;
      f.payload = s.data;
      frames.push_back(proto::encode(f));
    }
    return frames;
  };

  proto::Receiver rx(sim);
  std::vector<std::uint8_t> out;
  rx.set_deliver(
      [&](std::uint64_t, std::vector<std::uint8_t> p) { out = std::move(p); });

  const auto old_gen = gen_frames(1);
  const auto new_gen = gen_frames(2);
  rx.on_frame(old_gen[0]);       // partial starts at generation 1
  rx.on_frame(new_gen[0]);       // generation 2 supersedes it
  EXPECT_EQ(rx.stats().partials_superseded, 1u);
  rx.on_frame(old_gen[1]);       // stale generation-1 share: dropped
  EXPECT_EQ(rx.stats().stale_generation_shares, 1u);
  EXPECT_TRUE(out.empty());      // one share of generation 2 held
  rx.on_frame(new_gen[1]);       // completes generation 2
  EXPECT_EQ(out, payload);
}

}  // namespace
}  // namespace mcss::feedback
