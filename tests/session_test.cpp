// SessionEndpoint: flow multiplexing over one shared channel set.
//
// The properties under test are the session layer's safety claims:
// demux isolation (one flow's frames/reports never touch another flow's
// state — both flows deliberately reuse the same packet ids), admission
// accounting, per-flow memory degradation, and churn/teardown safety
// with timers in flight (the ASan leg is the real referee for the
// latter: these tests run under CI's sanitizer job).
#include "session/session_endpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "feedback/report.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_time.hpp"
#include "util/rng.hpp"

namespace mcss {
namespace {

using session::FlowParams;
using session::SessionConfig;
using session::SessionEndpoint;

std::vector<std::uint8_t> pattern_payload(std::size_t size, std::uint8_t tag) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(tag ^ (i & 0xFF));
  }
  return payload;
}

SessionConfig clean_config(std::size_t num_channels = 3,
                           double rate_bps = 200e6) {
  SessionConfig config;
  for (std::size_t i = 0; i < num_channels; ++i) {
    net::ChannelConfig ch;
    ch.rate_bps = rate_bps;
    transport::LiveChannelSpec spec;
    spec.config = ch;
    spec.name = "ch" + std::to_string(i);
    config.channels.push_back(std::move(spec));
  }
  config.seed = 7;
  return config;
}

/// Pump the endpoint until `done()` or `wall_ms` of real time passes.
template <typename Pred>
bool run_until(SessionEndpoint& ep, Pred done, std::int64_t wall_ms = 2000) {
  const std::int64_t deadline = ep.now_ns() + wall_ms * 1'000'000;
  while (!done()) {
    if (ep.now_ns() >= deadline) return false;
    ep.run_for(2'000'000);
  }
  return true;
}

TEST(Session, SingleFlowDeliversThroughSessionLayer) {
  SessionConfig config = clean_config();
  config.auth_key = crypto::SipHashKey{{1, 2, 3, 4}};
  SessionEndpoint ep(std::move(config));

  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  std::uint32_t delivered_cid = 0;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered_cid = cid;
    delivered[id] = std::move(payload);
  });

  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  EXPECT_NE(*cid, 0u);

  constexpr int kPackets = 12;
  std::map<std::uint64_t, std::vector<std::uint8_t>> sent;
  for (int i = 0; i < kPackets; ++i) {
    auto payload = pattern_payload(200 + static_cast<std::size_t>(i),
                                   static_cast<std::uint8_t>(i));
    sent[static_cast<std::uint64_t>(i + 1)] = payload;
    ASSERT_TRUE(ep.send(*cid, std::move(payload)));
  }
  ASSERT_TRUE(run_until(
      ep, [&] { return delivered.size() == kPackets; }));

  EXPECT_EQ(delivered_cid, *cid);
  EXPECT_EQ(delivered, sent);  // packet ids are flow-scoped, starting at 1
  EXPECT_GT(ep.stats().frames_demuxed, 0u);
  EXPECT_EQ(ep.stats().frames_unknown_connection, 0u);
  EXPECT_EQ(ep.stats().frames_without_connection, 0u);
  const proto::Receiver* rx = ep.flow_receiver(*cid);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->stats().packets_delivered, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(rx->stats().auth_failures, 0u);
}

TEST(Session, KeyedFlowsQuarantineCorruptedShares) {
  // Shares sealed per packet in one multi-lane pass: every flow's
  // receiver must still reject the frames a Byzantine channel flipped a
  // bit in, and deliver only intact payloads.
  SessionConfig config = clean_config(4);
  for (auto& spec : config.channels) spec.config.corrupt = 0.1;
  config.auth_key = crypto::SipHashKey{{9, 8, 7, 6}};
  SessionEndpoint ep(std::move(config));

  std::map<std::uint32_t, std::map<std::uint64_t, std::vector<std::uint8_t>>>
      delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[cid][id] = std::move(payload);
  });
  const auto a = ep.open_flow();
  const auto b = ep.open_flow();
  ASSERT_TRUE(a && b);
  constexpr int kPackets = 12;  // within the per-flow send queue
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*a, pattern_payload(800, 0xA0)));
    ASSERT_TRUE(ep.send(*b, pattern_payload(900, 0xB0)));
  }
  (void)run_until(ep, [] { return false; }, 300);

  std::uint64_t auth_failures = 0;
  std::uint64_t frames_received = 0;
  for (const auto cid : {*a, *b}) {
    const proto::Receiver* rx = ep.flow_receiver(cid);
    ASSERT_NE(rx, nullptr);
    auth_failures += rx->stats().auth_failures;
    frames_received += rx->stats().frames_received;
    EXPECT_GT(rx->stats().packets_delivered, 0u) << "flow " << cid;
  }
  EXPECT_GT(auth_failures, 0u);
  EXPECT_EQ(frames_received, ep.stats().frames_demuxed);
  for (const auto& [id, payload] : delivered[*a]) {
    EXPECT_EQ(payload, pattern_payload(800, 0xA0)) << "flow A packet " << id;
  }
  for (const auto& [id, payload] : delivered[*b]) {
    EXPECT_EQ(payload, pattern_payload(900, 0xB0)) << "flow B packet " << id;
  }
}

TEST(Session, FlowsWithEqualPacketIdsNeverMix) {
  // Both flows number their packets 1..N; if demux ever leaked a share
  // across flows, the mixed reassembly would surface as conflicting
  // metadata (the payload sizes differ) or corrupted payloads.
  SessionEndpoint ep(clean_config());

  std::map<std::uint32_t, std::map<std::uint64_t, std::vector<std::uint8_t>>>
      delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[cid][id] = std::move(payload);
  });

  const auto a = ep.open_flow();
  const auto b = ep.open_flow();
  ASSERT_TRUE(a && b);
  ASSERT_NE(*a, *b);

  constexpr int kPackets = 8;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*a, pattern_payload(96, 0xA0)));
    ASSERT_TRUE(ep.send(*b, pattern_payload(160, 0xB0)));
  }
  ASSERT_TRUE(run_until(ep, [&] {
    return delivered[*a].size() == kPackets && delivered[*b].size() == kPackets;
  }));

  for (const auto& [id, payload] : delivered[*a]) {
    EXPECT_EQ(payload, pattern_payload(96, 0xA0)) << "flow A packet " << id;
  }
  for (const auto& [id, payload] : delivered[*b]) {
    EXPECT_EQ(payload, pattern_payload(160, 0xB0)) << "flow B packet " << id;
  }
  for (const auto cid : {*a, *b}) {
    const proto::Receiver* rx = ep.flow_receiver(cid);
    ASSERT_NE(rx, nullptr);
    EXPECT_EQ(rx->stats().conflicting_metadata, 0u);
    EXPECT_EQ(rx->stats().packets_delivered,
              static_cast<std::uint64_t>(kPackets));
  }
}

TEST(Session, ReportDemuxNeverAcksAnotherFlowsPackets) {
  SessionConfig config = clean_config();
  config.reliability.enabled = true;
  SessionEndpoint ep(std::move(config));

  const auto a = ep.open_flow();
  const auto b = ep.open_flow();
  ASSERT_TRUE(a && b);

  // One packet on each flow; both are packet id 1 within their flows.
  // A single run_for(0) iteration dispatches (managers start tracking)
  // without receiving anything back yet.
  ASSERT_TRUE(ep.send(*a, pattern_payload(64, 0x0A)));
  ASSERT_TRUE(ep.send(*b, pattern_payload(64, 0x0B)));
  ep.run_for(0);
  feedback::RetransmitManager* ma = ep.flow_manager(*a);
  feedback::RetransmitManager* mb = ep.flow_manager(*b);
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  ASSERT_EQ(ma->outstanding(), 1u);
  ASSERT_EQ(mb->outstanding(), 1u);

  // A receiver report for flow A acking packet id 1.
  feedback::ReceiverReport report;
  report.connection_id = *a;
  report.seq = 1;
  report.receiver_time_ns = ep.now_ns();
  report.packets_delivered = 1;
  report.sack_base = 1;
  report.sack = {1};  // bit 0: packet id 1 delivered
  report.channels.resize(ep.num_channels());
  const auto bytes = feedback::encode_report(report);

  ep.on_feedback_datagram(bytes, ep.now_ns());
  // Flow A: acked and closed. Flow B: untouched, even though its packet
  // has the very same id the report acknowledged.
  EXPECT_EQ(ma->stats().packets_acked, 1u);
  EXPECT_EQ(ma->outstanding(), 0u);
  EXPECT_EQ(mb->stats().packets_acked, 0u);
  EXPECT_EQ(mb->stats().reports_received, 0u);
  EXPECT_EQ(mb->outstanding(), 1u);
  EXPECT_EQ(ep.stats().reports_demuxed, 1u);

  // Replaying the same report is dropped by flow A's own seq check.
  ep.on_feedback_datagram(bytes, ep.now_ns());
  EXPECT_EQ(ma->stats().reports_replayed, 1u);
  EXPECT_EQ(ma->stats().packets_acked, 1u);

  // A report without a connection id has no owner in a session: dropped
  // before ANY manager sees it (downgrade to the single-flow encoding
  // must not alias onto some arbitrary flow).
  feedback::ReceiverReport anonymous = report;
  anonymous.connection_id = 0;
  anonymous.seq = 2;
  ep.on_feedback_datagram(feedback::encode_report(anonymous), ep.now_ns());
  EXPECT_EQ(ep.stats().reports_without_connection, 1u);
  EXPECT_EQ(mb->stats().reports_received, 0u);

  // Unknown connection id (closed flow / forgery): likewise dropped.
  feedback::ReceiverReport stranger = report;
  stranger.connection_id = 0x7777;
  stranger.seq = 3;
  ep.on_feedback_datagram(feedback::encode_report(stranger), ep.now_ns());
  EXPECT_EQ(ep.stats().reports_unknown_connection, 1u);
  EXPECT_EQ(mb->outstanding(), 1u);
}

TEST(Session, AdmissionSharesRateBudgetAndRefusesBeyondIt) {
  // Small channels so the budget admits only a handful of flows.
  SessionConfig config = clean_config(3, 1e6);  // 3 x 125 kB/s
  SessionEndpoint ep(std::move(config));

  FlowParams params;
  params.rate_pps = 50.0;
  params.payload_bytes = 256;

  std::vector<std::uint32_t> admitted;
  while (true) {
    const auto cid = ep.open_flow(params);
    if (!cid) break;
    admitted.push_back(*cid);
    ASSERT_LT(admitted.size(), 1000u) << "admission never refused";
  }
  EXPECT_GT(admitted.size(), 0u);
  EXPECT_EQ(ep.stats().flows_rejected_rate, 1u);
  // The reservation ledger matches the budget: admitted rate fits, one
  // more flow would not.
  EXPECT_LE(ep.admitted_bytes_per_s(), ep.admission_budget_bytes_per_s());
  EXPECT_GT(ep.admitted_bytes_per_s() +
                ep.admitted_bytes_per_s() / static_cast<double>(admitted.size()),
            ep.admission_budget_bytes_per_s());

  // Closing a flow releases its reservation; the next open succeeds.
  ASSERT_TRUE(ep.close_flow(admitted.back()));
  const auto reopened = ep.open_flow(params);
  EXPECT_TRUE(reopened.has_value());

  // The capacity cap refuses independently of rate.
  SessionConfig tiny = clean_config();
  tiny.limits.max_flows = 2;
  SessionEndpoint small(std::move(tiny));
  EXPECT_TRUE(small.open_flow());
  EXPECT_TRUE(small.open_flow());
  EXPECT_FALSE(small.open_flow());
  EXPECT_EQ(small.stats().flows_rejected_capacity, 1u);
}

TEST(Session, MemoryPressureEvictsWithinTheOffendingFlowOnly) {
  // Channel 2 loses 90% of its frames. Flow A insists on k = m = 3, so
  // nearly every packet is stuck as a 2-share partial until its flow-
  // local memory cap evicts it. Flow B sends k = 1 singletons that
  // complete instantly. A's pressure must never evict B's state, and B
  // must keep delivering while A degrades.
  SessionConfig config = clean_config();
  config.channels[2].config.loss = 0.9;
  config.receiver.reassembly_timeout = net::from_millis(5000);
  config.limits.per_flow_memory_bytes = 4096;
  SessionEndpoint ep(std::move(config));

  std::map<std::uint32_t, std::size_t> delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered[cid];
  });

  FlowParams heavy;
  heavy.kappa = 3.0;
  heavy.mu = 3.0;
  heavy.payload_bytes = 1024;
  FlowParams light;
  light.kappa = 1.0;
  light.mu = 1.0;
  light.payload_bytes = 64;
  const auto a = ep.open_flow(heavy);
  const auto b = ep.open_flow(light);
  ASSERT_TRUE(a && b);

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      ep.send(*a, pattern_payload(1024, 0xAA));
      ep.send(*b, pattern_payload(64, 0xBB));
    }
    ep.run_for(30'000'000);
  }

  const proto::Receiver* ra = ep.flow_receiver(*a);
  const proto::Receiver* rb = ep.flow_receiver(*b);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  // The offending flow degraded within its own cap...
  EXPECT_GT(ra->stats().packets_evicted_memory +
                ra->stats().shares_dropped_memory,
            0u);
  EXPECT_LE(ra->buffered_bytes(), 4096u);
  // ...while its neighbour was untouched and kept delivering.
  EXPECT_EQ(rb->stats().packets_evicted_memory, 0u);
  EXPECT_EQ(rb->stats().shares_dropped_memory, 0u);
  EXPECT_GT(delivered[*b], 0u);
}

TEST(Session, TeardownBetweenArmAndFireIsSafe) {
  // A flow is closed while (a) its RTO timer is armed on the shared
  // wheel, (b) reassembly eviction timers for its partials are parked in
  // the shared timeline, and (c) its shares are still in flight. Running
  // well past every deadline afterwards must touch no freed state — the
  // CI sanitizer leg turns any violation into a failure.
  SessionConfig config = clean_config();
  config.channels[2].config.loss = 0.9;  // keep partials open at close
  config.reliability.enabled = true;
  config.receiver.reassembly_timeout = net::from_millis(50);
  SessionEndpoint ep(std::move(config));

  FlowParams stubborn;
  stubborn.kappa = 3.0;
  stubborn.mu = 3.0;
  const auto cid = ep.open_flow(stubborn);
  ASSERT_TRUE(cid.has_value());
  for (int i = 0; i < 6; ++i) {
    ep.send(*cid, pattern_payload(512, 0xCC));
  }
  ep.run_for(5'000'000);  // dispatch, deliver some shares, arm the RTO
  ASSERT_TRUE(ep.close_flow(*cid));
  EXPECT_EQ(ep.num_flows(), 0u);

  // Cross the RTO (200 ms default), the report interval, and the
  // reassembly timeout. Late shares of the closed flow must be counted
  // as unknown-connection, not fed to anything.
  ep.run_for(300'000'000);
  EXPECT_FALSE(ep.close_flow(*cid));  // already gone
  EXPECT_EQ(ep.stats().flows_closed, 1u);
}

TEST(Session, ManyflowChurnSoak) {
  // >= 1k concurrent flows with arrivals, departures, retransmission
  // machinery armed, and traffic on every flow — seeded, so the ASan leg
  // replays the same churn. This is the flow-scale regression net: leaks
  // of per-flow state, stale intrusive-list links, or timers outliving
  // their flow all surface here.
  SessionConfig config = clean_config(3, 2e9);
  config.reliability.enabled = true;
  config.limits.max_flows = 4096;
  SessionEndpoint ep(std::move(config));

  std::map<std::uint32_t, std::size_t> delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered[cid];
  });

  FlowParams params;
  params.rate_pps = 5.0;
  params.payload_bytes = 64;

  Rng rng(42);
  std::vector<std::uint32_t> open;
  constexpr std::size_t kTarget = 1200;
  while (open.size() < kTarget) {
    for (int i = 0; i < 100 && open.size() < kTarget; ++i) {
      const auto cid = ep.open_flow(params);
      ASSERT_TRUE(cid.has_value());
      open.push_back(*cid);
      ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(*cid)));
    }
    ep.run_for(1'000'000);
  }
  EXPECT_EQ(ep.num_flows(), kTarget);

  // Churn: replace 600 flows, one packet each, pumping as we go.
  constexpr std::size_t kChurn = 600;
  for (std::size_t i = 0; i < kChurn; ++i) {
    const std::size_t victim =
        static_cast<std::size_t>(rng.uniform_int(open.size()));
    ASSERT_TRUE(ep.close_flow(open[victim]));
    const auto cid = ep.open_flow(params);
    ASSERT_TRUE(cid.has_value());
    open[victim] = *cid;
    ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(*cid)));
    if (i % 50 == 49) ep.run_for(2'000'000);
  }
  ep.run_for(100'000'000);  // drain

  EXPECT_EQ(ep.num_flows(), kTarget);
  EXPECT_EQ(ep.stats().flows_opened, kTarget + kChurn);
  EXPECT_EQ(ep.stats().flows_closed, kChurn);
  // The overwhelming majority of packets deliver; the losses are those
  // in flight when their flow was churned out (counted as unknown
  // connection at the demux, never misrouted).
  EXPECT_GT(ep.stats().packets_delivered,
            (8 * ep.stats().packets_sent) / 10);
  EXPECT_EQ(ep.stats().frames_without_connection, 0u);
  EXPECT_GT(ep.stats().reports_demuxed, 0u);

  std::size_t delivered_to_live = 0;
  for (const auto cid : open) delivered_to_live += delivered[cid];
  EXPECT_GT(delivered_to_live, 0u);

  for (const auto cid : open) ASSERT_TRUE(ep.close_flow(cid));
  EXPECT_EQ(ep.num_flows(), 0u);
  ep.run_for(50'000'000);  // let every orphaned timer fire as a no-op
}

}  // namespace
}  // namespace mcss
