// Full-stack integration scenarios: every subsystem composed at once.
// Uses only the umbrella header, which doubles as its compilation test.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "mcss.hpp"

namespace mcss {
namespace {

crypto::SipHashKey session_key() {
  crypto::SipHashKey key{};
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xC0 + i);
  }
  return key;
}

TEST(Integration, HostileNetworkFullStack) {
  // Authenticated ReMICSS over five channels that are simultaneously
  // lossy, jittery, corrupting, duplicating, AND suffer a silent outage —
  // every delivered packet must be intact and delivered at most once.
  net::Simulator sim;
  Rng root(77);

  std::vector<std::unique_ptr<net::SimChannel>> storage;
  std::vector<net::SimChannel*> wires;
  for (int i = 0; i < 5; ++i) {
    net::ChannelConfig cfg;
    cfg.rate_bps = 50e6;
    cfg.loss = 0.05;
    cfg.delay = net::from_millis(1);
    cfg.jitter = net::from_millis(2);
    cfg.corrupt = 0.02;
    cfg.duplicate = 0.02;
    storage.push_back(std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
    wires.push_back(storage.back().get());
  }
  // Channel 2 goes dark for 200 ms mid-run.
  sim.schedule_at(net::from_millis(300), [&] { wires[2]->set_down(true); });
  sim.schedule_at(net::from_millis(500), [&] { wires[2]->set_down(false); });

  proto::ReceiverConfig rx_cfg;
  rx_cfg.auth_key = session_key();
  proto::SenderConfig tx_cfg;
  tx_cfg.auth_key = session_key();

  std::map<std::uint64_t, int> deliveries_per_id;
  std::vector<std::vector<std::uint8_t>> delivered;
  proto::Receiver rx(sim, rx_cfg);
  for (auto* w : wires) rx.attach(*w);
  rx.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t> payload) {
    ++deliveries_per_id[id];
    delivered.push_back(std::move(payload));
  });

  // kappa = 2, mu = 5: three shares of slack against loss+corruption+outage.
  proto::Sender tx(sim, wires,
                   std::make_unique<proto::DynamicScheduler>(2.0, 5.0, 5),
                   root.fork(), nullptr, tx_cfg);

  const int count = 1500;
  for (int i = 0; i < count; ++i) {
    sim.schedule_at(net::from_micros(static_cast<double>(i) * 600), [&, i] {
      (void)tx.send({static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(i >> 8), 0x42});
    });
  }
  sim.run();

  // Corruption was detected and quarantined, not passed through.
  EXPECT_GT(rx.stats().auth_failures, 0u);
  // Despite ~5% loss + 2% corruption + an outage, the k=2/m=5 margin
  // delivers nearly everything.
  EXPECT_GT(delivered.size(), static_cast<std::size_t>(count) * 95 / 100);
  for (const auto& [id, times] : deliveries_per_id) {
    EXPECT_EQ(times, 1) << "packet " << id << " delivered more than once";
  }
  for (const auto& payload : delivered) {
    ASSERT_EQ(payload.size(), 3u);
    EXPECT_LT(payload[0] | (payload[1] << 8), count);
    EXPECT_EQ(payload[2], 0x42);  // payload integrity
  }
}

TEST(Integration, RemicssOutperformsMicssUnderLoss) {
  // The paper's core protocol argument, as one assertion: on lossy
  // channels, best-effort threshold shares (ReMICSS) sustain multiples of
  // the goodput of reliable n-of-n transport (MICSS), which stalls on
  // every lost share.
  const double loss = 0.05;
  const double duration_s = 2.0;

  // --- ReMICSS at kappa = 3, mu = 5 (same privacy floor as MICSS k=n
  // against 2-channel adversaries is kappa >= 3; generous to MICSS).
  auto run_remicss = [&] {
    net::Simulator sim;
    Rng root(5);
    std::vector<std::unique_ptr<net::SimChannel>> storage;
    std::vector<net::SimChannel*> wires;
    for (int i = 0; i < 5; ++i) {
      net::ChannelConfig cfg;
      cfg.rate_bps = 20e6;
      cfg.loss = loss;
      cfg.delay = net::from_millis(1);
      storage.push_back(std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
      wires.push_back(storage.back().get());
    }
    proto::Receiver rx(sim);
    for (auto* w : wires) rx.attach(*w);
    std::uint64_t bytes = 0;
    rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
      bytes += p.size();
    });
    proto::Sender tx(sim, wires,
                     std::make_unique<proto::DynamicScheduler>(3.0, 5.0, 5),
                     root.fork());
    workload::CbrSource source(sim, 100e6, 1470, 0,
                               net::from_seconds(duration_s),
                               [&](std::vector<std::uint8_t> p) {
                                 return tx.send(std::move(p));
                               });
    sim.run();
    return static_cast<double>(bytes) * 8 / duration_s / 1e6;
  };

  // --- MICSS (k = m = 5, reliable ARQ on every share).
  auto run_micss = [&] {
    net::Simulator sim;
    Rng root(6);
    std::vector<std::unique_ptr<net::SimChannel>> fwd_storage, rev_storage;
    std::vector<net::SimChannel*> fwd, rev;
    for (int i = 0; i < 5; ++i) {
      net::ChannelConfig cfg;
      cfg.rate_bps = 20e6;
      cfg.loss = loss;
      cfg.delay = net::from_millis(1);
      fwd_storage.push_back(std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
      fwd.push_back(fwd_storage.back().get());
      rev_storage.push_back(std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
      rev.push_back(rev_storage.back().get());
    }
    proto::MicssReceiver rx(sim, fwd, rev);
    std::uint64_t bytes = 0;
    rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
      bytes += p.size();
    });
    proto::MicssConfig cfg;
    cfg.rto = net::from_millis(10);
    cfg.window_packets = 64;
    proto::MicssSender tx(sim, fwd, rev, root.fork(), cfg);
    workload::CbrSource source(sim, 100e6, 1470, 0,
                               net::from_seconds(duration_s),
                               [&](std::vector<std::uint8_t> p) {
                                 return tx.send(std::move(p));
                               });
    sim.run();
    return static_cast<double>(bytes) * 8 / duration_s / 1e6;
  };

  const double remicss_mbps = run_remicss();
  const double micss_mbps = run_micss();
  // ReMICSS at mu = 5 over 5 x 20 Mbps: ~20 Mbps goodput ceiling, minus
  // the l(3, M) symbol loss. MICSS is also ceilinged at ~20 Mbps but
  // pays ARQ stalls on ~23% of packets (1 - 0.95^5).
  EXPECT_GT(remicss_mbps, 17.0);
  EXPECT_GT(remicss_mbps, micss_mbps * 1.15);
}

TEST(Integration, PlannerPredictionsHoldEndToEnd) {
  // plan_parameters -> custom schedule -> run_experiment: measured risk
  // proxy (kappa floor), loss, and rate must match the plan.
  const auto setup = workload::lossy_setup();
  const auto model = setup.to_model(1470);
  PlannerGoal goal;
  goal.max_loss = 0.01;
  goal.max_risk = 0.10;
  const auto plan = plan_parameters(model, goal);
  ASSERT_TRUE(plan.feasible);

  workload::ExperimentConfig cfg;
  cfg.setup = setup;
  cfg.kappa = plan.kappa;
  cfg.mu = plan.mu;
  cfg.scheduler = workload::SchedulerKind::Custom;
  cfg.custom_schedule = plan.schedule;
  cfg.offered_bps = 0.95 * plan.rate * 1470 * 8;
  cfg.duration_s = 1.0;
  const auto result = workload::run_experiment(cfg);

  EXPECT_NEAR(result.achieved_kappa, plan.kappa, 0.05);
  EXPECT_NEAR(result.achieved_mu, plan.mu, 0.05);
  EXPECT_LT(result.loss_fraction, 0.015);  // plan guaranteed <= 0.01 + noise
  EXPECT_GT(result.achieved_mbps, 0.90 * plan.rate * 1470 * 8 / 1e6);
}

TEST(Integration, RiskPipelineShiftsScheduleOffHotChannels) {
  // HMM risk -> model -> max-rate LP: channels flagged by the sensor
  // stream should carry no more than their rate quota, and the LP should
  // prefer arrangements where hot channels need co-conspirators.
  const auto risk_model = risk::ChannelRiskModel::standard();
  Rng rng(8);
  std::vector<std::vector<int>> traces(5, std::vector<int>(30, risk::kNoAlert));
  traces[1].assign(30, risk::kIntrusion);  // channel 1 is hot
  auto setup = workload::lossy_setup();
  setup.risks = risk::assess_risks(risk_model, traces);
  const auto model = setup.to_model(1470);
  ASSERT_GT(model[1].risk, 0.5);

  const auto lp = solve_schedule_lp(model, {.objective = Objective::Risk,
                                            .kappa = 2.0,
                                            .mu = 3.0,
                                            .rate = RateConstraint::MaxRate});
  ASSERT_EQ(lp.status, lp::Status::Optimal);
  // The max-rate constraint pins total usage per channel; what the LP
  // controls is WHICH (k, M) combinations include the hot channel. Verify
  // the hot channel never appears in a k = 1 singleton (which would hand
  // packets to the adversary outright).
  for (const auto& entry : lp.schedule->entries()) {
    if (mask_contains(entry.channels, 1)) {
      EXPECT_GE(entry.k, 2) << "hot channel used with k = 1";
    }
  }
}

TEST(Integration, ScenarioFileDrivesAuthenticatedEcho) {
  // Scenario parser -> experiment with echo; smoke-checks the composed
  // path used by the scenario_sim tool.
  auto scenario = workload::parse_scenario(
      "channel rate=30Mbps delay=2ms\n"
      "channel rate=30Mbps delay=1ms\n"
      "channel rate=30Mbps delay=4ms\n"
      "kappa 2\nmu 2\n"
      "offered 10Mbps\nduration 0.4s\necho on\n");
  const auto result = workload::run_scenario(scenario);
  EXPECT_GT(result.packets_delivered_window, 0u);
  // kappa = 2: reconstruction waits for the 2nd-fastest share; one-way
  // delay must be >= the 2nd-smallest channel delay under light load.
  EXPECT_GE(result.mean_delay_s, 0.002);
  EXPECT_LT(result.mean_delay_s, 0.006);
}

}  // namespace
}  // namespace mcss
