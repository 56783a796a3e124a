// The session layer at 100 000 flows: one session::SessionEndpoint
// ramped to 100 000 concurrent flows over 3 clean loopback lanes with
// ARQ, each flow sending one 64-B packet when it opens, then churned
// (close + reopen with traffic), then drained — manyflow_eval's 100k
// point, churning 10 000 flows where that point churns 5 000.
//
// These are per-layer numbers only, taken in live_small's traced run
// (see README.md for why session_churn is not a workload of its own).
// Whole points (set-up, ramp, drain, churn, drain) repeat while the time
// budget lasts. The population and the drain are fixed: the loss this
// size shows (ROADMAP 5a) is the program's, and stays visible in
// session.delivered_fraction.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "ledger.hpp"
#include "session/session_endpoint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcss;

constexpr std::size_t kFlows = 100'000;
constexpr std::size_t kChurn = 10'000;
constexpr std::size_t kPayloadBytes = 64;
/// open_flow_p99_us is the median over blocks of this many opens of the
/// block's p99 (100 samples beyond each).
constexpr std::size_t kOpenBlock = 10'000;

session::SessionConfig churn_config(std::uint64_t seed) {
  session::SessionConfig config;
  net::ChannelConfig clean;
  clean.rate_bps = 2e9;
  clean.queue_capacity_bytes = 4 * 1024 * 1024;
  for (int i = 0; i < 3; ++i) {
    config.channels.push_back({clean, "lane" + std::to_string(i)});
  }
  config.seed = seed;
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 50'000'000;
  config.limits.max_flows = kFlows + 16;
  config.limits.max_dispatch_per_pump = 1024;
  config.pool_slots = 8192;
  return config;
}

session::FlowParams flow_params() {
  session::FlowParams params;
  params.rate_pps = 2.0;  // admission price; keeps 100k flows in budget
  params.payload_bytes = kPayloadBytes;
  return params;
}

/// Everything the probe accumulates across its points.
struct Totals {
  std::uint64_t attempted = 0;  ///< packets offered + opens refused
  std::uint64_t delivered = 0;
  std::uint64_t opens = 0;      ///< open_flow calls, refused ones included
  std::uint64_t packets_sent = 0;
  CpuTime cpu;
  /// RSS growth over the first point's ramp, per flow (later points reuse
  /// the memory the first one freed).
  double mem_per_flow = 0.0;
  std::int64_t open_ns_sum = 0;
  // Per-point values.
  PercentileTracker opens_per_core_s;
  PercentileTracker open_p99_us;
  // Per-call sums.
  std::int64_t close_ns = 0;
  std::uint64_t closes = 0;
  std::int64_t send_ns = 0;
  std::uint64_t sends = 0;
  std::int64_t run_for_cpu_ns = 0;
  std::uint64_t rejects_rate = 0;
  std::uint64_t rejects_capacity = 0;
  std::uint64_t queue_rejects = 0;
  std::uint64_t unknown_connection = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t report_datagrams = 0;
  std::uint64_t pool_defers = 0;
  // Output checks.
  std::uint64_t mismatches = 0;
  std::uint64_t unexpected = 0;
};

/// Payload of flow `cid`'s one packet: a pure function of (seed, cid).
void fill_payload(std::uint64_t seed, std::uint32_t cid,
                  std::span<std::uint8_t> out) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(cid) * 0x9e3779b97f4a7c15ULL));
  rng.fill(out);
}

void run_point(std::uint64_t point_seed, bool first, Totals& totals) {
  session::SessionEndpoint ep(churn_config(point_seed));

  const session::FlowParams params = flow_params();
  Rng churn_rng(point_seed ^ 0xC0FFEE);
  std::vector<std::uint8_t> payload(kPayloadBytes);
  std::vector<std::uint8_t> expected(kPayloadBytes);
  // Flows with their packet in flight; erased on delivery.
  std::unordered_set<std::uint32_t> in_flight;
  in_flight.reserve(kFlows + kChurn);
  std::uint64_t delivered = 0;
  std::uint64_t attempted = 0;
  std::uint64_t opens = 0;
  PercentileTracker open_ns;

  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> bytes) {
    const auto it = in_flight.find(cid);
    if (it == in_flight.end() || id != 1) {
      ++totals.unexpected;
      return;
    }
    fill_payload(point_seed, cid, expected);
    if (bytes != expected) ++totals.mismatches;
    in_flight.erase(it);
    ++delivered;
  });

  const auto run_for = [&](std::int64_t ns) {
    const std::int64_t c0 = thread_cpu_ns();
    ep.run_for(ns);
    totals.run_for_cpu_ns += thread_cpu_ns() - c0;
  };
  const auto open_and_send = [&]() -> std::optional<std::uint32_t> {
    ++opens;
    const std::int64_t t0 = wall_ns();
    const auto cid = ep.open_flow(params);
    const std::int64_t took = wall_ns() - t0;
    open_ns.add(static_cast<double>(took));
    totals.open_ns_sum += took;
    if (open_ns.count() == kOpenBlock) {
      totals.open_p99_us.add(quantile(open_ns, 99.0).value / 1e3);
      open_ns = PercentileTracker{};
    }
    ++attempted;  // the packet this flow would carry
    if (!cid) return std::nullopt;
    fill_payload(point_seed, *cid, payload);
    const std::int64_t s0 = wall_ns();
    const bool ok = ep.send(*cid, payload);
    totals.send_ns += wall_ns() - s0;
    ++totals.sends;
    if (ok) in_flight.insert(*cid);
    return cid;
  };
  // Drain until deliveries stop improving: two quiet 100 ms windows (one
  // can fall inside the 200 ms initial RTO), at most 1.2 s.
  const auto drain = [&] {
    std::uint64_t last = delivered;
    int quiet = 0;
    for (int i = 0; i < 12 && quiet < 2; ++i) {
      run_for(100'000'000);
      quiet = delivered == last ? quiet + 1 : 0;
      last = delivered;
    }
  };
  const auto retransmits_of = [&](std::uint32_t cid) -> std::uint64_t {
    const feedback::RetransmitManager* m = ep.flow_manager(cid);
    return m == nullptr ? 0 : m->stats().retransmits;
  };

  const CpuTime cpu0 = process_cpu();
  const std::size_t rss_before = rss_bytes();

  // Ramp: arrivals as fast as the endpoint admits them.
  std::vector<std::uint32_t> open;
  open.reserve(kFlows);
  while (open.size() < kFlows) {
    for (std::size_t i = 0; i < 256 && open.size() < kFlows; ++i) {
      const auto cid = open_and_send();
      if (!cid) break;
      open.push_back(*cid);
    }
    run_for(0);
    if (ep.stats().flows_rejected_rate + ep.stats().flows_rejected_capacity >
        0) {
      break;  // admission refused: measure the population it sustained
    }
  }
  const std::size_t rss_after = rss_bytes();
  if (first && rss_after > rss_before && !open.empty()) {
    totals.mem_per_flow = static_cast<double>(rss_after - rss_before) /
                          static_cast<double>(open.size());
  }
  drain();

  // Churn: uniformly chosen victims replaced, the stationary view of an
  // exponential-lifetime population. Late shares of a closed flow are
  // dropped at the demux by design and count as undelivered.
  for (std::size_t i = 0; i < kChurn && !open.empty(); ++i) {
    const auto victim =
        static_cast<std::size_t>(churn_rng.uniform_int(open.size()));
    totals.retransmits += retransmits_of(open[victim]);
    const std::int64_t c0 = wall_ns();
    (void)ep.close_flow(open[victim]);
    totals.close_ns += wall_ns() - c0;
    ++totals.closes;
    const auto cid = open_and_send();
    if (cid) {
      open[victim] = *cid;
    } else {
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (i % 64 == 63) run_for(0);
  }
  drain();

  const CpuTime cpu = process_cpu() - cpu0;
  totals.cpu.user_s += cpu.user_s;
  totals.cpu.sys_s += cpu.sys_s;
  totals.opens_per_core_s.add(
      per_cpu_second(static_cast<double>(opens), cpu.total_s()));

  const session::SessionStats& st = ep.stats();
  totals.attempted += attempted;
  totals.delivered += delivered;
  totals.opens += opens;
  totals.packets_sent += st.packets_sent;
  totals.rejects_rate += st.flows_rejected_rate;
  totals.rejects_capacity += st.flows_rejected_capacity;
  totals.queue_rejects += st.queue_rejects;
  totals.unknown_connection += st.frames_unknown_connection;
  totals.report_datagrams += st.report_datagrams_sent;
  totals.pool_defers += st.pool_defers;
  for (const std::uint32_t cid : open) totals.retransmits += retransmits_of(cid);
}

}  // namespace

void measure_session_layers(const RunOptions& options, double seconds,
                            Report& report) {
  Totals totals;
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t longest = 0;
  std::uint64_t points = 0;
  for (;;) {
    const std::int64_t t0 = wall_ns();
    run_point(options.seed * 1000 + points, points == 0, totals);
    ++points;
    longest = std::max(longest, wall_ns() - t0);
    // Another point only if it fits the budget.
    if (wall_ns() - start + longest > budget) break;
  }

  report.check(totals.mismatches == 0,
               "session: " + std::to_string(totals.mismatches) +
                   " payloads differ from what their flow sent");
  report.check(totals.unexpected == 0,
               "session: " + std::to_string(totals.unexpected) +
                   " deliveries not matching a flow's packet in flight");
  report.check(totals.delivered > 0, "session: nothing was delivered");

  report.note("session_points", std::to_string(points));
  report.note("session_attempted", std::to_string(totals.attempted));
  report.note("session_delivered", std::to_string(totals.delivered));
  report.note("session_cpu_user_s", std::to_string(totals.cpu.user_s));
  report.note("session_cpu_sys_s", std::to_string(totals.cpu.sys_s));

  const auto mean = [](double sum, std::uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const double sent = static_cast<double>(totals.packets_sent);
  report.set("session.delivered_fraction",
             static_cast<double>(totals.delivered) /
                 static_cast<double>(totals.attempted),
             "ratio");
  report.set("session.flows_opened_per_core_s",
             totals.opens_per_core_s.median(), "1/core-s");
  report.set("session.mem_per_flow_bytes", totals.mem_per_flow, "B");
  report.set("open_flow_p99_us", totals.open_p99_us.median(), "us");
  report.set("session.open_flow_ns",
             mean(static_cast<double>(totals.open_ns_sum), totals.opens), "ns");
  report.set("session.close_flow_ns",
             mean(static_cast<double>(totals.close_ns), totals.closes), "ns");
  report.set("session.send_ns",
             mean(static_cast<double>(totals.send_ns), totals.sends), "ns");
  report.set("session.run_for_cpu_ns_per_pkt",
             mean(static_cast<double>(totals.run_for_cpu_ns),
                  totals.packets_sent),
             "ns");
  report.set("session.rejects_rate", static_cast<double>(totals.rejects_rate),
             "count");
  report.set("session.rejects_capacity",
             static_cast<double>(totals.rejects_capacity), "count");
  report.set("session.queue_rejects", static_cast<double>(totals.queue_rejects),
             "count");
  report.set("session.frames_unknown_connection",
             static_cast<double>(totals.unknown_connection), "count");
  report.set("feedback.retransmits_per_pkt",
             sent > 0 ? static_cast<double>(totals.retransmits) / sent : 0.0,
             "1/pkt");
  report.set("feedback.report_datagrams_per_pkt",
             sent > 0 ? static_cast<double>(totals.report_datagrams) / sent
                      : 0.0,
             "1/pkt");
  report.set("session.pool_defers", static_cast<double>(totals.pool_defers),
             "count");
}

}  // namespace perfbench
