// The partitioned simulator's layers: workload::run_multiflow with 8
// logical processes and a churned flow population, no sockets at all.
// Each pair runs the same population at min(nproc, 4) threads and at 1
// thread; the two result fingerprints must be equal (the engine is
// bitwise deterministic across thread counts).
//
// These are per-layer numbers only, taken in live_small's traced run
// (see README.md for why psim is not a workload of its own): the
// parallel wall rate here follows the host's vCPU wake-ups and the
// neighbours' load, not the program.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "core/planner.hpp"
#include "ledger.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/stats.hpp"
#include "workload/multiflow.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mcss;

constexpr std::uint32_t kLps = 8;
constexpr std::uint32_t kActivePerLp = 48;
/// Sized so a few (parallel, 1-thread) pairs fit the probe's share of a
/// traced run; the reported numbers are medians over pairs.
constexpr std::uint64_t kFlows = 30'000;
constexpr std::uint64_t kWarmupFlows = 4'000;
/// parallel_sim_eval's population shape: arrivals paced so the active
/// population stays near the per-LP concurrency bound.
workload::MultiflowConfig population(std::uint64_t flows, std::uint32_t lps,
                                     std::uint32_t active_per_lp,
                                     std::uint64_t seed) {
  workload::MultiflowConfig config;
  config.num_lps = lps;
  config.total_flows = flows;
  config.max_active_per_lp = active_per_lp;
  config.offered_bps = 1e6;
  config.packet_bytes = 64;
  config.flow_duration_s = 0.004;
  config.arrival_window_s = static_cast<double>(flows) *
                            config.flow_duration_s /
                            (static_cast<double>(lps) * active_per_lp) * 1.5;
  config.control_period_s = 0.05;
  config.seed = seed;
  return config;
}

struct Job {
  workload::MultiflowResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Job run_job(const workload::MultiflowConfig& config, unsigned threads) {
  runtime::set_threads(threads);
  Job job;
  const CpuTime cpu0 = process_cpu();
  const std::int64_t t0 = wall_ns();
  job.result = workload::run_multiflow(config);
  job.wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  job.cpu_s = (process_cpu() - cpu0).total_s();
  return job;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void measure_psim_layers(const RunOptions& options, double seconds,
                         Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(nproc, 4u);
  report.note("psim_threads", std::to_string(threads));

  // Caches and allocator warmed by a small 1-thread job.
  (void)run_job(
      population(kWarmupFlows, kLps, kActivePerLp, options.seed ^ 0x5EED), 1);

  // Pairs of (parallel, 1-thread) runs while the budget lasts, at least one.
  const workload::MultiflowConfig config =
      population(kFlows, kLps, kActivePerLp, options.seed);
  PercentileTracker par_wall_s, par_cpu_s, ser_wall_s, ser_cpu_s;
  workload::MultiflowResult result;
  std::uint64_t first_fingerprint = 0;
  int pairs = 0;
  const std::int64_t start = wall_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t longest = 0;
  for (;;) {
    const std::int64_t t0 = wall_ns();
    const Job par = run_job(config, threads);
    const Job ser = run_job(config, 1);
    longest = std::max(longest, wall_ns() - t0);
    const std::uint64_t fp_par = par.result.fingerprint();
    const std::uint64_t fp_ser = ser.result.fingerprint();
    if (pairs == 0) first_fingerprint = fp_ser;
    report.check(fp_par == fp_ser,
                 "psim fingerprint at " + std::to_string(threads) +
                     " threads " + hex(fp_par) + " != 1 thread " +
                     hex(fp_ser));
    report.check(fp_ser == first_fingerprint,
                 "psim fingerprint differs between repeats of one population");
    par_wall_s.add(par.wall_s);
    par_cpu_s.add(par.cpu_s);
    ser_wall_s.add(ser.wall_s);
    ser_cpu_s.add(ser.cpu_s);
    result = ser.result;
    ++pairs;
    if (wall_ns() - start + longest > budget) break;
  }
  report.check(result.flows_completed == kFlows,
               "only " + std::to_string(result.flows_completed) + " of " +
                   std::to_string(kFlows) + " simulated flows completed");
  report.note("psim_fingerprint", hex(first_fingerprint));
  report.note("psim_pairs", std::to_string(pairs));

  const auto events = static_cast<double>(result.partition.events_processed);
  const auto windows = static_cast<double>(result.partition.windows);
  report.set("psim.windows", windows, "count");
  report.set("psim.events", events, "count");
  report.set("psim.cross_events",
             static_cast<double>(result.partition.cross_events), "count");
  report.set("psim.max_window_events",
             static_cast<double>(result.partition.max_window_events), "count");
  report.set("psim.wall_ns_per_window", par_wall_s.median() * 1e9 / windows,
             "ns");
  report.set("psim.speedup", ser_wall_s.median() / par_wall_s.median(),
             "ratio");
  report.set("psim.cpu_ratio", par_cpu_s.median() / ser_cpu_s.median(),
             "ratio");
  report.set("psim.parallel_events_per_s", events / par_wall_s.median(), "1/s");
  report.set("psim.serial_events_per_core_s",
             per_cpu_second(events, ser_cpu_s.median()), "1/core-s");

  // The floor of the per-window cost: an empty fork-join over the LPs,
  // as many times as the run had windows.
  runtime::set_threads(threads);
  const std::int64_t fj0 = wall_ns();
  for (std::uint64_t w = 0; w < result.partition.windows; ++w) {
    runtime::parallel_for_indexed(kLps, [](std::size_t) {});
  }
  report.set("runtime.fork_join_ns",
             static_cast<double>(wall_ns() - fj0) / windows, "ns");

  // Partitioning overhead: 1 LP against 8 LPs, both serial, with equal
  // total concurrency, on a population a third the size.
  const std::uint64_t small = kFlows / 3;
  const Job one_lp =
      run_job(population(small, 1, kLps * kActivePerLp, options.seed), 1);
  const Job eight_lp =
      run_job(population(small, kLps, kActivePerLp, options.seed), 1);
  report.set("psim.partition_overhead",
             per_cpu_second(static_cast<double>(
                                one_lp.result.partition.events_processed),
                            one_lp.cpu_s) /
                 per_cpu_second(static_cast<double>(
                                    eight_lp.result.partition.events_processed),
                                eight_lp.cpu_s),
             "ratio");

  // The LP-0 hub's planner call, timed directly on the population's
  // channel model, times the rounds the hub committed.
  PlannerGoal goal;
  goal.max_loss = config.control_max_loss;
  goal.objective = PlannerGoal::Objective::MaxRate;
  goal.step = 0.5;
  const ChannelSet channels = config.setup.to_model(config.packet_bytes);
  constexpr int kSolves = 20;
  const std::int64_t p0 = wall_ns();
  for (int i = 0; i < kSolves; ++i) {
    const Plan plan = plan_parameters(channels, goal);
    report.check(plan.feasible, "planner found no feasible plan");
  }
  const double solve_s = static_cast<double>(wall_ns() - p0) / 1e9 / kSolves;
  report.set("core.planner_solve_us", solve_s * 1e6, "us");
  report.set("core.planner_share",
             solve_s * static_cast<double>(result.control_rounds) /
                 ser_wall_s.median(),
             "ratio");
}

}  // namespace perfbench
