// Micro-benchmarks over the substrate primitives (google-benchmark).
//
// These are not paper figures; they document the cost of each building
// block: field arithmetic, Shamir split/reconstruct across (k, m), the
// subset-metric evaluations (DP vs the paper's literal exponential sums),
// the schedule LPs, wire codec, dithering, and raw simulator throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/lp_schedule.hpp"
#include "core/subset_metrics.hpp"
#include "field/gf256.hpp"
#include "field/gf256_bulk.hpp"
#include "lp/simplex.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/trace.hpp"
#include "crypto/siphash.hpp"
#include "protocol/dither.hpp"
#include "protocol/wire.hpp"
#include "risk/channel_risk.hpp"
#include "sss/shamir.hpp"
#include "sss/xor_sharing.hpp"
#include "util/poisson_binomial.hpp"
#include "util/rng.hpp"
#include "workload/setups.hpp"

namespace {

using namespace mcss;

// ---------------------------------------------------------------- field

void BM_Gf256Mul(benchmark::State& state) {
  Rng rng(1);
  std::vector<gf::Elem> a(4096), b(4096);
  for (auto& v : a) v = rng.byte();
  for (auto& v : b) v = rng.byte();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_Gf256Mul);

void BM_Gf256Inv(benchmark::State& state) {
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::inv(static_cast<gf::Elem>((i & 254) + 1)));
    ++i;
  }
}
BENCHMARK(BM_Gf256Inv);

void BM_PolyEval(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<gf::Elem> coeffs(degree + 1);
  for (auto& c : coeffs) c = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::poly_eval(coeffs, 0x53));
  }
}
BENCHMARK(BM_PolyEval)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Raw region-kernel throughput: dst ^= s * src over a buffer, the inner
// primitive of the slice-major sharer. The auto-dispatched path is
// labeled with the kernel it resolved to; the forced-portable runs
// document the cost of the fallback on the same host.

void BM_GfMulAccBuf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(40);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::mul_acc_buf(dst.data(), src.data(), 0x53, n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(gf::bulk::kernel_name(gf::bulk::active_kernel()));
}
BENCHMARK(BM_GfMulAccBuf)->Arg(64)->Arg(1470)->Arg(65536);

void BM_GfMulAccBufPortable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(41);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::mul_acc_buf(gf::bulk::Kernel::Portable, dst.data(), src.data(),
                          0x53, n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAccBufPortable)->Arg(64)->Arg(1470)->Arg(65536);

void BM_GfXorBuf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(43);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::xor_buf(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfXorBuf)->Arg(1470)->Arg(65536);

void BM_RngFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(44);
  std::vector<std::uint8_t> buf(n);
  for (auto _ : state) {
    rng.fill(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFill)->Arg(1470)->Arg(65536);

// ---------------------------------------------------------------- sss

void BM_ShamirSplit(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::split(secret, k, m, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirSplit)
    ->Args({1, 1})
    ->Args({1, 5})
    ->Args({3, 5})
    ->Args({5, 5})
    ->Args({8, 16});

// The per-byte scalar reference path, kept in the library so the region
// kernels are measured against it rather than asserted faster.
void BM_ShamirSplitScalar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::split_scalar(secret, k, m, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirSplitScalar)
    ->Args({1, 1})
    ->Args({1, 5})
    ->Args({3, 5})
    ->Args({5, 5})
    ->Args({8, 16});

void BM_ShamirReconstruct(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  const auto shares = sss::split(secret, k, k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::reconstruct(shares));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirReconstruct)->Arg(1)->Arg(2)->Arg(3)->Arg(5)->Arg(8);

void BM_ShamirReconstructScalar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  const auto shares = sss::split(secret, k, k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::reconstruct_scalar(shares));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirReconstructScalar)->Arg(1)->Arg(3)->Arg(5)->Arg(8);

void BM_XorSplit(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint8_t> secret(1470);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::xor_split(secret, 5, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_XorSplit);

void BM_SipHash(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  Rng rng(33);
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = rng.byte();
  crypto::SipHashKey key{};
  for (auto& b : key) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(data, key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
  state.SetLabel(crypto::kernel_name(crypto::Kernel::Scalar));
}
BENCHMARK(BM_SipHash)->Arg(16)->Arg(256)->Arg(1486);

// `count` equal-length messages per call (a packet's m shares), through
// the dispatched multi-lane tier; compare with count x BM_SipHash.
void BM_SipHashMany(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  Rng rng(35);
  std::vector<std::vector<std::uint8_t>> data(count,
                                              std::vector<std::uint8_t>(len));
  std::vector<const std::uint8_t*> msgs;
  for (auto& d : data) {
    for (auto& b : d) b = rng.byte();
    msgs.push_back(d.data());
  }
  crypto::SipHashKey key{};
  for (auto& b : key) b = rng.byte();
  std::vector<std::uint64_t> out(count);
  for (auto _ : state) {
    crypto::siphash24_many(msgs, len, key, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len * count));
  state.SetLabel(crypto::kernel_name(crypto::active_kernel()));
}
BENCHMARK(BM_SipHashMany)->Args({1486, 3})->Args({1486, 4});

void BM_HmmForwardFilter(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto model = risk::ChannelRiskModel::standard();
  Rng rng(34);
  const auto alerts = model.sample_alerts(static_cast<int>(len), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assess(alerts));
  }
}
BENCHMARK(BM_HmmForwardFilter)->Arg(32)->Arg(256)->Arg(2048);

// ---------------------------------------------------------------- model

void BM_SubsetRiskDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) cs.push_back({rng.uniform(), 0, 0, 1});
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_risk(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetRiskDp)->Arg(5)->Arg(10)->Arg(20);

void BM_SubsetRiskBruteforce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) cs.push_back({rng.uniform(), 0, 0, 1});
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_risk_bruteforce(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetRiskBruteforce)->Arg(5)->Arg(10)->Arg(20);

void BM_SubsetDelay(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back({0, rng.uniform(0, 0.3), rng.uniform(0, 10), 1});
  }
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_delay(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetDelay)->Arg(5)->Arg(10)->Arg(15);

void BM_PoissonBinomialPmf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  std::vector<double> probs(n);
  for (auto& p : probs) p = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson_binomial_pmf(probs));
  }
}
BENCHMARK(BM_PoissonBinomialPmf)->Arg(5)->Arg(32)->Arg(128);

void BM_ScheduleLpIvB(benchmark::State& state) {
  const ChannelSet model = workload::lossy_setup().to_model(1470);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_schedule_lp(
        model, {.objective = Objective::Loss, .kappa = 2.0, .mu = 3.5}));
  }
}
BENCHMARK(BM_ScheduleLpIvB);

void BM_ScheduleLpIvD(benchmark::State& state) {
  const ChannelSet model = workload::lossy_setup().to_model(1470);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_schedule_lp(model, {.objective = Objective::Loss,
                                  .kappa = 2.0,
                                  .mu = 3.5,
                                  .rate = RateConstraint::MaxRate}));
  }
}
BENCHMARK(BM_ScheduleLpIvD);

void BM_OptimalRate(benchmark::State& state) {
  const ChannelSet model = workload::diverse_setup().to_model(1470);
  int step = 0;
  for (auto _ : state) {
    const double mu = 1.0 + 0.1 * (step % 41);  // 1.0 .. 5.0 inclusive
    benchmark::DoNotOptimize(optimal_rate(model, mu));
    ++step;
  }
}
BENCHMARK(BM_OptimalRate);

// ---------------------------------------------------------------- protocol

void BM_WireEncodeDecode(benchmark::State& state) {
  proto::ShareFrame frame;
  frame.packet_id = 123456;
  frame.k = 3;
  frame.share_index = 2;
  frame.payload.assign(1470, 0x77);
  for (auto _ : state) {
    auto bytes = proto::encode(frame);
    benchmark::DoNotOptimize(proto::decode(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_WireEncodeDecode);

void BM_Dither(benchmark::State& state) {
  proto::KappaMuDither dither(2.3, 3.7, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dither.next());
  }
}
BENCHMARK(BM_Dither);

// ---------------------------------------------------------------- simulator

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// ---------------------------------------------------------------- obs
//
// The observability overheads that matter: the cost of a disabled guard
// (what every instrumented hot path pays when MCSS_METRICS/MCSS_TRACE
// are unset), and of live counter/histogram/trace updates when enabled.

void BM_ObsDisabledGuard(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::metrics_enabled());
    benchmark::DoNotOptimize(obs::trace_enabled());
  }
}
BENCHMARK(BM_ObsDisabledGuard);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id = registry.counter("bench_counter");
  for (auto _ : state) {
    registry.add(id);
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id =
      registry.histogram("bench_hist", obs::exp_bounds(1e-6, 2.0, 24));
  double v = 1e-6;
  for (auto _ : state) {
    registry.observe(id, v);
    v = v < 1.0 ? v * 1.001 : 1e-6;
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopeTimer(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id =
      registry.histogram("bench_scope", obs::exp_bounds(1e-8, 4.0, 16));
  for (auto _ : state) {
    obs::ScopeTimer timer(id, registry);
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsScopeTimer);

void BM_ObsTraceEvent(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_ring_capacity(1 << 12);
  tracer.set_enabled(true);
  std::int64_t ts = 0;
  for (auto _ : state) {
    tracer.complete("bench", "bench", ts, 10, 1, "a", 1);
    ++ts;
  }
  tracer.set_enabled(false);
}
BENCHMARK(BM_ObsTraceEvent);

}  // namespace
