// Unit tests for the benchmark's arithmetic (perfbench/cpp/ledger.hpp).
#include <gtest/gtest.h>

#include <stdexcept>

#include "ledger.hpp"

namespace perfbench {
namespace {

TEST(SpanLedger, NestedSpansSubtractChildTimeFromSelfTime) {
  SpanLedger ledger;
  const auto outer = ledger.layer("outer");
  const auto middle = ledger.layer("middle");
  const auto inner = ledger.layer("inner");
  ledger.begin(outer, 0);
  ledger.begin(middle, 10);
  ledger.begin(inner, 12);
  ledger.end(15);   // inner: 3
  ledger.end(30);   // middle: 20, of which 3 in inner
  ledger.begin(inner, 40);
  ledger.end(44);   // inner again: 4
  ledger.end(100);  // outer: 100, of which 20 + 4 in children

  EXPECT_EQ(ledger[outer].total_ns, 100);
  EXPECT_EQ(ledger[outer].self_ns, 76);
  EXPECT_EQ(ledger[middle].total_ns, 20);
  EXPECT_EQ(ledger[middle].self_ns, 17);
  EXPECT_EQ(ledger[inner].total_ns, 7);
  EXPECT_EQ(ledger[inner].self_ns, 7);
  EXPECT_EQ(ledger[inner].calls, 2u);
  EXPECT_DOUBLE_EQ(ledger[inner].self_ns_per_call(), 3.5);
  // Self times partition the outermost interval: nothing counted twice.
  EXPECT_EQ(ledger.self_total_ns(), 100);
  EXPECT_EQ(ledger.depth(), 0u);
}

TEST(SpanLedger, EndAsBooksTheSpanToAnotherLayerAndStillNests) {
  SpanLedger ledger;
  const auto rx = ledger.layer("rx");
  const auto receive = ledger.layer("receive");
  const auto complete = ledger.layer("complete");
  ledger.begin(rx, 0);
  ledger.begin(receive, 5);
  ledger.end(8);  // an ordinary share: 3
  ledger.begin(receive, 10);
  ledger.end_as(complete, 19);  // the share that completed a packet: 9
  ledger.end(20);

  EXPECT_EQ(ledger[receive].self_ns, 3);
  EXPECT_EQ(ledger[receive].calls, 1u);
  EXPECT_EQ(ledger[complete].self_ns, 9);
  EXPECT_EQ(ledger[complete].calls, 1u);
  EXPECT_EQ(ledger[rx].self_ns, 8);
}

TEST(SpanLedger, AddBooksTimeOutsideTheStackOnly) {
  SpanLedger ledger;
  const auto poll = ledger.layer("poll");
  ledger.add(poll, 250, 2);
  EXPECT_EQ(ledger[poll].self_ns, 250);
  EXPECT_EQ(ledger[poll].calls, 2u);
  ledger.begin(poll, 0);
  EXPECT_THROW(ledger.add(poll, 1, 1), std::logic_error);
  ledger.end(1);
  EXPECT_THROW(ledger.end(2), std::logic_error);
}

TEST(SpanLedger, NullLedgerSpanRecordsNothing) {
  { const Span span(nullptr, 0); }
  SpanLedger ledger;
  const auto id = ledger.layer("x");
  { const Span span(&ledger, id); }
  EXPECT_EQ(ledger[id].calls, 1u);
  EXPECT_GE(ledger[id].self_ns, 0);
}

TEST(Quantile, ReportsValueSampleCountAndTailSupport) {
  mcss::PercentileTracker thousand;
  for (int i = 1; i <= 1000; ++i) thousand.add(i);
  const Quantile p50 = quantile(thousand, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 500.5);
  EXPECT_EQ(p50.samples, 1000u);
  const Quantile p99 = quantile(thousand, 99.0);
  EXPECT_NEAR(p99.value, 990.01, 1e-9);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());

  mcss::PercentileTracker hundred;
  for (int i = 1; i <= 100; ++i) hundred.add(i);
  const Quantile thin = quantile(hundred, 99.0);
  EXPECT_EQ(thin.samples, 100u);
  EXPECT_EQ(thin.beyond, 1u);
  EXPECT_FALSE(thin.supported());

  mcss::PercentileTracker empty;
  const Quantile none = quantile(empty, 99.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
}

TEST(CpuNormalization, DividesWorkByCpuSeconds) {
  EXPECT_DOUBLE_EQ(per_cpu_second(100.0, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(per_cpu_second(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(mbit_per_s(125'000.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(mbit_per_s(125'000.0, 0.0), 0.0);
  // Goodput per core: 250 kB delivered on 0.5 CPU-s is 4 Mbit/core-s.
  EXPECT_DOUBLE_EQ(per_cpu_second(mbit_per_s(250'000.0, 1.0), 0.5), 4.0);

  const CpuTime later{3.0, 1.5};
  const CpuTime earlier{1.0, 0.5};
  const CpuTime d = later - earlier;
  EXPECT_DOUBLE_EQ(d.user_s, 2.0);
  EXPECT_DOUBLE_EQ(d.sys_s, 1.0);
  EXPECT_DOUBLE_EQ(d.total_s(), 3.0);
}

TEST(CpuNormalization, ProcessCpuAdvancesWithWork) {
  const CpuTime before = process_cpu();
  const std::int64_t thread_before = thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  const std::int64_t until = wall_ns() + 20'000'000;
  while (wall_ns() < until) sink = sink + 1;
  const CpuTime spent = process_cpu() - before;
  EXPECT_GT(spent.total_s(), 0.0);
  EXPECT_GT(thread_cpu_ns() - thread_before, 0);
  EXPECT_GT(peak_rss_mb(), 0.0);
  EXPECT_GT(rss_bytes(), 0u);
}

}  // namespace
}  // namespace perfbench
