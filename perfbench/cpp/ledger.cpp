#include "ledger.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {
double seconds_of(const timeval& tv) noexcept {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

CpuTime process_cpu() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {seconds_of(ru.ru_utime), seconds_of(ru.ru_stime)};
}

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per_cpu_second(double units, double cpu_s) noexcept {
  return cpu_s > 0.0 ? units / cpu_s : 0.0;
}

double mbit_per_s(double bytes, double seconds) noexcept {
  return seconds > 0.0 ? bytes * 8.0 / 1e6 / seconds : 0.0;
}

Quantile quantile(mcss::PercentileTracker& tracker, double q) {
  Quantile out;
  out.samples = tracker.retained();
  if (out.samples == 0) return out;
  out.value = tracker.percentile(q);
  const double rank = q / 100.0 * static_cast<double>(out.samples - 1);
  out.beyond = out.samples - 1 - static_cast<std::size_t>(rank);
  return out;
}

SpanLedger::Id SpanLedger::layer(std::string name) {
  layers_.push_back({std::move(name), 0, 0, 0});
  return layers_.size() - 1;
}

void SpanLedger::begin(Id id, std::int64_t now_ns) {
  open_.push_back({id, now_ns, 0});
}

void SpanLedger::end(std::int64_t now_ns) {
  if (open_.empty()) throw std::logic_error("SpanLedger::end without begin");
  end_as(open_.back().id, now_ns);
}

void SpanLedger::end_as(Id as, std::int64_t now_ns) {
  if (open_.empty()) throw std::logic_error("SpanLedger::end without begin");
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t duration = now_ns - span.start_ns;
  Layer& layer = layers_.at(as);
  layer.total_ns += duration;
  layer.self_ns += duration - span.child_ns;
  ++layer.calls;
  if (!open_.empty()) open_.back().child_ns += duration;
}

void SpanLedger::add(Id id, std::int64_t self_ns, std::uint64_t calls) {
  if (!open_.empty()) {
    throw std::logic_error("SpanLedger::add inside an open span");
  }
  Layer& layer = layers_.at(id);
  layer.total_ns += self_ns;
  layer.self_ns += self_ns;
  layer.calls += calls;
}

std::int64_t SpanLedger::self_total_ns() const noexcept {
  std::int64_t sum = 0;
  for (const Layer& layer : layers_) sum += layer.self_ns;
  return sum;
}

}  // namespace perfbench
