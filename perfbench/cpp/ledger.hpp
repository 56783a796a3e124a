// The benchmark's own arithmetic: clocks, CPU normalization, percentiles
// with their sample counts, and the span ledger that turns nested spans
// into per-layer self time.
//
// Everything a reported number passes through lives here, so the unit
// tests in perfbench/tests pin it down independently of any workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Process CPU time of the whole process (all threads), user and system
/// separately, from getrusage(RUSAGE_SELF).
struct CpuTime {
  double user_s = 0.0;
  double sys_s = 0.0;

  [[nodiscard]] double total_s() const noexcept { return user_s + sys_s; }
  [[nodiscard]] CpuTime operator-(const CpuTime& earlier) const noexcept {
    return {user_s - earlier.user_s, sys_s - earlier.sys_s};
  }
};

[[nodiscard]] CpuTime process_cpu() noexcept;
/// CPU nanoseconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;
/// steady_clock nanoseconds.
[[nodiscard]] std::int64_t wall_ns() noexcept;
/// Resident set size now, from /proc/self/statm; 0 when unreadable.
[[nodiscard]] std::size_t rss_bytes() noexcept;
/// Peak resident set size of the process (ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb() noexcept;

/// `units` per CPU second: the CPU normalization every *_per_core metric
/// uses. 0 when no CPU time was spent (nothing to normalize by).
[[nodiscard]] double per_cpu_second(double units, double cpu_s) noexcept;

/// Payload megabits per second for `bytes` moved in `seconds`.
[[nodiscard]] double mbit_per_s(double bytes, double seconds) noexcept;

/// A percentile together with the sample it was read from: `samples` is
/// the sample count, `beyond` how many samples lie above the percentile's
/// rank. A percentile is supported when at least ten samples lie beyond it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;

  [[nodiscard]] bool supported() const noexcept { return beyond >= 10; }
};

/// The q-th percentile (0..100, linear interpolation as in
/// mcss::PercentileTracker) of `tracker`'s samples, with its counts.
[[nodiscard]] Quantile quantile(mcss::PercentileTracker& tracker, double q);

/// Per-layer time from nested spans.
///
/// Each layer accumulates the total duration of its spans, their count,
/// and its self time: a span's duration minus the part of it covered by
/// spans opened inside it. Summed self time therefore never counts an
/// interval twice, which is what makes "self time / process CPU" a
/// coverage figure. Spans must nest (end() closes the innermost one).
class SpanLedger {
 public:
  using Id = std::size_t;

  struct Layer {
    std::string name;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;

    /// Mean self time per call; 0 when the layer never ran.
    [[nodiscard]] double self_ns_per_call() const noexcept {
      return calls == 0 ? 0.0
                        : static_cast<double>(self_ns) /
                              static_cast<double>(calls);
    }
  };

  /// Register a layer; the returned id is passed to begin()/end_as().
  Id layer(std::string name);

  void begin(Id id, std::int64_t now_ns);
  /// Close the innermost span and book it to the layer it was opened as.
  void end(std::int64_t now_ns);
  /// Close the innermost span and book it to `as` instead — for spans
  /// whose layer is only known once the call returns.
  void end_as(Id as, std::int64_t now_ns);
  /// Book time measured outside the span stack (e.g. the CPU part of a
  /// blocking wait) as self time of `id`. Must not be called while a span
  /// is open, since no parent could subtract it.
  void add(Id id, std::int64_t self_ns, std::uint64_t calls);

  [[nodiscard]] const Layer& operator[](Id id) const { return layers_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return layers_.size(); }
  [[nodiscard]] std::size_t depth() const noexcept { return open_.size(); }
  /// Summed self time of every layer.
  [[nodiscard]] std::int64_t self_total_ns() const noexcept;

 private:
  struct Open {
    Id id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Layer> layers_;
  std::vector<Open> open_;
};

/// RAII span on the wall clock. A null ledger records nothing and reads
/// no clock, so untraced runs pay only a branch.
class Span {
 public:
  Span(SpanLedger* ledger, SpanLedger::Id id) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->begin(id, wall_ns());
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->end(wall_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLedger* ledger_;
};

}  // namespace perfbench
