// The two benchmark workloads. Each takes its seed from the command
// line, measures for `seconds`, checks the program's outputs, and
// returns its metrics: end-to-end ones untraced, per-layer ones when
// `trace` is set. live_small's traced run also measures the layers of
// the session endpoint and the partitioned simulator, which have no
// workload of their own (README.md says why).
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] Report run_live_bulk(const RunOptions& options);
[[nodiscard]] Report run_live_small(const RunOptions& options);

/// The session endpoint's per-layer metrics at 100 000 flows and its
/// output checks, from whole churn points run for about `seconds`.
void measure_session_layers(const RunOptions& options, double seconds,
                            Report& report);
/// The partitioned simulator's per-layer metrics and its fingerprint
/// check, from (parallel, 1-thread) pairs run for about `seconds`.
void measure_psim_layers(const RunOptions& options, double seconds,
                         Report& report);

}  // namespace perfbench
