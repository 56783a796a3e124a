// mcss_perfbench: runs one benchmark workload and prints its result as
// one JSON line (see perfbench/README.md for the metrics).
//
//   mcss_perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: mcss_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    perfbench::Report report;
    if (workload == "live_bulk") {
      report = perfbench::run_live_bulk(options);
    } else if (workload == "live_small") {
      report = perfbench::run_live_small(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    std::printf("%s\n", report.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
