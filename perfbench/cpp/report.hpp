// One workload run's outcome: the operation counts, the output checks,
// and the named metrics, printed as a single JSON object for run.py.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that failed; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  /// Free-form facts about the run (backend, sample counts), not metrics.
  std::vector<std::pair<std::string, std::string>> notes;

  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"correct\": ";
    out += check_failures.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"check_failures\": [";
    for (std::size_t i = 0; i < check_failures.size(); ++i) {
      if (i != 0) out += ", ";
      out += quote(check_failures[i]);
    }
    out += "], \"notes\": {";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      if (i != 0) out += ", ";
      out += quote(notes[i].first) + ": " + quote(notes[i].second);
    }
    out += "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) out += ", ";
      char value[64];
      // %.17g keeps every digit; a non-finite value (a division by zero
      // upstream) is printed as null so run.py rejects the run.
      if (std::isfinite(metrics[i].value)) {
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
      } else {
        std::snprintf(value, sizeof value, "null");
      }
      out += quote(metrics[i].name) + ": {\"value\": " + value +
             ", \"unit\": " + quote(metrics[i].unit) + "}";
    }
    out += "}}";
    return out;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
};

}  // namespace perfbench
