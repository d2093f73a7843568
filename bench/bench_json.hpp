// Shared machine-readable bench output: every bench target runs through
// ZENDOO_BENCH_MAIN(<area>), which tees the normal console output into a
// BENCH_<area>.json file next to the working directory (override with
// ZENDOO_BENCH_DIR). The JSON is the persisted perf trajectory — a tool
// can diff blocks/sec across commits without scraping stdout.
//
// Schema:
//   {
//     "area": "<area>",
//     "hardware_concurrency": <threads the host exposes>,
//     "sha256_kernel": "x86-sha" | "portable",
//     "benchmarks": [
//       { "name": "...", "iterations": N, "real_time": t, "cpu_time": t,
//         "time_unit": "ns", "label": "...", "counters": {"k": v, ...} }
//     ]
//   }
//
// "sha256_kernel" is the SHA-256 compression kernel the run used
// (crypto::sha256_kernel_name()). Hash-bound rows differ about five times
// between the two kernels, so compare them only between records that name
// the same one.
//
// Counter conventions (the keys a diffing tool can rely on):
//   - Plain counters are per-iteration averages of simulator-side
//     quantities: "events" (SimNet events processed), "sim_ticks"
//     (simulated time consumed), "msgs_delivered", "announce_rounds",
//     "blocks" / "blocks_connected" (chain blocks connected across all
//     nodes — useful work, as opposed to gossip amplification).
//   - Keys ending in "_per_sec" are benchmark::Counter::kIsRate values:
//     the total divided by wall-clock seconds, e.g. "events_per_sec" is
//     raw event-loop throughput. Compare rates across commits on the
//     same hardware only; compare plain counters anywhere (they are
//     deterministic functions of the seed and scenario).
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_merge.hpp"
#include "crypto/sha256.hpp"

namespace zendoo::bench {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// ConsoleReporter that additionally records every measured run for the
/// JSON file. Aggregate rows (Complexity()'s _BigO/_RMS, repetition
/// mean/median/stddev) are derived, not measured, so only the console
/// shows them.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(std::string area) : area_(std::move(area)) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      Record r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<long long>(run.iterations);
      r.real_time = run.GetAdjustedRealTime();
      r.cpu_time = run.GetAdjustedCPUTime();
      r.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      r.label = run.report_label;
      for (const auto& [name, counter] : run.counters) {
        r.counters.emplace_back(name, counter.value);
      }
      records_.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(report);
  }

  /// Writes BENCH_<area>.json; returns the path written. Same-named
  /// runs (repetitions) are merged — see bench_merge.hpp — so the
  /// "benchmarks" array never carries name collisions a name-keyed
  /// consumer would silently truncate.
  std::string write_file() const {
    std::string dir = ".";
    if (const char* env = std::getenv("ZENDOO_BENCH_DIR")) dir = env;
    std::string path = dir + "/BENCH_" + area_ + ".json";
    const std::vector<Record> merged = merge_records(records_);
    std::ofstream out(path);
    out << "{\n  \"area\": \"" << json_escape(area_) << "\",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    out << "  \"sha256_kernel\": \"" << crypto::sha256_kernel_name()
        << "\",\n";
    out << "  \"benchmarks\": [";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const Record& r = merged[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    { \"name\": \"" << json_escape(r.name) << "\", "
          << "\"iterations\": " << r.iterations << ", "
          << "\"real_time\": " << json_number(r.real_time) << ", "
          << "\"cpu_time\": " << json_number(r.cpu_time) << ", "
          << "\"time_unit\": \"" << r.time_unit << "\"";
      if (!r.label.empty()) {
        out << ", \"label\": \"" << json_escape(r.label) << "\"";
      }
      if (!r.counters.empty()) {
        out << ", \"counters\": {";
        for (std::size_t j = 0; j < r.counters.size(); ++j) {
          if (j != 0) out << ", ";
          out << "\"" << json_escape(r.counters[j].first)
              << "\": " << json_number(r.counters[j].second);
        }
        out << "}";
      }
      out << " }";
    }
    out << "\n  ]\n}\n";
    return path;
  }

 private:
  std::string area_;
  std::vector<Record> records_;
};

inline int run_with_json(int argc, char** argv, const std::string& area) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter(area);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_file();
  benchmark::Shutdown();
  return 0;
}

}  // namespace zendoo::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also emits
/// BENCH_<area>.json.
#define ZENDOO_BENCH_MAIN(area)                              \
  int main(int argc, char** argv) {                          \
    return ::zendoo::bench::run_with_json(argc, argv, area); \
  }
