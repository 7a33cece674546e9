// Shared pieces of the benchmark driver: run options, the result each
// workload returns, a minimal JSON object writer, and the host probes
// (common.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/summary.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// A generator-suite matrix at a row scale (gen::suite_spec).
struct SuiteMatrix {
  const char* name;
  double scale;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Ordered JSON object built as text. Numbers are written with every
/// significant digit (shortest round-trip form); non-finite numbers,
/// which JSON cannot carry, are written as null.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::int64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& obj(const std::string& key, const Json& value);
  Json& arr(const std::string& key, const std::vector<Json>& values);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// What a workload hands back to main(): the correctness verdict, the
/// operation counts, the metric values of the requested mode (keyed by
/// the names in end_to_end_metrics() / per_layer_metrics()), and a
/// diagnostics object printed on the line before the result.
struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  Json report;
};

WorkloadResult run_grid_steady(const RunOptions& opts);
WorkloadResult run_serve_hot(const RunOptions& opts);

// ---- host probes and trace helpers (common.cpp) ------------------------

/// CPUs this process may run on (the affinity mask, as `nproc` reports).
int nproc();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib();

/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds();

/// Aggregate /proc/stat CPU tick counters: steal and total.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();

/// Per-core L2 and last-level cache sizes in bytes, from sysfs (0 when
/// unreadable).
struct CacheSizes {
  std::int64_t l2 = 0;
  std::int64_t llc = 0;
};
CacheSizes cache_sizes();

/// The host block recorded with every run: CPU model, nproc and
/// affinity, resolved ISA, OpenMP environment and cache sizes.
Json host_block();

/// Monotonic nanoseconds on the program's telemetry clock.
inline std::int64_t now_ns() { return spmm::telemetry::now_ns(); }

/// The program's summary of a MemorySink's events, keeping every span
/// record (in `slowest`) rather than the ten longest.
spmm::telemetry::TraceSummary summarize(const std::vector<spmm::telemetry::Event>& events);

/// Sum and mean of the durations (ms) of the named spans (0 if none).
double phase_total_ms(const spmm::telemetry::TraceSummary& summary, std::string_view name);
double phase_mean_ms(const spmm::telemetry::TraceSummary& summary, std::string_view name);

/// Harness self time per `run` span in ms: each run span minus the
/// warm-up, iteration and verify spans it contains. Those three occur
/// only inside run spans, so totals suffice and concurrent workers need
/// no span pairing.
double harness_self_ms(const spmm::telemetry::TraceSummary& summary);

/// formats.<FMT>.convert_ms: mean duration of the program's `format`
/// spans per format (COO's identity conversion is not reported).
void add_convert_metrics(const spmm::telemetry::TraceSummary& summary,
                         std::map<std::string, double>& layer);

}  // namespace perfbench
