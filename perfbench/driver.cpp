// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload grid_steady|serve_hot
//                    --seed N --seconds S --trace 0|1
//
// stdout ends with two JSON lines: a diagnostics report (host block,
// thread budget, validity flags, per-workload detail) and the result,
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set;
// a per-layer metric of a layer the workload does not exercise is 0.
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

// Metric names and units of the two modes, in BENCHMARK.json order
// (run.py checks the two agree).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"setup_s", "s"},          {"rss_mb", "MiB"},
      {"gflops_serial", "GFLOP/s"}, {"gflops_parallel", "GFLOP/s"},
      {"grid_s", "s"},           {"p50_ms", "ms"},
      {"p95_ms", "ms"},          {"throughput_rps", "1/s"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n{{"gen.generate_s", "s"}};
    const char* formats[] = {"COO", "CSR", "ELL", "BCSR", "BELL", "SELL-C", "HYB", "CSR5"};
    for (const char* f : formats) {
      if (std::string(f) != "COO") n.push_back({std::string("formats.") + f + ".convert_ms", "ms"});
    }
    for (const char* f : formats) {
      n.push_back({std::string("formats.") + f + ".bytes_per_nnz", "B/nnz"});
    }
    for (const char* f : formats) {
      n.push_back({std::string("kernels.") + f + ".serial_gflops", "GFLOP/s"});
      n.push_back({std::string("kernels.") + f + ".parallel_gflops", "GFLOP/s"});
    }
    const std::pair<std::string, std::string> rest[] = {
        {"kernels.collapsed_cells", "count"},
        {"core.verify_ms", "ms"},
        {"core.harness_ms", "ms"},
        {"serve.submit_us_p50", "us"},
        {"serve.engine_ms_p50", "ms"},
        {"serve.engine_ms_p95", "ms"},
        {"serve.batch_size_avg", "count"},
        {"serve.kernel_share", "ratio"},
        {"serve.cache.hit_ratio", "ratio"},
        {"serve.send_lag_ms_p99", "ms"},
        {"proc.cpu_util", "ratio"},
        {"host.steal_pct", "%"},
        {"host.speed", "ratio"},
        {"trace.overhead_pct", "%"},
    };
    n.insert(n.end(), std::begin(rest), std::end(rest));
    return n;
  }();
  return names;
}

// Steal above this share of CPU time over the run flags it.
constexpr double kStealLimitPct = 5.0;

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload grid_steady|serve_hot"
               " --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (opts.workload.empty()) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const CpuTicks ticks0 = read_cpu_ticks();
    const std::int64_t t0 = now_ns();
    WorkloadResult result;
    if (opts.workload == "grid_steady") {
      result = run_grid_steady(opts);
    } else if (opts.workload == "serve_hot") {
      result = run_serve_hot(opts);
    } else {
      return usage("unknown workload " + opts.workload);
    }
    const CpuTicks ticks1 = read_cpu_ticks();
    const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    const std::uint64_t total = ticks1.total - ticks0.total;
    const double steal_pct =
        total > 0 ? 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                        static_cast<double>(total)
                  : 0.0;
    if (opts.trace) result.metrics["host.steal_pct"] = steal_pct;

    const auto& names = opts.trace ? per_layer_metrics() : end_to_end_metrics();
    std::set<std::string> known;
    for (const auto& [name, unit] : names) known.insert(name);
    for (const auto& [name, value] : result.metrics) {
      if (known.count(name) == 0) {
        std::cerr << "perfbench_driver: workload set unlisted metric " << name << "\n";
        return 1;
      }
    }
    Json metrics;
    for (const auto& [name, unit] : names) {
      const auto it = result.metrics.find(name);
      if (it == result.metrics.end() && !opts.trace) {
        std::cerr << "perfbench_driver: workload did not set " << name << "\n";
        return 1;
      }
      double value = it == result.metrics.end() ? 0.0 : it->second;
      // A percentile that lands on a failed operation is +infinity;
      // JSON has no infinity, so it is written as the largest double.
      if (std::isinf(value)) value = std::numeric_limits<double>::max();
      Json metric;
      metric.num("value", value).str("unit", unit);
      metrics.obj(name, metric);
    }

    Json report;
    report.str("workload", opts.workload)
        .integer("seed", static_cast<std::int64_t>(opts.seed))
        .num("seconds", opts.seconds)
        .boolean("trace", opts.trace)
        .num("wall_s", wall_s)
        .obj("host", host_block())
        .num("steal_pct", steal_pct)
        .boolean("steal_ok", steal_pct <= kStealLimitPct)
        .obj("detail", result.report);
    Json wrapper;
    wrapper.obj("perfbench_report", report);
    std::cout << wrapper.text() << "\n";

    Json line;
    line.boolean("correct", result.correct)
        .integer("attempted", static_cast<std::int64_t>(result.attempted))
        .integer("failed", static_cast<std::int64_t>(result.failed))
        .obj("metrics", metrics);
    std::cout << line.text() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
