// grid_steady: a closed loop over the paper's characterization grid.
//
// Four suite matrices, one per locality class, each formatted once in
// set-up into the 8 host formats. A pass runs every (matrix, format)
// instance as a `serial` cell at t=1 and an `omp` cell at t=nproc-1
// (grid_threads), each through run_plan with verification against the
// COO reference.
// Passes repeat until the time budget is spent; one untimed pass first
// lets caches fill and the OpenMP team start. Every cell sample is
// bracketed by the host-speed reference (reference.hpp) on as many
// threads, and scaled to the nominal host by the mean of the two speeds.
// Set-up is timed in pieces (each matrix's generation, each instance's
// formatting), each bracketed the same way.
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/runner.hpp"
#include "gen/suite.hpp"
#include "metrics.hpp"
#include "reference.hpp"
#include "support/registry.hpp"

namespace perfbench {
namespace {

using Bench = spmm::bench::SpmmBenchmark<double, std::int32_t>;
using Matrix = spmm::Coo<double, std::int32_t>;

// One matrix per locality class: clustered FEM with regular rows,
// power-law with column ratio 44 (ELL and BCSR are pathological), a
// banded stencil, and 2-3 nonzeros per row (index-bound). Each scale
// makes CSR + B + C at k=16 exceed a 2 MiB per-core L2 (3.0-3.2 MiB).
constexpr SuiteMatrix kMatrices[] = {
    {"cant", 0.08},
    {"torso1", 0.02},
    {"af23560", 0.25},
    {"shallow_water1", 0.125},
};
constexpr int kK = 16;
constexpr int kWarmup = 1;
constexpr int kIterations = 5;
constexpr int kSetupReps = 5;
// Reference products timed at each bracket of a cell (their median):
// enough that an interrupt or a time slice does not set the speed.
constexpr int kRefReps = 15;
// A pass sample below this share of its cell's median is a collapse
// (a descheduled OpenMP thread, a steal burst) and is flagged, not
// averaged in.
constexpr double kCollapseShare = 0.5;

struct Instance {
  std::string matrix;
  spmm::Format format = spmm::Format::kCoo;
  std::unique_ptr<Bench> bench;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
};

struct Cell {
  std::size_t instance = 0;
  spmm::Variant variant = spmm::Variant::kSerial;
  int threads = 1;
  // Per pass, scaled to the nominal host; the raw rate and the host
  // speed are kept for the report.
  std::vector<double> pass_gflops;
  std::vector<double> pass_wall_ms;
  std::vector<double> pass_raw_gflops;
  std::vector<double> pass_speed;
  double p50_gflops = 0.0;
  double p50_wall_ms = 0.0;
  double p50_raw_gflops = 0.0;
  double p50_speed = 0.0;
  int collapsed = 0;
};

struct GridRun {
  std::vector<double> setup_seconds;  // scaled to the nominal host
  std::vector<double> raw_setup_seconds;
  std::vector<Instance> instances;
  std::vector<Cell> cells;
  int passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  double window_seconds = 0.0;
  double cpu_seconds = 0.0;
  int collapsed = 0;
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// Generates and formats every instance, timing each generation and each
// instance's set-up and conversion on `timer`.
std::vector<Instance> build_instances(std::uint64_t seed, int threads,
                                      const std::shared_ptr<spmm::telemetry::Sink>& sink,
                                      ScaledTimer& timer) {
  spmm::telemetry::Session tel(sink);
  spmm::BenchParams params;
  params.k = kK;
  params.warmup = kWarmup;
  params.iterations = kIterations;
  params.threads = threads;
  params.seed = seed;
  params.verify = true;
  params.on_error = spmm::OnError::kContinue;
  params.sink = sink;
  std::vector<Instance> out;
  for (const SuiteMatrix& m : kMatrices) {
    Matrix coo;
    timer.time([&] {
      spmm::telemetry::ScopedSpan span(tel, "gen.generate", "perfbench", m.name);
      coo = spmm::gen::generate<double, std::int32_t>(
          spmm::gen::suite_spec(m.name, m.scale, seed));
    });
    for (const spmm::Format f : spmm::kAllFormats) {
      Instance inst;
      inst.matrix = m.name;
      inst.format = f;
      inst.rows = coo.rows();
      inst.cols = coo.cols();
      inst.nnz = static_cast<std::int64_t>(coo.nnz());
      timer.time([&] {
        inst.bench = spmm::bench::make_benchmark<double, std::int32_t>(f);
        inst.bench->setup(coo, params, m.name);
        spmm::telemetry::ScopedSpan span(tel, "formats.convert", "perfbench",
                                         std::string(spmm::format_name(f)));
        inst.bench->ensure_formatted();
      });
      out.push_back(std::move(inst));
    }
  }
  return out;
}

// One pass over every cell. Every cell's verdict feeds `correct`;
// only recorded passes count toward the metrics.
void run_pass(GridRun& run, bool record, spmm::telemetry::Session& tel, Reference& ref) {
  for (Cell& cell : run.cells) {
    Instance& inst = run.instances[cell.instance];
    spmm::bench::PlanCell plan;
    plan.variant = cell.variant;
    plan.threads = cell.threads;
    const double speed0 = ref.speed(cell.threads, kRefReps);
    const std::int64_t t0 = now_ns();
    spmm::bench::BenchResult r;
    {
      spmm::telemetry::ScopedSpan span(tel, "core.run_plan", "perfbench",
                                       inst.matrix);
      r = spmm::bench::run_plan(*inst.bench, {plan}).front();
    }
    const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
    const double speed = 0.5 * (speed0 + ref.speed(cell.threads, kRefReps));
    const bool ok = r.status == spmm::bench::RunStatus::kOk &&
                    r.verification_run && r.verified &&
                    r.p50_compute_seconds > 0.0;
    run.correct = run.correct && ok;
    if (!record) continue;
    ++run.attempted;
    if (!ok) {
      ++run.failed;
      continue;
    }
    const double gflops = r.flops / r.p50_compute_seconds / 1e9;
    cell.pass_wall_ms.push_back(wall_ms * speed);
    cell.pass_gflops.push_back(gflops / speed);
    cell.pass_raw_gflops.push_back(gflops);
    cell.pass_speed.push_back(speed);
  }
  if (record) ++run.passes;
}

GridRun measure(std::uint64_t seed, double seconds, int setup_reps,
                const std::shared_ptr<spmm::telemetry::Sink>& sink) {
  const int threads = grid_threads(nproc());
  Reference ref;
  GridRun run;
  for (int rep = 0; rep < setup_reps; ++rep) {
    run.instances.clear();
    ScaledTimer timer(ref, kRefReps);
    run.instances = build_instances(seed, threads, sink, timer);
    run.setup_seconds.push_back(timer.scaled_seconds());
    run.raw_setup_seconds.push_back(timer.raw_seconds());
  }
  // All serial cells, then all omp cells: a serial cell that directly
  // follows an omp cell runs beside the team's spinning threads and
  // measures a different machine.
  for (const auto& [variant, cell_threads] :
       {std::pair{spmm::Variant::kSerial, 1},
        std::pair{spmm::Variant::kParallel, threads}}) {
    for (std::size_t i = 0; i < run.instances.size(); ++i) {
      Cell cell;
      cell.instance = i;
      cell.variant = variant;
      cell.threads = cell_threads;
      run.cells.push_back(std::move(cell));
    }
  }
  spmm::telemetry::Session tel(sink);
  run_pass(run, false, tel, ref);

  const std::int64_t start = now_ns();
  const double cpu0 = process_cpu_seconds();
  while (seconds_since(start) < seconds) run_pass(run, true, tel, ref);
  run.window_seconds = seconds_since(start);
  run.cpu_seconds = process_cpu_seconds() - cpu0;

  for (Cell& cell : run.cells) {
    if (cell.pass_gflops.empty()) continue;
    const double mid = median(cell.pass_gflops);
    std::vector<double> kept;
    for (const double g : cell.pass_gflops) {
      if (g < kCollapseShare * mid) {
        ++cell.collapsed;
      } else {
        kept.push_back(g);
      }
    }
    cell.p50_gflops = median(kept);
    cell.p50_wall_ms = median(cell.pass_wall_ms);
    cell.p50_raw_gflops = median(cell.pass_raw_gflops);
    cell.p50_speed = median(cell.pass_speed);
    run.collapsed += cell.collapsed;
  }
  return run;
}

// Steady-state time of one pass: each cell's median wall time across
// passes, summed. Per-cell medians drop the passes that a steal burst
// or a page-fault storm hit; a pass total would carry every one.
double grid_seconds(const GridRun& run) {
  double total_ms = 0.0;
  for (const Cell& cell : run.cells) {
    if (cell.pass_wall_ms.empty()) return kInf;
    total_ms += cell.p50_wall_ms;
  }
  return total_ms / 1e3;
}

// Per-cell median wall times; a cell that never succeeded counts as a
// failure (+infinity) in the percentiles. Wall time, not kernel time:
// the four slowest cells are torso1's ELL and BELL, and the p95 falls
// between the fourth and fifth of them, whose kernel times move with
// the seed's block structure (spread 0.26 across ten seeds, against
// 0.15 for the walls, which verification steadies).
double cell_latency_ms(const GridRun& run, double q) {
  std::vector<double> walls;
  std::size_t never_ok = 0;
  for (const Cell& cell : run.cells) {
    if (cell.pass_wall_ms.empty()) {
      ++never_ok;
    } else {
      walls.push_back(cell.p50_wall_ms);
    }
  }
  return quantile_with_failures(walls, never_ok, q);
}

double geomean_of(const GridRun& run, spmm::Variant variant,
                  std::optional<spmm::Format> format = std::nullopt) {
  std::vector<double> values;
  for (const Cell& cell : run.cells) {
    const Instance& inst = run.instances[cell.instance];
    if (cell.variant != variant || cell.p50_gflops <= 0.0) continue;
    if (format && inst.format != *format) continue;
    values.push_back(cell.p50_gflops);
  }
  return values.empty() ? 0.0 : geomean(values);
}

// Working set of each formatted instance against the cache hierarchy.
// Bytes are computed from the structures (format + B + C), not measured:
// no hardware counters are read, so the intensity is a model.
Json working_sets(const GridRun& run) {
  const CacheSizes caches = cache_sizes();
  std::vector<Json> rows;
  for (const Instance& inst : run.instances) {
    const auto b_bytes = static_cast<std::int64_t>(inst.cols * kK * sizeof(double));
    const auto c_bytes = static_cast<std::int64_t>(inst.rows * kK * sizeof(double));
    const auto fmt_bytes = static_cast<std::int64_t>(inst.bench->format_bytes());
    const std::int64_t ws = fmt_bytes + b_bytes + c_bytes;
    const char* level = ws <= caches.l2 ? "L2" : ws <= caches.llc ? "LLC" : "DRAM";
    const double flops = 2.0 * static_cast<double>(inst.nnz) * kK;
    Json row;
    row.str("matrix", inst.matrix)
        .str("format", std::string(spmm::format_name(inst.format)))
        .integer("rows", inst.rows)
        .integer("nnz", inst.nnz)
        .integer("format_bytes", fmt_bytes)
        .integer("b_bytes", b_bytes)
        .integer("c_bytes", c_bytes)
        .integer("working_set_bytes", ws)
        .str("resident_in", level)
        .boolean("llc_resident", ws > caches.l2 && ws <= caches.llc)
        .num("computed_oi_flop_per_byte", flops / static_cast<double>(ws));
    rows.push_back(row);
  }
  Json out;
  out.str("basis", "modeled: computed bytes, hw_backend=none")
      .integer("k", kK)
      .integer("l2_bytes", caches.l2)
      .integer("llc_bytes", caches.llc)
      .arr("instances", rows);
  return out;
}

// Median over one variant's cells of their median host speed (1 is the
// nominal host; 0 when no cell succeeded).
double median_speed(const GridRun& run, spmm::Variant variant) {
  std::vector<double> speeds;
  for (const Cell& cell : run.cells) {
    if (cell.variant == variant && !cell.pass_speed.empty()) speeds.push_back(cell.p50_speed);
  }
  return speeds.empty() ? 0.0 : median(speeds);
}

// The scaling behind the figures: the host's measured speed and the
// unscaled rates it was applied to.
Json host_speed(const GridRun& run) {
  Json out;
  for (const auto& [variant, name] :
       {std::pair{spmm::Variant::kSerial, "serial"},
        std::pair{spmm::Variant::kParallel, "parallel"}}) {
    std::vector<double> raw;
    for (const Cell& cell : run.cells) {
      if (cell.variant == variant && !cell.pass_speed.empty()) raw.push_back(cell.p50_raw_gflops);
    }
    Json block;
    block.num("speed_p50", median_speed(run, variant))
        .num("raw_gflops_geomean", raw.empty() ? 0.0 : geomean(raw));
    out.obj(name, block);
  }
  out.num("nominal_reference_s", Reference::kNominalSeconds)
      .num("raw_setup_s", median(run.raw_setup_seconds));
  return out;
}

Json cell_table(const GridRun& run) {
  std::vector<Json> rows;
  for (const Cell& cell : run.cells) {
    const Instance& inst = run.instances[cell.instance];
    Json row;
    row.str("matrix", inst.matrix)
        .str("format", std::string(spmm::format_name(inst.format)))
        .str("variant", std::string(spmm::variant_name(cell.variant)))
        .integer("threads", cell.threads)
        .num("p50_gflops", cell.p50_gflops)
        .num("p50_wall_ms", cell.p50_wall_ms)
        .num("p50_raw_gflops", cell.p50_raw_gflops)
        .num("p50_host_speed", cell.p50_speed)
        .integer("passes", static_cast<std::int64_t>(cell.pass_gflops.size()))
        .integer("collapsed", cell.collapsed);
    rows.push_back(row);
  }
  Json out;
  out.arr("cells", rows);
  return out;
}

}  // namespace

WorkloadResult run_grid_steady(const RunOptions& opts) {
  WorkloadResult out;
  const int threads = grid_threads(nproc());
  Json budget;
  budget.integer("kernel_threads", threads).integer("total", threads)
      .integer("nproc", nproc());
  out.report.str("loop", "closed").integer("k", kK)
      .integer("iterations", kIterations).integer("warmup", kWarmup)
      .obj("thread_budget", budget);

  if (!opts.trace) {
    const GridRun run = measure(opts.seed, opts.seconds, kSetupReps, nullptr);
    out.correct = run.correct;
    out.attempted = run.attempted;
    out.failed = run.failed;
    auto& m = out.metrics;
    m["setup_s"] = median(run.setup_seconds);
    m["rss_mb"] = peak_rss_mib();
    m["gflops_serial"] = geomean_of(run, spmm::Variant::kSerial);
    m["gflops_parallel"] = geomean_of(run, spmm::Variant::kParallel);
    m["grid_s"] = grid_seconds(run);
    m["p50_ms"] = cell_latency_ms(run, 0.50);
    m["p95_ms"] = cell_latency_ms(run, 0.95);
    // Cells per second at those medians: grid_s restated as a rate.
    m["throughput_rps"] = static_cast<double>(run.cells.size()) / m["grid_s"];
    out.report.integer("passes", run.passes)
        .num("window_s", run.window_seconds)
        .obj("host_speed", host_speed(run))
        .integer("collapsed_cell_passes", run.collapsed)
        .obj("working_sets", working_sets(run))
        .obj("cells", cell_table(run));
    return out;
  }

  // Traced mode: an untraced half, then a traced half with the
  // telemetry sink attached; their grid_s difference is the tracing
  // overhead.
  const double half = opts.seconds / 2.0;
  double untraced_grid_s = 0.0;
  int collapsed = 0;
  {
    const GridRun run = measure(opts.seed, half, 1, nullptr);
    untraced_grid_s = grid_seconds(run);
    out.correct = run.correct;
    collapsed += run.collapsed;
  }
  auto sink = std::make_shared<spmm::telemetry::MemorySink>();
  const GridRun run = measure(opts.seed, half, 1, sink);
  out.correct = out.correct && run.correct;
  out.attempted = run.attempted;
  out.failed = run.failed;
  collapsed += run.collapsed;
  const spmm::telemetry::TraceSummary spans = summarize(sink->events());

  auto& m = out.metrics;
  m["gen.generate_s"] = phase_total_ms(spans, "gen.generate") / 1e3;
  add_convert_metrics(spans, m);
  std::map<spmm::Format, std::pair<double, double>> bytes_nnz;
  for (const Instance& inst : run.instances) {
    auto& [bytes, nnz] = bytes_nnz[inst.format];
    bytes += static_cast<double>(inst.bench->format_bytes());
    nnz += static_cast<double>(inst.nnz);
  }
  for (const spmm::Format f : spmm::kAllFormats) {
    const std::string name(spmm::format_name(f));
    m["formats." + name + ".bytes_per_nnz"] =
        bytes_nnz[f].first / bytes_nnz[f].second;
    m["kernels." + name + ".serial_gflops"] =
        geomean_of(run, spmm::Variant::kSerial, f);
    m["kernels." + name + ".parallel_gflops"] =
        geomean_of(run, spmm::Variant::kParallel, f);
  }
  m["kernels.collapsed_cells"] = collapsed;
  m["core.verify_ms"] = phase_mean_ms(spans, spmm::names::tel::kSpanVerify);
  m["core.harness_ms"] = harness_self_ms(spans);
  m["proc.cpu_util"] = run.cpu_seconds / (run.window_seconds * threads);
  m["host.speed"] = median_speed(run, spmm::Variant::kSerial);
  const double traced_grid_s = grid_seconds(run);
  m["trace.overhead_pct"] = (traced_grid_s / untraced_grid_s - 1.0) * 100.0;
  out.report.obj("working_sets", working_sets(run));
  return out;
}

}  // namespace perfbench
