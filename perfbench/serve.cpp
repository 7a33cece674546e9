// serve_hot: open-loop traffic through spmm::serve.
//
// Four tenants with one ingress ring each send Zipf(1)-skewed requests
// over 4 small CSR matrices to an engine whose cache is far larger than
// the working set and is warmed before timing, so every request's
// blocking path is queue, batch, harness and a small-k kernel, with no
// formatting on it. Serial kernels run on a thread-budgeted worker pool;
// one generator thread sends every request at its scheduled time.
//
// A run is kSlices slices of two parts, so each samples the host across
// the whole run:
//   open loop    Poisson arrivals at a fixed rate: request latency, and
//                the engine's kernel and harness time from its spans.
//   saturation   a burst submitted at once: the engine's capacity, and
//                its kernel rate at full batches.
// The engine returns no product, so correctness is checked before the
// engine starts: every key runs through run_plan with verification at
// each summed k a batch can carry.
//
// Figures are scaled to the nominal host (reference.hpp). The engine's
// kernel and harness spans are scaled by the speed that a SpeedProbe
// measured on the CPU that ran them, at the time; request latencies and
// burst completions by the span-weighted speed of the batches of their
// window or burst; set-ups by the reference timed on either side.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/runner.hpp"
#include "gen/suite.hpp"
#include "metrics.hpp"
#include "reference.hpp"
#include "serve/engine.hpp"
#include "support/registry.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using spmm::serve::RequestStatus;
using Matrix = spmm::Coo<double, std::int32_t>;
using MemorySinkPtr = std::shared_ptr<spmm::telemetry::MemorySink>;
namespace tel = spmm::names::tel;

constexpr SuiteMatrix kMatrices[] = {
    {"cant", 0.02}, {"af23560", 0.05}, {"bcsstk17", 0.1}, {"dw4096", 0.1}};
constexpr spmm::Format kFormat = spmm::Format::kCsr;
constexpr std::size_t kKeys = std::size(kMatrices);
// Zipf exponent of key popularity: key i weighs (i+1)^-kSkew.
constexpr double kSkew = 1.0;
constexpr int kTenants = 4;
constexpr int kRequestK = 8;
constexpr int kMaxBatch = 8;
constexpr int kWarmRounds = 3;
constexpr int kSetupReps = 15;
// Offered load of the open loop, requests per second (Poisson). It is
// fixed, not measured per run, so two commits see the same load. On a
// 4-vCPU Xeon VM it keeps the one worker about 15% busy (batches
// average about 1.05 requests), so a host running at half speed still
// queues little: at 2000 req/s the worker was 40% busy and a slow host
// state tripled p95.
constexpr double kRateRps = 800.0;
// Shares of a run's measuring time. The saturation bursts are sized for
// kBurstRps requests per second of their share; how long they take is
// what they measure.
constexpr double kOpenShare = 0.75;
constexpr double kBurstShare = 0.25;
constexpr double kBurstRps = 10000.0;
// Each slice is an open-loop segment followed by a burst.
constexpr int kSlices = 12;
// Latency percentiles are taken per window of this many consecutive
// open-loop requests (see quiet_quantile), about 60 ms: short enough
// that at 2-3% steal about half the windows see none. The median over
// the kept windows (about 180 of 9000 requests) steadies the per-window
// p95 of 50.
constexpr std::size_t kWindowRequests = 50;
// Completion-rate window of the saturation burst.
constexpr std::int64_t kRateWindowNs = 100'000'000;
// A generator whose median lag exceeds this share of the median
// latency has fallen behind the schedule, and the run is flagged: the
// p50_ms bound in BENCHMARK.json. Its p99 lag is reported too, but that
// measures the host's stalls more than the generator.
constexpr double kLagLimitShare = 0.25;
constexpr std::int64_t kIdleProbeNs = 5'000'000;
constexpr std::uint64_t kWarmIdBase = std::uint64_t{1} << 40;
// Reference products timed on either side of a set-up (their median).
constexpr int kRefReps = 15;
// How often the SpeedProbe samples each idle CPU.
constexpr std::int64_t kProbePeriodNs = 20'000'000;

using MatrixMap = std::map<std::string, Matrix>;

MatrixMap generate_matrices(std::uint64_t seed, spmm::telemetry::Session& session) {
  MatrixMap out;
  for (const SuiteMatrix& m : kMatrices) {
    spmm::telemetry::ScopedSpan span(session, "gen.generate", "perfbench", m.name);
    out.emplace(m.name, spmm::gen::generate<double, std::int32_t>(
                            spmm::gen::suite_spec(m.name, m.scale, seed)));
  }
  return out;
}

std::size_t key_index(const std::string& matrix) {
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (matrix == kMatrices[i].name) return i;
  }
  throw std::runtime_error("outcome for unknown matrix " + matrix);
}

/// A harness span the engine ran: when it ended, how long it took, and
/// the CPU the worker was on when it ended.
struct SpanSample {
  std::int64_t end_ns = 0;
  std::int64_t dur_ns = 0;
  int cpu = -1;
};

// Records the harness's `iteration` spans (one kernel invocation each)
// and `run` spans (the harness around them); the engine runs one of
// each per batch, on the worker thread that calls consume(). Passes
// every event on to `next` when there is one.
class KernelClock final : public spmm::telemetry::Sink {
 public:
  explicit KernelClock(std::shared_ptr<spmm::telemetry::Sink> next)
      : next_(std::move(next)) {}
  void consume(const spmm::telemetry::Event& e) override {
    if (e.kind == spmm::telemetry::EventKind::kSpanEnd &&
        (e.name == tel::kSpanIteration || e.name == tel::kSpanRun)) {
      const SpanSample sample{e.ts_ns, e.dur_ns, sched_getcpu()};
      const bool kernel = e.name == tel::kSpanIteration;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        (kernel ? iterations_ : runs_).push_back(sample);
      }
      if (kernel) spans_.fetch_add(1, std::memory_order_relaxed);
    }
    if (next_) next_->consume(e);
  }
  /// Kernel invocations so far: batches executed.
  [[nodiscard]] std::uint64_t spans() const { return spans_.load(); }
  [[nodiscard]] std::vector<SpanSample> iterations() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return iterations_;
  }
  [[nodiscard]] std::vector<SpanSample> runs() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return runs_;
  }

 private:
  std::shared_ptr<spmm::telemetry::Sink> next_;
  mutable std::mutex mu_;
  std::vector<SpanSample> iterations_;
  std::vector<SpanSample> runs_;
  std::atomic<std::uint64_t> spans_{0};
};

// Span time of an interval, raw and scaled to the nominal host.
struct SpanTime {
  double raw_ns = 0.0;
  double scaled_ns = 0.0;

  void add(double raw, double scaled) {
    raw_ns += raw;
    scaled_ns += scaled;
  }
  /// The span-weighted host speed over the interval (1 with no spans).
  [[nodiscard]] double speed() const { return raw_ns > 0.0 ? scaled_ns / raw_ns : 1.0; }
};

// Spans scaled by the probe's speed on their CPU, with prefix sums over
// end time so that any interval's SpanTime is two binary searches.
class ScaledSpans {
 public:
  ScaledSpans(std::vector<SpanSample> spans, const SpeedProbe& probe) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanSample& a, const SpanSample& b) { return a.end_ns < b.end_ns; });
    SpanTime total;
    for (const SpanSample& s : spans) {
      double speed = probe.speed(s.cpu, s.end_ns - s.dur_ns, s.end_ns);
      if (!(speed > 0.0)) {
        speed = 1.0;  // no sample for that CPU: left unscaled, counted
        ++unprobed_;
      }
      const auto dur = static_cast<double>(s.dur_ns);
      total.add(dur, dur * speed);
      end_ns_.push_back(s.end_ns);
      prefix_.push_back(total);
    }
  }
  /// Spans that ended in [t0, t1].
  [[nodiscard]] SpanTime between(std::int64_t t0, std::int64_t t1) const {
    const auto at = [&](std::int64_t t) {
      const auto i = static_cast<std::size_t>(
          std::upper_bound(end_ns_.begin(), end_ns_.end(), t) - end_ns_.begin());
      return i == 0 ? SpanTime{} : prefix_[i - 1];
    };
    const SpanTime hi = at(t1);
    const SpanTime lo = at(t0 - 1);
    return {hi.raw_ns - lo.raw_ns, hi.scaled_ns - lo.scaled_ns};
  }
  [[nodiscard]] std::size_t unprobed() const { return unprobed_; }

 private:
  std::vector<std::int64_t> end_ns_;
  std::vector<SpanTime> prefix_;
  std::size_t unprobed_ = 0;
};

// ---- key verification ----------------------------------------------

// The verdict on every key, and the sizes the benchmark needs.
struct Keys {
  bool verified = false;
  double format_bytes = 0.0;
  std::vector<double> nnz;
  /// Bytes the engine's cache charges for all keys at k=kRequestK.
  std::size_t working_set_bytes = 0;
};

// Formats every key and runs it through run_plan serially, as the
// workers do, at each summed k a batch of 1..kMaxBatch requests
// carries, with verification against the COO reference.
Keys verify_keys(const MatrixMap& matrices, std::uint64_t seed, const MemorySinkPtr& sink) {
  Keys out;
  spmm::telemetry::Session session(sink);
  spmm::BenchParams params;
  params.k = kRequestK;
  params.warmup = 0;
  params.iterations = 1;
  params.threads = 1;
  params.seed = seed;
  params.verify = true;
  params.on_error = spmm::OnError::kContinue;
  params.sink = sink;
  std::vector<spmm::bench::PlanCell> plan;
  for (int b = 1; b <= kMaxBatch; ++b) {
    spmm::bench::PlanCell cell;
    cell.variant = spmm::Variant::kSerial;
    cell.k = b * kRequestK;
    plan.push_back(cell);
  }
  out.verified = true;
  for (const SuiteMatrix& m : kMatrices) {
    const Matrix& coo = matrices.at(m.name);
    auto bench = spmm::bench::make_benchmark<double, std::int32_t>(kFormat);
    bench->setup(coo, params, m.name);
    {
      spmm::telemetry::ScopedSpan span(session, "formats.convert", "perfbench",
                                       std::string(spmm::format_name(kFormat)));
      bench->ensure_formatted();
    }
    std::vector<spmm::bench::BenchResult> results;
    {
      spmm::telemetry::ScopedSpan span(session, "core.run_plan", "perfbench", m.name);
      results = spmm::bench::run_plan(*bench, plan);
    }
    for (const spmm::bench::BenchResult& r : results) {
      out.verified = out.verified && r.status == spmm::bench::RunStatus::kOk &&
                     r.verification_run && r.verified;
    }
    out.format_bytes += static_cast<double>(bench->format_bytes());
    out.nnz.push_back(static_cast<double>(coo.nnz()));
    // The same charge InstanceCache::build_entry makes per entry.
    out.working_set_bytes +=
        bench->format_bytes() + coo.bytes() +
        (static_cast<std::size_t>(coo.rows()) + static_cast<std::size_t>(coo.cols())) *
            kRequestK * sizeof(double);
  }
  return out;
}

// ---- load generation -------------------------------------------------

struct Arrival {
  std::int64_t offset_ns = 0;
  int tenant = 0;
  std::size_t key = 0;
};

// Poisson arrivals at `rate` for `seconds`; keys drawn with Zipf
// weights, tenants uniformly.
std::vector<Arrival> schedule(std::uint64_t seed, double rate, double seconds) {
  spmm::Rng rng(seed ^ 0x5e7e5eedULL);
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kSkew);
    cdf.push_back(total);
  }
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.offset_ns = static_cast<std::int64_t>(t * 1e9);
    a.tenant = static_cast<int>(rng.uniform_index(kTenants));
    const double u = rng.uniform() * total;
    a.key = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    a.key = std::min(a.key, kKeys - 1);
    out.push_back(a);
  }
  return out;
}

// Sleep to `due_ns`. With the 1 us timer slack the generator sets (the
// default is 50 us) wake-ups on a 4-vCPU VM were late by about 20 us at
// the median and 0.1 ms at p95; the host's own stalls, 1-5 ms at p99,
// come on top whether the generator sleeps or spins.
void wait_until(std::int64_t due_ns) {
  const std::int64_t ahead = due_ns - now_ns();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

std::uint64_t terminal_count(const spmm::serve::EngineStats& s) {
  return s.completed + s.rejected + s.expired + s.failed;
}

spmm::serve::Request request(std::uint64_t id, const std::string& tenant,
                             std::size_t key) {
  spmm::serve::Request req;
  req.id = id;
  req.tenant = tenant;
  req.matrix = kMatrices[key].name;
  req.format = kFormat;
  req.k = kRequestK;
  return req;
}

// ---- one engine lifetime ---------------------------------------------

struct Engine {
  std::unique_ptr<spmm::serve::ServeEngine> engine;
  std::vector<spmm::serve::ServeEngine::Producer*> producers;
  std::shared_ptr<KernelClock> clock;
  std::uint64_t warm_requests = 0;
};

Engine start_engine(std::shared_ptr<const MatrixMap> matrices, std::size_t cache_budget,
                    const ThreadBudget& budget, std::uint64_t seed,
                    const MemorySinkPtr& sink) {
  spmm::serve::EngineConfig cfg;
  cfg.workers = budget.workers;
  cfg.cache_budget_bytes = cache_budget;
  cfg.max_batch = kMaxBatch;
  cfg.params.k = kRequestK;
  cfg.params.threads = budget.kernel_threads;
  cfg.params.seed = seed;
  // Serving semantics: one unverified kernel invocation per batch.
  cfg.params.iterations = 1;
  cfg.params.warmup = 0;
  cfg.params.verify = false;
  // The harness's events (run, iteration, format spans) always pass the
  // kernel clock; in traced runs they and the engine's own events
  // (request spans, cache counters) are recorded too.
  Engine e;
  e.clock = std::make_shared<KernelClock>(sink);
  cfg.sink = sink;
  cfg.params.sink = e.clock;
  cfg.provider = [matrices](const std::string& name) {
    return matrices->at(name);
  };
  e.engine = std::make_unique<spmm::serve::ServeEngine>(std::move(cfg));
  for (int t = 0; t < kTenants; ++t) e.producers.push_back(&e.engine->add_producer());
  e.engine->start();

  // Closed-loop warm-up: every key once per round, then wait for the
  // round's outcomes, so the cache is filled before timing starts. One
  // wait per round, not per request: each wait is a chain of thread
  // wake-ups whose latency follows the host's load, not the program.
  for (int round = 0; round < kWarmRounds; ++round) {
    for (std::size_t key = 0; key < kKeys; ++key) {
      e.producers.front()->submit(request(kWarmIdBase + e.warm_requests++, "warm", key));
    }
    while (terminal_count(e.engine->stats()) < e.warm_requests) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  return e;
}

// Waits until the engine has returned `n` outcomes and returns its
// stats. stats() sorts every latency so far under the lock the workers
// complete requests under, so it is read only once no batch has
// finished for kIdleProbeNs.
spmm::serve::EngineStats await_outcomes(const Engine& e, std::uint64_t n) {
  for (;;) {
    const std::uint64_t batches = e.clock->spans();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleProbeNs));
    if (e.clock->spans() != batches) continue;
    spmm::serve::EngineStats stats = e.engine->stats();
    if (terminal_count(stats) >= n) return stats;
  }
}

// Engine counters summed over a run's segments of one kind.
struct Tally {
  std::uint64_t batches = 0;
  double batch_size_sum = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;

  void add(const spmm::serve::EngineStats& from, const spmm::serve::EngineStats& to) {
    batches += to.batches - from.batches;
    batch_size_sum += to.batch_size_sum - from.batch_size_sum;
    hits += to.cache.hits - from.cache.hits;
    lookups += to.cache.hits - from.cache.hits + to.cache.misses - from.cache.misses;
  }
  [[nodiscard]] double batch_size_avg() const {
    return batches > 0 ? batch_size_sum / static_cast<double>(batches) : 0.0;
  }
  [[nodiscard]] double hit_ratio() const {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

// Figures marked "scaled" are scaled to the nominal host by the speed
// of the CPUs that ran their batches (ScaledSpans); the report also
// gives the raw ones.
struct ServeRun {
  Keys keys;
  std::vector<double> setup_seconds;  // scaled
  std::vector<double> raw_setup_seconds;
  ThreadBudget budget;
  std::size_t cache_budget = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool exactly_once = true;
  // Open loop.
  /// Due -> terminal latency of every open-loop request by id, scaled;
  /// failures (and requests with no outcome) are +infinity.
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  /// /proc/stat (steal, total) ticks at the start of every window of
  /// kWindowRequests requests, and after the last.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_marks;
  std::vector<double> engine_ms;  // enqueue -> terminal, ok requests
  std::vector<double> send_lag_ms;
  std::vector<double> submit_us;
  /// Kernel work (2·nnz·k) of the ok requests, and the `iteration` and
  /// `run` span time of the batches they rode in.
  double served_flops = 0.0;
  SpanTime open_kernel;
  SpanTime open_run;
  /// Spans whose CPU the probe had no sample for (left unscaled).
  std::size_t unprobed_spans = 0;
  /// Wall seconds of the open-loop segments, to their last outcome.
  double open_seconds = 0.0;
  double cpu_seconds = 0.0;
  Tally open_tally;
  std::map<std::string, std::uint64_t> errors;
  // Saturation bursts: completion times per slice, kernel work and time.
  std::vector<std::vector<std::int64_t>> burst_done_ns;
  double burst_flops = 0.0;
  SpanTime burst_kernel;
  std::vector<double> burst_speed;  // span-weighted, per slice
  Tally burst_tally;
  // Trace events by phase (traced runs only).
  std::vector<spmm::telemetry::Event> verify_events;
  std::vector<spmm::telemetry::Event> setup_events;
  std::vector<spmm::telemetry::Event> timed_events;
  std::vector<spmm::telemetry::Event> all_events;
};

ServeRun measure(std::uint64_t seed, double seconds, int setup_reps,
                 const MemorySinkPtr& sink) {
  ServeRun run;
  spmm::telemetry::Session session(sink);
  // Moves the sink's events so far into `into` (if any) and all_events.
  const auto snapshot = [&](std::vector<spmm::telemetry::Event>* into) {
    if (!sink) return;
    const std::vector<spmm::telemetry::Event> events = sink->events();
    sink->clear();
    if (into != nullptr) into->insert(into->end(), events.begin(), events.end());
    run.all_events.insert(run.all_events.end(), events.begin(), events.end());
  };

  run.keys = verify_keys(generate_matrices(seed, session), seed, sink);
  snapshot(&run.verify_events);

  const int cpus = nproc();
  run.budget = serve_budget(cpus);
  check_thread_budget(run.budget, cpus);
  run.cache_budget =
      std::max<std::size_t>(std::size_t{1} << 30, 4 * run.keys.working_set_bytes);

  Reference ref;
  Engine e;
  for (int rep = 0; rep < setup_reps; ++rep) {
    e = Engine{};  // the previous engine drains and joins first
    ScaledTimer timer(ref, kRefReps);
    timer.time([&] {
      auto matrices = std::make_shared<const MatrixMap>(generate_matrices(seed, session));
      e = start_engine(std::move(matrices), run.cache_budget, run.budget, seed, sink);
    });
    run.setup_seconds.push_back(timer.scaled_seconds());
    run.raw_setup_seconds.push_back(timer.raw_seconds());
  }
  snapshot(&run.setup_events);

  // Open-loop latency runs from each request's due time, so a late send
  // is charged to the request. Burst requests are numbered after the
  // open loop's.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const double open_s = kOpenShare * seconds;
  const std::vector<Arrival> arrivals = schedule(seed, kRateRps, open_s);
  const std::vector<Arrival> burst = schedule(seed + 1, kBurstRps, kBurstShare * seconds);
  const std::size_t n_open = arrivals.size();
  const std::size_t n_all = n_open + burst.size();
  std::vector<std::int64_t> due(n_open);
  std::vector<std::int64_t> sent(n_all);
  std::vector<int> burst_slice(burst.size());
  // Time ranges of each slice's open-loop segment and burst.
  std::vector<std::pair<std::int64_t, std::int64_t>> open_ranges;
  std::vector<std::pair<std::int64_t, std::int64_t>> burst_ranges;
  std::size_t next = 0;
  std::size_t next_burst = 0;
  spmm::serve::EngineStats stats = e.engine->stats();
  SpeedProbe probe(kProbePeriodNs);
  for (int slice = 0; slice < kSlices; ++slice) {
    const auto slice_ns = [&](int i) {
      return static_cast<std::int64_t>(open_s * 1e9 * i / kSlices);
    };
    // Due times continue the schedule: offset o is due at base + o.
    const std::int64_t base = now_ns() + 2'000'000 - slice_ns(slice);
    const std::int64_t wall0 = now_ns();
    const double cpu0 = process_cpu_seconds();
    for (; next < n_open && arrivals[next].offset_ns < slice_ns(slice + 1); ++next) {
      const Arrival& a = arrivals[next];
      if (next % kWindowRequests == 0) {
        const CpuTicks ticks = read_cpu_ticks();
        run.window_marks.push_back({ticks.steal, ticks.total});
      }
      due[next] = base + a.offset_ns;
      spmm::serve::Request req = request(next, "tenant" + std::to_string(a.tenant), a.key);
      wait_until(due[next]);
      sent[next] = now_ns();
      {
        spmm::telemetry::ScopedSpan span(session, "serve.submit", "perfbench");
        e.producers[static_cast<std::size_t>(a.tenant)]->submit(std::move(req));
      }
      run.submit_us.push_back(static_cast<double>(now_ns() - sent[next]) / 1e3);
      run.send_lag_ms.push_back(static_cast<double>(sent[next] - due[next]) / 1e6);
    }
    const spmm::serve::EngineStats open_end =
        await_outcomes(e, e.warm_requests + next + next_burst);
    run.cpu_seconds += process_cpu_seconds() - cpu0;
    open_ranges.emplace_back(wall0, now_ns());
    run.open_seconds += static_cast<double>(open_ranges.back().second - wall0) / 1e9;
    run.open_tally.add(stats, open_end);
    snapshot(&run.timed_events);

    // Saturation: the slice's share of the burst at once, round-robin
    // over the tenants; the workers then run full batches back to back.
    const std::int64_t burst0 = now_ns();
    const std::size_t burst_end = burst.size() * static_cast<std::size_t>(slice + 1) / kSlices;
    for (; next_burst < burst_end; ++next_burst) {
      const int tenant = static_cast<int>(next_burst % kTenants);
      burst_slice[next_burst] = slice;
      sent[n_open + next_burst] = now_ns();
      e.producers[static_cast<std::size_t>(tenant)]->submit(
          request(n_open + next_burst, "tenant" + std::to_string(tenant),
                  burst[next_burst].key));
    }
    stats = await_outcomes(e, e.warm_requests + next + next_burst);
    burst_ranges.emplace_back(burst0, now_ns());
    run.burst_tally.add(open_end, stats);
    snapshot(nullptr);
  }
  const CpuTicks ticks = read_cpu_ticks();
  run.window_marks.push_back({ticks.steal, ticks.total});
  e.engine->drain();
  probe.stop();

  // Every span scaled by its CPU's speed at the time, summed per phase.
  const ScaledSpans kernels(e.clock->iterations(), probe);
  const ScaledSpans runs(e.clock->runs(), probe);
  run.unprobed_spans = kernels.unprobed() + runs.unprobed();
  for (const auto& [t0, t1] : open_ranges) {
    const SpanTime k = kernels.between(t0, t1);
    const SpanTime r = runs.between(t0, t1);
    run.open_kernel.add(k.raw_ns, k.scaled_ns);
    run.open_run.add(r.raw_ns, r.scaled_ns);
  }
  for (const auto& [t0, t1] : burst_ranges) {
    const SpanTime k = kernels.between(t0, t1);
    run.burst_kernel.add(k.raw_ns, k.scaled_ns);
    run.burst_speed.push_back(k.speed());
  }

  const std::vector<spmm::serve::RequestOutcome> outcomes = e.engine->outcomes();
  std::vector<int> seen(n_all, 0);
  std::uint64_t warm_seen = 0;
  std::uint64_t ok = 0;
  run.burst_done_ns.assign(kSlices, {});
  run.latency_ms.assign(n_open, kInf);
  run.raw_latency_ms.assign(n_open, kInf);
  for (const auto& o : outcomes) {
    if (o.id >= kWarmIdBase) {
      ++warm_seen;
      continue;
    }
    if (o.id >= n_all) {
      run.exactly_once = false;
      continue;
    }
    ++seen[o.id];
    const bool in_open = o.id < n_open;
    if (o.status != RequestStatus::kOk) {
      ++run.errors[o.error_code.empty() ? spmm::serve::request_status_name(o.status)
                                        : o.error_code];
      continue;
    }
    ++ok;
    const double flops = 2.0 * run.keys.nnz[key_index(o.matrix)] * kRequestK;
    if (!in_open) {
      run.burst_flops += flops;
      run.burst_done_ns[static_cast<std::size_t>(burst_slice[o.id - n_open])].push_back(
          sent[o.id] + static_cast<std::int64_t>(o.latency_ms * 1e6));
      continue;
    }
    run.served_flops += flops;
    run.raw_latency_ms[o.id] = due_latency_ms(due[o.id], sent[o.id], o.latency_ms);
    run.engine_ms.push_back(o.latency_ms);
  }
  // A window's latencies are scaled by the speed of the batches that
  // ended from its first due time to its last completion.
  for (std::size_t first = 0; first < n_open; first += kWindowRequests) {
    const std::size_t end = std::min(n_open, first + kWindowRequests);
    std::int64_t last = due[end - 1];
    for (std::size_t id = first; id < end; ++id) {
      if (std::isfinite(run.raw_latency_ms[id])) {
        last = std::max(last, due[id] + static_cast<std::int64_t>(run.raw_latency_ms[id] * 1e6));
      }
    }
    const double speed = kernels.between(due[first], last).speed();
    for (std::size_t id = first; id < end; ++id) {
      run.latency_ms[id] = run.raw_latency_ms[id] * speed;
    }
  }
  run.exactly_once = run.exactly_once && warm_seen == e.warm_requests &&
                     std::all_of(seen.begin(), seen.end(),
                                 [](int n) { return n == 1; });
  run.attempted = n_all;
  run.failed = run.attempted - ok;
  return run;
}

// Request latency percentile of the open loop over windows of
// kWindowRequests requests, from the quieter half of them by steal.
double latency_quantile(const ServeRun& run, double q, bool raw = false) {
  const std::vector<double>& latency = raw ? run.raw_latency_ms : run.latency_ms;
  if (latency.empty()) return kInf;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < latency.size(); i += kWindowRequests) {
    const std::size_t end = std::min(latency.size(), i + kWindowRequests);
    windows.emplace_back(latency.begin() + static_cast<std::ptrdiff_t>(i),
                         latency.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return quiet_quantile(windows, window_steal(run.window_marks), kWindowRequests / 2, q);
}

double p(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : quantile_with_failures(v, 0, q);
}

// GFLOP/s from flops and nanoseconds (0 when nothing ran).
double gflops(double flops, double ns) { return ns > 0.0 ? flops / ns : 0.0; }

// Completions per second during the saturation bursts, each burst's
// completion times scaled by the speed of its batches.
double capacity_rps(const ServeRun& run) {
  std::vector<std::vector<std::int64_t>> stretches;
  for (std::size_t i = 0; i < run.burst_done_ns.size(); ++i) {
    stretches.push_back(scale_stretch(run.burst_done_ns[i], run.burst_speed[i]));
  }
  return windowed_rate(stretches, kRateWindowNs);
}

}  // namespace

// The scaling behind the figures: the host's measured speed (1 is the
// nominal host) and unscaled figures.
Json host_speed(const ServeRun& run) {
  Json out;
  out.num("open_speed", run.open_kernel.speed())
      .num("burst_speed", run.burst_kernel.speed())
      .integer("unprobed_spans", static_cast<std::int64_t>(run.unprobed_spans))
      .num("nominal_reference_s", Reference::kNominalSeconds)
      .num("raw_setup_s", median(run.raw_setup_seconds))
      .num("raw_gflops_serial", gflops(run.served_flops, run.open_kernel.raw_ns))
      .num("raw_gflops_parallel", gflops(run.burst_flops, run.burst_kernel.raw_ns))
      .num("raw_p50_ms", latency_quantile(run, 0.50, true))
      .num("raw_p95_ms", latency_quantile(run, 0.95, true))
      .num("raw_throughput_rps", windowed_rate(run.burst_done_ns, kRateWindowNs));
  return out;
}

WorkloadResult run_serve_hot(const RunOptions& opts) {
  WorkloadResult out;
  const auto fill_report = [&](const ServeRun& run) {
    Json budget;
    budget.integer("workers", run.budget.workers)
        .integer("kernel_threads", run.budget.kernel_threads)
        .integer("dispatcher", run.budget.dispatcher)
        .integer("generator", run.budget.generator)
        .integer("total", run.budget.total())
        .integer("sched_idle_probe_threads", nproc())
        .integer("nproc", nproc());
    Json errors;
    for (const auto& [code, n] : run.errors) errors.integer(code, static_cast<std::int64_t>(n));
    const double lag_p50 = p(run.send_lag_ms, 0.50);
    const double lag_limit = kLagLimitShare * latency_quantile(run, 0.50);
    out.report.str("loop", "open")
        .num("rate_rps", kRateRps)
        .num("skew", kSkew)
        .integer("keys", static_cast<std::int64_t>(kKeys))
        .integer("request_k", kRequestK)
        .obj("thread_budget", budget)
        .integer("cache_budget_bytes", static_cast<std::int64_t>(run.cache_budget))
        .integer("working_set_bytes", static_cast<std::int64_t>(run.keys.working_set_bytes))
        .boolean("every_request_one_outcome", run.exactly_once)
        .boolean("keys_verified", run.keys.verified)
        .str("per_request_outputs", "not checked: the engine returns no product")
        .num("send_lag_p50_ms", lag_p50)
        .num("send_lag_p99_ms", p(run.send_lag_ms, 0.99))
        .num("send_lag_limit_ms", lag_limit)
        .boolean("generator_kept_up", lag_p50 <= lag_limit)
        .num("cache_hit_ratio", run.open_tally.hit_ratio())
        .num("batch_size_avg", run.open_tally.batch_size_avg())
        .num("burst_batch_size_avg", run.burst_tally.batch_size_avg())
        .obj("host_speed", host_speed(run))
        .obj("errors", errors);
  };
  const auto correct = [](const ServeRun& run) {
    return run.keys.verified && run.exactly_once;
  };

  if (!opts.trace) {
    const ServeRun run = measure(opts.seed, opts.seconds, kSetupReps, nullptr);
    out.correct = correct(run);
    out.attempted = run.attempted;
    out.failed = run.failed;
    auto& m = out.metrics;
    m["setup_s"] = median(run.setup_seconds);
    m["rss_mb"] = peak_rss_mib();
    m["gflops_serial"] = gflops(run.served_flops, run.open_kernel.scaled_ns);
    m["gflops_parallel"] = gflops(run.burst_flops, run.burst_kernel.scaled_ns);
    m["grid_s"] = run.open_run.scaled_ns / 1e9;
    m["p50_ms"] = latency_quantile(run, 0.50);
    m["p95_ms"] = latency_quantile(run, 0.95);
    m["throughput_rps"] = capacity_rps(run);
    fill_report(run);
    return out;
  }

  // Traced mode: an untraced half, then a traced half; their p50_ms
  // difference is the tracing overhead.
  const double half = opts.seconds / 2.0;
  double untraced_p50 = 0.0;
  {
    const ServeRun run = measure(opts.seed, half, 1, nullptr);
    untraced_p50 = latency_quantile(run, 0.50);
    out.correct = correct(run);
  }
  auto sink = std::make_shared<spmm::telemetry::MemorySink>();
  const ServeRun run = measure(opts.seed, half, 1, sink);
  out.correct = out.correct && correct(run);
  out.attempted = run.attempted;
  out.failed = run.failed;
  fill_report(run);

  auto& m = out.metrics;
  const spmm::telemetry::TraceSummary setup = summarize(run.setup_events);
  const spmm::telemetry::TraceSummary timed = summarize(run.timed_events);
  m["gen.generate_s"] = phase_total_ms(setup, "gen.generate") / 1e3;
  add_convert_metrics(summarize(run.all_events), m);
  const std::string format(spmm::format_name(kFormat));
  m["formats." + format + ".bytes_per_nnz"] =
      run.keys.format_bytes / std::accumulate(run.keys.nnz.begin(), run.keys.nnz.end(), 0.0);
  m["kernels." + format + ".serial_gflops"] = gflops(run.served_flops, run.open_kernel.scaled_ns);
  m["core.verify_ms"] = phase_mean_ms(summarize(run.verify_events), tel::kSpanVerify);
  m["core.harness_ms"] = harness_self_ms(timed);
  m["serve.submit_us_p50"] = p(run.submit_us, 0.50);
  m["serve.engine_ms_p50"] = p(run.engine_ms, 0.50);
  m["serve.engine_ms_p95"] = p(run.engine_ms, 0.95);
  m["serve.batch_size_avg"] = run.open_tally.batch_size_avg();
  const double request_ms = phase_total_ms(timed, tel::kSpanRequest);
  m["serve.kernel_share"] =
      request_ms > 0.0 ? phase_total_ms(timed, tel::kSpanIteration) / request_ms : 0.0;
  m["serve.cache.hit_ratio"] = run.open_tally.hit_ratio();
  m["serve.send_lag_ms_p99"] = p(run.send_lag_ms, 0.99);
  m["host.speed"] = run.open_kernel.speed();
  m["proc.cpu_util"] = run.cpu_seconds / (run.open_seconds * static_cast<double>(nproc()));
  m["trace.overhead_pct"] = (latency_quantile(run, 0.50) / untraced_p50 - 1.0) * 100.0;
  return out;
}

}  // namespace perfbench
