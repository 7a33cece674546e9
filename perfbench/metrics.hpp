// The benchmark's own metric arithmetic: aggregation of samples into
// the reported figures, the open-loop latency definition, and the
// thread-budget guard. Pure functions, tested by metrics_test.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Geometric mean of strictly positive, finite values. A zero or
/// non-finite rate is a failed measurement; the caller counts it as a
/// failure instead of letting it drag the mean to 0.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument("geomean needs positive finite values");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Quantile q in [0,1] over `samples` plus `failures` operations that
/// count as +infinity (a failed or refused request misses every latency
/// limit). Linear interpolation between order statistics; the result is
/// +infinity as soon as the interpolation touches a failure.
inline double quantile_with_failures(std::vector<double> samples,
                                     std::size_t failures, double q) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile outside [0,1]");
  const std::size_t n = samples.size() + failures;
  if (n == 0) throw std::invalid_argument("quantile of no samples");
  // Infinite samples are failures too; keep only finite ones in order.
  samples.erase(std::remove_if(samples.begin(), samples.end(),
                               [](double v) { return !std::isfinite(v); }),
                samples.end());
  std::sort(samples.begin(), samples.end());
  const auto at = [&](std::size_t i) {
    return i < samples.size() ? samples[i] : kInf;
  };
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= n) return at(lo);
  const double a = at(lo);
  const double b = at(lo + 1);
  if (!std::isfinite(b)) return kInf;
  return a + frac * (b - a);
}

inline double median(const std::vector<double>& samples) {
  return quantile_with_failures(samples, 0, 0.5);
}

/// Steal share of each window from /proc/stat tick marks taken at the
/// window boundaries: window i runs from marks[i] to marks[i+1].
/// `marks` holds (steal ticks, total ticks) pairs.
inline std::vector<double> window_steal(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& marks) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    const auto steal = static_cast<double>(marks[i + 1].first - marks[i].first);
    const auto total = static_cast<double>(marks[i + 1].second - marks[i].second);
    out.push_back(total > 0.0 ? steal / total : 0.0);
  }
  return out;
}

/// A latency percentile that leaves out the host's worst moments.
/// `samples` are consecutive windows of requests (failures +infinity)
/// and `steal` the host's steal share over each window. The windows are
/// ranked by steal, ties by position, and the quieter half (rounded up)
/// is kept; the result is the median of their q-quantiles. Windows
/// below `min_samples` (a ragged tail) and windows without a steal
/// figure are left out; with none left, all samples form one window.
/// A stolen vCPU stalls every request in flight, so a window with high
/// steal measures the neighbours' load. The windows are chosen by an
/// outside measure, not by their latency, so the figure is not biased
/// toward the fast ones.
inline double quiet_quantile(const std::vector<std::vector<double>>& windows,
                             const std::vector<double>& steal,
                             std::size_t min_samples, double q) {
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < windows.size() && i < steal.size(); ++i) {
    if (!windows[i].empty() && windows[i].size() >= min_samples) usable.push_back(i);
  }
  if (usable.empty()) {
    std::vector<double> all;
    for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
    return quantile_with_failures(all, 0, q);
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  usable.resize((usable.size() + 1) / 2);
  std::vector<double> per_window;
  for (const std::size_t i : usable) {
    per_window.push_back(quantile_with_failures(windows[i], 0, q));
  }
  return median(per_window);
}

/// Events per second over saturated stretches: the median, over the
/// full windows of `window_ns` in every stretch (counted from the
/// stretch's first event), of each window's count. With no full window
/// anywhere, all events over all spans; 0 when no stretch has two
/// events. A host stall lowers the windows it hits but not the
/// median.
inline double windowed_rate(const std::vector<std::vector<std::int64_t>>& stretches,
                            std::int64_t window_ns) {
  if (window_ns <= 0) throw std::invalid_argument("window must be positive");
  std::vector<double> counts;
  double events = 0.0;
  double span_ns = 0.0;
  for (std::vector<std::int64_t> times : stretches) {
    if (times.size() < 2) continue;
    std::sort(times.begin(), times.end());
    const std::int64_t t0 = times.front();
    const std::int64_t span = times.back() - t0;
    events += static_cast<double>(times.size() - 1);
    span_ns += static_cast<double>(span);
    const auto full = static_cast<std::size_t>(span / window_ns);
    std::vector<double> stretch(full, 0.0);
    for (const std::int64_t t : times) {
      const auto w = static_cast<std::size_t>((t - t0) / window_ns);
      if (w < full) stretch[w] += 1.0;
    }
    counts.insert(counts.end(), stretch.begin(), stretch.end());
  }
  if (!counts.empty()) return median(counts) / (static_cast<double>(window_ns) / 1e9);
  return span_ns > 0.0 ? events / (span_ns / 1e9) : 0.0;
}

/// Event times of one stretch spaced as on a host running at `speed`
/// times the nominal one: each offset from the first event is scaled
/// by `speed` (below 1 on a slow host, so the stretch shrinks).
inline std::vector<std::int64_t> scale_stretch(std::vector<std::int64_t> times,
                                               double speed) {
  if (!(speed > 0.0)) throw std::invalid_argument("speed must be positive");
  if (times.empty()) return times;
  const std::int64_t t0 = *std::min_element(times.begin(), times.end());
  for (std::int64_t& t : times) {
    t = t0 + static_cast<std::int64_t>(std::llround(static_cast<double>(t - t0) * speed));
  }
  return times;
}

/// Open-loop latency of one request in milliseconds: from the time it
/// was due to be sent to its terminal outcome. `submit_ns` is when the
/// generator actually called submit (the engine stamps its enqueue
/// time on entry to submit) and `engine_ms` is the engine's
/// enqueue→terminal latency, so a generator that ran late still charges
/// its delay to the request.
inline double due_latency_ms(std::int64_t due_ns, std::int64_t submit_ns,
                             double engine_ms) {
  return static_cast<double>(submit_ns - due_ns) / 1e6 + engine_ms;
}

/// Threads a serving workload keeps busy: the worker pool (each running
/// kernels with `kernel_threads`), the dispatcher and the load
/// generator.
struct ThreadBudget {
  int workers = 0;
  int kernel_threads = 0;
  int dispatcher = 1;
  int generator = 1;

  [[nodiscard]] int total() const {
    return workers * kernel_threads + dispatcher + generator;
  }
};

/// Refuse a configuration that would put more runnable threads on the
/// host than it has CPUs: oversubscription turns kernel time into
/// scheduler time and makes latency figures bimodal.
inline void check_thread_budget(const ThreadBudget& budget, int nproc) {
  if (budget.workers < 1 || budget.kernel_threads < 1) {
    throw std::invalid_argument("thread budget needs at least one worker "
                                "and one kernel thread");
  }
  if (budget.total() > nproc) {
    throw std::runtime_error(
        "thread budget " + std::to_string(budget.total()) + " (" +
        std::to_string(budget.workers) + " workers x " +
        std::to_string(budget.kernel_threads) +
        " kernel threads + dispatcher + generator) exceeds nproc=" +
        std::to_string(nproc));
  }
}

/// The serving workloads' pool: serial kernels on one or two workers,
/// beside the dispatcher and the generator, with one CPU left idle where
/// the host has one to spare. A VM whose vCPUs are all busy is stopped
/// by its host for tens of milliseconds at a time, and those stops land
/// on request latency.
inline ThreadBudget serve_budget(int nproc) {
  ThreadBudget b;
  b.workers = std::clamp(nproc - 1 - b.dispatcher - b.generator, 1, 2);
  b.kernel_threads = 1;
  return b;
}

/// Threads of the grid's parallel cells: all CPUs but one, for the same
/// reason.
inline int grid_threads(int nproc) { return std::max(1, nproc - 1); }

}  // namespace perfbench
