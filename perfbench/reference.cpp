#include "reference.hpp"

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <random>

#include "common.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kRows = 512;
constexpr int kRowNnz = 8;
constexpr std::int32_t kBand = 64;
constexpr int kK = 16;
// Products per probe sample: untimed ones first, because the CPU was
// idle or ran program work since the last sample and the operands are
// no longer in its caches, then the timed ones (their median).
constexpr int kProbeWarm = 5;
constexpr int kProbeReps = 5;

// C = A * B for the n x n CSR matrix A and n x kK row-major B and C.
// The operands are restrict-qualified locals, so that the compiler
// vectorizes the kK-wide row update the same way on every call path.
// No AVX-512: on a CPU that has it, 512-bit code lowers the core's
// clock for milliseconds afterwards, and the probe threads would slow
// whatever the program runs next on that core. The program's kernels
// resolve to AVX2 here as well.
__attribute__((target("no-avx512f"))) void product(
    std::int32_t n, const std::int64_t* __restrict row_ptr, const std::int32_t* __restrict col,
    const double* __restrict val, const double* __restrict b, double* __restrict c) {
  for (std::int32_t i = 0; i < n; ++i) {
    double acc[kK] = {};
    for (std::int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double a = val[p];
      const double* row = b + static_cast<std::size_t>(col[p]) * kK;
      for (int j = 0; j < kK; ++j) acc[j] += a * row[j];
    }
    std::copy(acc, acc + kK, c + static_cast<std::size_t>(i) * kK);
  }
}

}  // namespace

Reference::Reference() : n_(kRows) {
  std::mt19937 rng(20240611u);
  std::uniform_int_distribution<std::int32_t> offset(-kBand, kBand);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  row_ptr_.push_back(0);
  for (std::int32_t i = 0; i < n_; ++i) {
    std::vector<std::int32_t> cols;
    while (cols.size() < kRowNnz) {
      const std::int32_t j = std::clamp(i + offset(rng), 0, n_ - 1);
      if (std::find(cols.begin(), cols.end(), j) == cols.end()) cols.push_back(j);
    }
    std::sort(cols.begin(), cols.end());
    for (const std::int32_t j : cols) {
      col_.push_back(j);
      val_.push_back(value(rng));
    }
    row_ptr_.push_back(static_cast<std::int64_t>(col_.size()));
  }
  b_.resize(static_cast<std::size_t>(n_) * kK);
  for (double& x : b_) x = value(rng);
  c_.resize(static_cast<std::size_t>(std::max(1, nproc())),
            std::vector<double>(static_cast<std::size_t>(n_) * kK));
}

double Reference::run_once(int threads) {
  threads = std::clamp(threads, 1, static_cast<int>(c_.size()));
  const std::int64_t t0 = now_ns();
  if (threads == 1) {
    product(n_, row_ptr_.data(), col_.data(), val_.data(), b_.data(), c_.front().data());
  } else {
#pragma omp parallel num_threads(threads)
    product(n_, row_ptr_.data(), col_.data(), val_.data(), b_.data(),
            c_[static_cast<std::size_t>(omp_get_thread_num())].data());
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double Reference::speed(int threads, int reps, int warm) {
  // Untimed products first: the work timed before (a grid cell, a
  // set-up) has evicted the reference's operands from L1 and L2.
  for (int w = 0; w < warm; ++w) run_once(threads);
  std::vector<double> seconds;
  for (int r = 0; r < std::max(1, reps); ++r) seconds.push_back(run_once(threads));
  return kNominalSeconds / median(seconds);
}

SpeedProbe::SpeedProbe(std::int64_t period_ns) : period_ns_(period_ns) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int max_cpu = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) max_cpu = cpu;
  }
  samples_.resize(static_cast<std::size_t>(max_cpu + 1));
  for (int cpu = 0; cpu <= max_cpu; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param idle{};
      if (sched_setaffinity(0, sizeof one, &one) != 0 ||
          sched_setscheduler(0, SCHED_IDLE, &idle) != 0) {
        return;  // no samples: speed() reports 0 for this CPU
      }
      Reference ref;
      auto& out = samples_[static_cast<std::size_t>(cpu)];
      while (!stop_.load(std::memory_order_relaxed)) {
        out.emplace_back(now_ns(), ref.speed(1, kProbeReps, kProbeWarm));
        std::this_thread::sleep_for(std::chrono::nanoseconds(period_ns_));
      }
    });
  }
}

SpeedProbe::~SpeedProbe() { stop(); }

void SpeedProbe::stop() {
  stop_.store(true);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

double SpeedProbe::speed(int cpu, std::int64_t t0_ns, std::int64_t t1_ns) const {
  if (cpu < 0 || static_cast<std::size_t>(cpu) >= samples_.size()) return 0.0;
  const auto& track = samples_[static_cast<std::size_t>(cpu)];
  if (track.empty()) return 0.0;
  const auto by_time = [](const std::pair<std::int64_t, double>& s, std::int64_t t) {
    return s.first < t;
  };
  const auto lo = std::lower_bound(track.begin(), track.end(), t0_ns - period_ns_, by_time);
  const auto hi = std::lower_bound(lo, track.end(), t1_ns + period_ns_ + 1, by_time);
  // Widen toward the nearer neighbour until kMinSamples are in range.
  auto first = lo;
  auto last = hi;
  while (static_cast<std::size_t>(last - first) < std::min(kMinSamples, track.size())) {
    if (first == track.begin()) {
      ++last;
    } else if (last == track.end() || t0_ns - std::prev(first)->first <= last->first - t1_ns) {
      --first;
    } else {
      ++last;
    }
  }
  std::vector<double> speeds;
  for (auto it = first; it != last; ++it) speeds.push_back(it->second);
  return median(speeds);
}

}  // namespace perfbench
