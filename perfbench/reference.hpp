// The host-speed reference: a fixed sparse-dense product written in the
// benchmark itself, not in the program, timed beside the program's work.
//
// On a shared VM the speed the host gives a vCPU flips between a fast
// and a slow state, often within a second, and the share of time in
// each varies from run to run: on the development VM (4-vCPU Xeon,
// Sapphire Rapids) grid cells ran 1.5-1.8x faster in the fast state.
// A run's raw figures carry that share whole. The driver therefore
// times this product just before and just after each measured piece of
// work and scales the piece to a nominal host, one on which the product
// takes kNominalSeconds. Over 0.4-s windows the reference's speed
// followed the grid cells' rates with correlation 0.88, and scaling by
// it halved their log spread. The program never runs the reference, so
// a change to the program still moves the scaled figures.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Reference {
 public:
  /// Seconds one product takes on the nominal host: about its time in
  /// the development VM's slow state. A fixed constant, so that two
  /// commits are scaled alike.
  static constexpr double kNominalSeconds = 10e-6;

  /// Builds the fixed matrix and operands. They depend on no seed: the
  /// reference is the same on every run.
  Reference();

  /// Host speed for work on `threads` threads: kNominalSeconds over the
  /// median of `reps` timed products, after `warm` untimed ones. With t
  /// threads each thread runs the whole product into its own output, so
  /// the slowest vCPU, and the team's fork and join, set the time, as
  /// they do for a statically scheduled parallel kernel. (Amortizing the
  /// fork over several products tracked the omp cells no better.)
  double speed(int threads, int reps, int warm = 1);

 private:
  double run_once(int threads);

  // CSR of a banded n x n matrix, 8 nonzeros per row; B and each C are
  // n x k, row-major. CSR + B + C is 180 KiB, so one product takes about
  // 10 us and the median of a dozen can bracket every grid cell. Of the
  // sizes tried (up to 2.8 MiB, past L2) this tracked the cells best.
  std::int32_t n_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_;
  std::vector<double> val_;
  std::vector<double> b_;
  std::vector<std::vector<double>> c_;  // one per thread
};

/// Times pieces of work done on the calling thread, each between two
/// timings of the reference (the one after a piece is the one before
/// the next), and sums their seconds scaled to the nominal host.
class ScaledTimer {
 public:
  ScaledTimer(Reference& ref, int reps) : ref_(ref), reps_(reps) {}

  template <typename Work>
  void time(Work&& work) {
    if (!(speed_ > 0.0)) speed_ = ref_.speed(1, reps_);
    const std::int64_t t0 = now_ns();
    work();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const double after = ref_.speed(1, reps_);
    raw_s_ += secs;
    scaled_s_ += secs * 0.5 * (speed_ + after);
    speed_ = after;
  }
  [[nodiscard]] double raw_seconds() const { return raw_s_; }
  [[nodiscard]] double scaled_seconds() const { return scaled_s_; }

 private:
  Reference& ref_;
  int reps_;
  double speed_ = 0.0;
  double raw_s_ = 0.0;
  double scaled_s_ = 0.0;
};

/// Per-CPU host speed over time, sampled in the background, for work
/// the driver cannot bracket because the program's own threads run it
/// (the serving engine's workers). The vCPUs of a shared VM flip
/// between their fast and slow states independently of each other, so
/// the speed must come from the CPU that ran the work. One thread per
/// CPU, pinned to it at SCHED_IDLE priority, times a few reference
/// products every `period_ns`: it runs only when the CPU has nothing
/// else to run and gives way as soon as a program thread wakes. A CPU
/// kept busy by the program gets no samples until it idles again.
class SpeedProbe {
 public:
  static constexpr std::size_t kMinSamples = 5;

  explicit SpeedProbe(std::int64_t period_ns);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Stops the sampling threads and waits for them. speed() reads the
  /// samples only after this.
  void stop();

  /// Median speed of `cpu` over its samples from `t0_ns - period` to
  /// `t1_ns + period`, widened to the nearest kMinSamples when there are
  /// fewer (the CPU was busy with the program); 0 when the CPU has no
  /// sample at all.
  [[nodiscard]] double speed(int cpu, std::int64_t t0_ns, std::int64_t t1_ns) const;

 private:
  std::int64_t period_ns_;
  /// (time, speed) samples per CPU id, in time order.
  std::vector<std::vector<std::pair<std::int64_t, double>>> samples_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

}  // namespace perfbench
