// Tests of the benchmark's own metric arithmetic (metrics.hpp). Build
// and run with `python3 perfbench/run.py --self-test`.
#include "metrics.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Geomean, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Geomean, RejectsFailedRates) {
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, kInf}), std::invalid_argument);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_with_failures(v, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_with_failures(v, 0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_with_failures(v, 0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_with_failures(v, 0, 0.625), 3.5);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 10.0}), 2.5);
}

TEST(Quantile, FailuresCountAsInfinity) {
  // 19 successes of 1 ms plus one failure: the failure is the slowest
  // of 20, so p95 (position 18.05) already touches it.
  const std::vector<double> ok(19, 1.0);
  EXPECT_DOUBLE_EQ(quantile_with_failures(ok, 1, 0.50), 1.0);
  EXPECT_EQ(quantile_with_failures(ok, 1, 0.95), kInf);
  EXPECT_DOUBLE_EQ(quantile_with_failures(ok, 0, 0.95), 1.0);
  // Failures shift the median even though they carry no latency.
  EXPECT_DOUBLE_EQ(quantile_with_failures({1.0, 2.0}, 1, 0.5), 2.0);
  EXPECT_EQ(quantile_with_failures({1.0}, 2, 0.5), kInf);
  EXPECT_EQ(quantile_with_failures({}, 3, 0.0), kInf);
}

TEST(Quantile, InfiniteSamplesAreFailures) {
  EXPECT_DOUBLE_EQ(quantile_with_failures({kInf, 1.0, 3.0}, 0, 0.0), 1.0);
  EXPECT_EQ(quantile_with_failures({kInf, 1.0, 3.0}, 0, 1.0), kInf);
  EXPECT_EQ(quantile_with_failures({kInf, kInf}, 0, 0.5), kInf);
}

TEST(QuietQuantile, KeepsTheQuieterHalfBySteal) {
  // Four windows of 100 requests; the two with steal stalled.
  const std::vector<double> calm(100, 1.0);
  const std::vector<double> stalled(100, 50.0);
  const std::vector<std::vector<double>> windows{calm, stalled, calm, stalled};
  EXPECT_DOUBLE_EQ(quiet_quantile(windows, {0.0, 0.04, 0.0, 0.03}, 10, 0.95), 1.0);
  // Chosen by steal, not by latency: had the calm windows been the
  // stolen ones, the stalled ones would count.
  EXPECT_DOUBLE_EQ(quiet_quantile(windows, {0.04, 0.0, 0.03, 0.0}, 10, 0.95), 50.0);
  // Ties keep the earlier windows; an odd count rounds up.
  EXPECT_DOUBLE_EQ(quiet_quantile({calm, stalled, stalled}, {0.0, 0.0, 0.0}, 10, 0.5),
                   25.5);
}

TEST(QuietQuantile, CountsFailuresAndSkipsRaggedWindows) {
  std::vector<double> failed(10, kInf);
  const std::vector<double> ok(10, 1.0);
  // Both windows are kept: the median of (1, +inf) is +inf.
  EXPECT_EQ(quiet_quantile({ok, failed, ok, failed}, {0, 0, 0.1, 0.1}, 5, 0.5), kInf);
  // A trailing window below min_samples is left out.
  EXPECT_DOUBLE_EQ(quiet_quantile({ok, {kInf}}, {0.0, 0.0}, 5, 0.95), 1.0);
  // No usable window: all samples are one window.
  EXPECT_DOUBLE_EQ(quiet_quantile({{2.0}, {4.0}}, {0.0, 0.0}, 5, 0.5), 3.0);
}

TEST(WindowSteal, SharesBetweenMarks) {
  const std::vector<double> steal = window_steal({{10, 1000}, {12, 1100}, {12, 1300}});
  ASSERT_EQ(steal.size(), 2u);
  EXPECT_DOUBLE_EQ(steal[0], 0.02);
  EXPECT_DOUBLE_EQ(steal[1], 0.0);
  EXPECT_TRUE(window_steal({{1, 1}}).empty());
}

TEST(ScaleStretch, ScalesOffsetsFromTheFirstEvent) {
  // A host at half the nominal speed took twice as long: the stretch
  // halves, in place, from its first event.
  EXPECT_EQ(scale_stretch({300, 100, 500}, 0.5),
            (std::vector<std::int64_t>{200, 100, 300}));
  EXPECT_EQ(scale_stretch({7, 9}, 1.0), (std::vector<std::int64_t>{7, 9}));
  EXPECT_TRUE(scale_stretch({}, 2.0).empty());
  EXPECT_THROW(scale_stretch({1}, 0.0), std::invalid_argument);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile_with_failures({}, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_with_failures({1.0}, 0, 1.5), std::invalid_argument);
}

TEST(DueLatency, ChargesGeneratorLagToTheRequest) {
  // Sent on time: latency is the engine's.
  EXPECT_DOUBLE_EQ(due_latency_ms(1'000'000, 1'000'000, 0.25), 0.25);
  // Sent 2 ms late (a stalled generator or a full ring): the 2 ms count.
  EXPECT_DOUBLE_EQ(due_latency_ms(1'000'000, 3'000'000, 0.25), 2.25);
}

TEST(ThreadBudget, CountsWorkersDispatcherAndGenerator) {
  ThreadBudget b;
  b.workers = 2;
  b.kernel_threads = 1;
  EXPECT_EQ(b.total(), 4);
  EXPECT_NO_THROW(check_thread_budget(b, 4));
  EXPECT_THROW(check_thread_budget(b, 3), std::runtime_error);
  b.kernel_threads = 4;
  EXPECT_EQ(b.total(), 10);
  EXPECT_THROW(check_thread_budget(b, 4), std::runtime_error);
}

TEST(ThreadBudget, ServeBudgetFitsTheHost) {
  for (int nproc = 3; nproc <= 64; ++nproc) {
    const ThreadBudget b = serve_budget(nproc);
    EXPECT_NO_THROW(check_thread_budget(b, nproc)) << nproc;
    EXPECT_LE(b.workers, 2);
  }
  // One CPU stays idle: 1 worker + dispatcher + generator on 4 CPUs.
  EXPECT_EQ(serve_budget(4).workers, 1);
  EXPECT_EQ(serve_budget(4).total(), 3);
  EXPECT_EQ(serve_budget(5).workers, 2);
  EXPECT_EQ(serve_budget(64).workers, 2);
  // Two CPUs leave no room for a worker beside dispatcher and generator.
  EXPECT_THROW(check_thread_budget(serve_budget(2), 2), std::runtime_error);
}

TEST(ThreadBudget, GridLeavesOneCpuIdle) {
  EXPECT_EQ(grid_threads(1), 1);
  EXPECT_EQ(grid_threads(4), 3);
}

TEST(WindowedRate, MedianWindowIgnoresAStall) {
  // 10 events per 10 ms window, but none in one window of the first
  // stretch; the second stretch starts later and adds two full windows.
  std::vector<std::int64_t> a;
  for (int w = 0; w < 4; ++w) {
    if (w == 2) continue;
    for (int i = 0; i < 10; ++i) a.push_back(w * 10'000'000 + i * 1'000'000);
  }
  std::vector<std::int64_t> b;
  for (int i = 0; i < 25; ++i) b.push_back(5'000'000'000 + i * 1'000'000);
  // Full windows: [10, 10, 0] from a, [10, 10] from b; median 10.
  EXPECT_NEAR(windowed_rate({a, b}, 10'000'000), 1000.0, 1e-9);
}

TEST(WindowedRate, ShortStretchesFallBackToTheSpan) {
  // No full window: 2 + 1 intervals over 2 ms + 1 ms.
  EXPECT_NEAR(windowed_rate({{0, 1'000'000, 2'000'000}, {7, 1'000'007}}, 10'000'000),
              1000.0, 1e-9);
  // No stretch with two events: 0, so a failed run still reports.
  EXPECT_EQ(windowed_rate({{5}, {}}, 10), 0.0);
  EXPECT_THROW(windowed_rate({}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
