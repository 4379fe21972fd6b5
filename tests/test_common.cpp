// Unit tests for crowdmap::common — RNG, stats, expected, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/expected.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace cc = crowdmap::common;

// ------------------------------------------------------------------ Rng ---

TEST(Rng, DeterministicForSameSeed) {
  cc::Rng a(42);
  cc::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  cc::Rng a(1);
  cc::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  cc::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  cc::Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NormalMomentsApproximate) {
  cc::Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(cc::mean(samples), 2.0, 0.1);
  EXPECT_NEAR(cc::stddev(samples), 3.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  cc::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  cc::Rng a(99);
  cc::Rng child = a.fork();
  // The child stream should not replay the parent's output.
  cc::Rng b(99);
  (void)b.next_u64();  // advance like the fork did
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (child.next_u64() == b.next_u64());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamIsStableAndTagDependent) {
  const cc::Rng base(123);
  cc::Rng s1 = base.stream(7);
  cc::Rng s1_again = base.stream(7);
  cc::Rng s2 = base.stream(8);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(base.stream(7).next_u64(), s2.next_u64());
}

TEST(Hashing, HashToUnitRange) {
  std::uint64_t state = 5;
  for (int i = 0; i < 1000; ++i) {
    const double u = cc::hash_to_unit(cc::splitmix64(state));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Hashing, CombineOrderSensitive) {
  EXPECT_NE(cc::hash_combine(1, 2), cc::hash_combine(2, 1));
}

// ------------------------------------------------------------- mathutil ---

TEST(MathUtil, WrapAngleRange) {
  for (double a = -20.0; a < 20.0; a += 0.37) {
    const double w = cc::wrap_angle(a);
    EXPECT_GT(w, -cc::kPi - 1e-12);
    EXPECT_LE(w, cc::kPi + 1e-12);
    EXPECT_NEAR(std::sin(w), std::sin(a), 1e-9);
    EXPECT_NEAR(std::cos(w), std::cos(a), 1e-9);
  }
}

TEST(MathUtil, AngleDiffShortestPath) {
  EXPECT_NEAR(cc::angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(cc::angle_diff(-3.1, 3.1), 2 * cc::kPi - 6.2, 1e-9);
}

TEST(MathUtil, Deg2RadRoundTrip) {
  EXPECT_NEAR(cc::rad2deg(cc::deg2rad(54.4)), 54.4, 1e-12);
}

TEST(MathUtil, RelativeError) {
  EXPECT_NEAR(cc::relative_error(11.0, 10.0), 0.1, 1e-12);
  EXPECT_NEAR(cc::relative_error(9.0, 10.0), 0.1, 1e-12);
  EXPECT_NEAR(cc::relative_error(3.0, 0.0), 3.0, 1e-12);
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, MeanStddevBasics) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_NEAR(cc::mean(v), 3.0, 1e-12);
  EXPECT_NEAR(cc::stddev(v), std::sqrt(2.5), 1e-12);
  EXPECT_EQ(cc::mean({}), 0.0);
  EXPECT_EQ(cc::stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> v = {10, 20, 30, 40};
  EXPECT_NEAR(cc::percentile(v, 0), 10, 1e-12);
  EXPECT_NEAR(cc::percentile(v, 100), 40, 1e-12);
  EXPECT_NEAR(cc::percentile(v, 50), 25, 1e-12);
}

TEST(Stats, SummaryFields) {
  const std::vector<double> v = {5, 1, 3, 2, 4};
  const auto s = cc::summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_NEAR(s.min, 1, 1e-12);
  EXPECT_NEAR(s.max, 5, 1e-12);
  EXPECT_NEAR(s.median, 3, 1e-12);
}

TEST(EmpiricalCdf, MonotoneAndBounded) {
  cc::EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(cdf.at(0.5), 0.0);
  EXPECT_NEAR(cdf.at(1.0), 0.25, 1e-12);
  EXPECT_NEAR(cdf.at(2.0), 0.75, 1e-12);
  EXPECT_NEAR(cdf.at(10.0), 1.0, 1e-12);
  double prev = -1;
  for (double x = 0; x < 4; x += 0.1) {
    EXPECT_GE(cdf.at(x), prev);
    prev = cdf.at(x);
  }
}

TEST(EmpiricalCdf, QuantileInverse) {
  cc::EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(cdf.quantile(0.25), 1.0, 1e-12);
  EXPECT_NEAR(cdf.quantile(1.0), 4.0, 1e-12);
  EXPECT_THROW((void)cc::EmpiricalCdf({}).quantile(0.5), std::logic_error);
}

TEST(EmpiricalCdf, TableHasRows) {
  cc::EmpiricalCdf cdf({1.0, 2.0, 3.0});
  const std::string table = cdf.to_table(5);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
}

TEST(Histogram, BinningAndRange) {
  cc::Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);   // ignored
  h.add(10.0);   // ignored (half-open)
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
  EXPECT_THROW(cc::Histogram(1.0, 1.0, 4), std::invalid_argument);
}

// ------------------------------------------------------------- expected ---

TEST(Expected, ValueSide) {
  cc::Expected<int> e(5);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value(), 5);
  EXPECT_EQ(e.value_or(9), 5);
  EXPECT_THROW((void)e.error(), std::logic_error);
}

TEST(Expected, ErrorSide) {
  cc::Expected<int> e(cc::make_error("nope", "something failed"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, "nope");
  EXPECT_EQ(e.value_or(9), 9);
  EXPECT_THROW((void)e.value(), std::logic_error);
}

// ----------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, ExecutesSubmittedTasks) {
  cc::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 2);
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  cc::ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, AtLeastOneWorker) {
  cc::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ResolveThreadCountMapsZeroToEveryCore) {
  EXPECT_EQ(cc::resolve_thread_count(1), 1u);
  EXPECT_EQ(cc::resolve_thread_count(3), 3u);
  EXPECT_EQ(cc::resolve_thread_count(0),
            std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
}

TEST(Stopwatch, MeasuresElapsedTime) {
  cc::Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.elapsed_ms(), 15.0);
  sw.restart();
  EXPECT_LT(sw.elapsed_ms(), 15.0);
}

// ------------------------------------------------------------------ log ---

#include "common/log.hpp"

TEST(Log, LevelRoundTrip) {
  const auto prev = cc::log_level();
  cc::set_log_level(cc::LogLevel::kError);
  EXPECT_EQ(cc::log_level(), cc::LogLevel::kError);
  cc::set_log_level(prev);
}

TEST(Log, StreamBelowThresholdIsSilentAndSafe) {
  const auto prev = cc::log_level();
  cc::set_log_level(cc::LogLevel::kOff);
  CROWDMAP_LOG(kDebug, "test") << "never shown " << 42;
  CROWDMAP_LOG(kError, "test") << "also filtered at kOff";
  cc::set_log_level(prev);
  SUCCEED();
}
