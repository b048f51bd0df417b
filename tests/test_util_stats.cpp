#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "trace/series.hpp"
#include "util/rng.hpp"

namespace du = deflate::util;

TEST(RunningStats, EmptyIsZero) {
  du::RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  du::RunningStats s;
  s.push(3.5);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  du::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  du::Rng rng(99);
  du::RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.push(x);
    (i % 2 == 0 ? a : b).push(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  du::RunningStats a, b;
  a.push(1.0);
  a.push(2.0);
  const double mean_before = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(Quantile, ThrowsOnEmpty) {
  EXPECT_THROW((void)du::quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
}

TEST(Quantile, MedianOfOddCount) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.5), 3.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(du::quantile(v, 0.75), 7.5);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(du::quantile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(du::quantile(v, 1.5), 3.0);
}

TEST(BoxStats, EmptyInput) {
  const auto b = du::BoxStats::from(std::vector<double>{});
  EXPECT_EQ(b.count, 0U);
  EXPECT_DOUBLE_EQ(b.median, 0.0);
}

TEST(BoxStats, OrderedQuartiles) {
  std::vector<double> v;
  for (int i = 100; i >= 0; --i) v.push_back(static_cast<double>(i));
  const auto b = du::BoxStats::from(v);
  EXPECT_DOUBLE_EQ(b.min, 0.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_EQ(b.count, 101U);
}

TEST(Summary, PercentilesOrdered) {
  du::Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.exponential(1.0));
  const auto s = du::Summary::from(v);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_NEAR(s.mean, 1.0, 0.1);
  EXPECT_NEAR(s.p50, std::log(2.0), 0.1);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(du::Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(du::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndClamping) {
  du::Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps into bin 0
  h.add(0.5);
  h.add(9.5);
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 4U);
  EXPECT_EQ(h.count_at(0), 2U);
  EXPECT_EQ(h.count_at(9), 2U);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, CdfMonotone) {
  du::Histogram h(0.0, 1.0, 20);
  du::Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.u01());
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double c = h.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(1.0), 1.0);
  EXPECT_NEAR(h.cdf(0.5), 0.5, 0.03);
}

// Property sweep: BoxStats quantiles must agree with direct quantile() on
// random data of many sizes.
class BoxStatsProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxStatsProperty, MatchesQuantiles) {
  du::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v;
  const int n = 1 + GetParam() * 7;
  for (int i = 0; i < n; ++i) v.push_back(rng.lognormal(0.0, 1.5));
  const auto b = du::BoxStats::from(v);
  EXPECT_DOUBLE_EQ(b.q1, du::quantile(v, 0.25));
  EXPECT_DOUBLE_EQ(b.median, du::quantile(v, 0.5));
  EXPECT_DOUBLE_EQ(b.q3, du::quantile(v, 0.75));
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoxStatsProperty, ::testing::Range(1, 25));

// --- selection quantile vs a sort-then-interpolate oracle --------------------

namespace {

/// The sort-based quantile the selection kernel replaces: copy, sort,
/// interpolate between the order statistics at floor(pos) and floor(pos)+1.
double sorted_quantile_oracle(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= values.size()) return values.back();
  return values[idx] * (1.0 - frac) + values[idx + 1] * frac;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(Quantile, SelectionIsBitEqualToSortOracle) {
  du::Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    // Every third trial draws from a handful of levels: heavy duplicates,
    // the shape of a quantized utilization series.
    const bool duplicates = trial % 3 == 0;
    const auto levels = rng.uniform_int(1, 6);
    std::vector<double> values(n);
    for (double& v : values) {
      v = duplicates ? 0.125 * static_cast<double>(rng.uniform_int(0, levels))
                     : rng.lognormal(0.0, 1.0);
    }
    for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0, rng.u01()}) {
      const double expected = sorted_quantile_oracle(values, q);
      ASSERT_EQ(bits(du::quantile(values, q)), bits(expected))
          << "n=" << n << " q=" << q << " trial=" << trial;
      std::vector<double> reordered = values;
      ASSERT_EQ(bits(du::quantile_in_place(reordered, q)), bits(expected));
    }
  }
}

TEST(Quantile, SeriesPercentileIsBitEqualToSortOracle) {
  namespace dt = deflate::trace;
  du::Rng rng(77);
  EXPECT_EQ(dt::UtilizationSeries{}.percentile(0.95), 0.0);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<float> samples(n);
    for (float& s : samples) {
      // Coarse levels on even trials (duplicates), continuous otherwise.
      s = trial % 2 == 0
              ? static_cast<float>(rng.uniform_int(0, 20)) / 20.0F
              : static_cast<float>(rng.u01());
    }
    const dt::UtilizationSeries series(samples);
    const std::vector<double> widened(samples.begin(), samples.end());
    for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0, rng.u01()}) {
      ASSERT_EQ(bits(series.percentile(q)),
                bits(sorted_quantile_oracle(widened, q)))
          << "n=" << n << " q=" << q;
    }
  }
}
