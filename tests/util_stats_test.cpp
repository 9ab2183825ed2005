// Statistics: Welford moments, quantiles, histogram, MCMC diagnostics.
#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace bdlfi::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng{1};
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  s.add(0.0);  // invalidates cached sort
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(50.0);   // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
  EXPECT_NEAR(h.bin_center(9), 9.5, 1e-12);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.1);
  h.add(0.9);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Autocorrelation, IidIsNearZero) {
  Rng rng{2};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(autocorrelation(xs, 1), 0.0, 0.03);
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 0), 1.0);
}

TEST(Autocorrelation, Ar1IsPositive) {
  Rng rng{3};
  std::vector<double> xs{0.0};
  for (int i = 1; i < 20000; ++i) {
    xs.push_back(0.9 * xs.back() + rng.normal());
  }
  EXPECT_GT(autocorrelation(xs, 1), 0.8);
}

TEST(EffectiveSampleSize, IidNearN) {
  Rng rng{4};
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal());
  EXPECT_GT(effective_sample_size(xs), 3000.0);
}

TEST(EffectiveSampleSize, CorrelatedMuchSmaller) {
  Rng rng{5};
  std::vector<double> xs{0.0};
  for (int i = 1; i < 5000; ++i) xs.push_back(0.95 * xs.back() + rng.normal());
  EXPECT_LT(effective_sample_size(xs), 1000.0);
}

TEST(GelmanRubin, MixedChainsNearOne) {
  Rng rng{6};
  std::vector<std::vector<double>> chains(4);
  for (auto& c : chains) {
    for (int i = 0; i < 2000; ++i) c.push_back(rng.normal());
  }
  EXPECT_NEAR(gelman_rubin(chains), 1.0, 0.02);
}

TEST(GelmanRubin, SeparatedChainsLarge) {
  Rng rng{7};
  std::vector<std::vector<double>> chains(2);
  for (int i = 0; i < 500; ++i) {
    chains[0].push_back(rng.normal(0.0, 0.1));
    chains[1].push_back(rng.normal(10.0, 0.1));
  }
  EXPECT_GT(gelman_rubin(chains), 5.0);
}

TEST(GelmanRubin, ConstantIdenticalChainsIsOne) {
  std::vector<std::vector<double>> chains(3, std::vector<double>(10, 1.5));
  EXPECT_DOUBLE_EQ(gelman_rubin(chains), 1.0);
}

// The campaign runner pools chains it does not copy; the pointer form must
// give the same bits as the copying form, unequal chain lengths included.
TEST(GelmanRubin, ChainPointersMatchChainCopiesBitForBit) {
  Rng rng{8};
  std::vector<std::vector<double>> chains(3);
  for (std::size_t j = 0; j < chains.size(); ++j) {
    for (std::size_t i = 0; i < 300 + 7 * j; ++i) {
      chains[j].push_back(rng.normal(0.1 * static_cast<double>(j), 1.0));
    }
  }
  const std::vector<const std::vector<double>*> views{&chains[0], &chains[1],
                                                      &chains[2]};
  const double copied = gelman_rubin(chains), viewed = gelman_rubin(views);
  EXPECT_EQ(std::memcmp(&copied, &viewed, sizeof(double)), 0)
      << copied << " vs " << viewed;
}

TEST(Spearman, PerfectMonotoneIsOne) {
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{10, 20, 30, 40, 50};
  EXPECT_NEAR(spearman_correlation(a, b), 1.0, 1e-12);
  std::vector<double> c{5, 4, 3, 2, 1};
  EXPECT_NEAR(spearman_correlation(a, c), -1.0, 1e-12);
}

TEST(Spearman, MonotoneTransformInvariant) {
  Rng rng{10};
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform();
    a.push_back(x);
    b.push_back(std::exp(3.0 * x));  // monotone map of a
  }
  EXPECT_NEAR(spearman_correlation(a, b), 1.0, 1e-12);
}

TEST(Spearman, IndependentNearZero) {
  Rng rng{11};
  std::vector<double> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(rng.normal());
    b.push_back(rng.normal());
  }
  EXPECT_NEAR(spearman_correlation(a, b), 0.0, 0.05);
}

TEST(Spearman, HeavyTiesHandledByMidranks) {
  // 90% of `a` ties at zero; correlation with a positively-associated b must
  // stay positive (the naive min-rank formula goes spuriously negative).
  Rng rng{12};
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) {
    const bool active = i % 10 == 0;
    const double x = active ? rng.uniform() : 0.0;
    a.push_back(x);
    b.push_back(x + 0.01 * rng.uniform());
  }
  EXPECT_GT(spearman_correlation(a, b), 0.5);
}

TEST(Spearman, ConstantInputIsZero) {
  std::vector<double> a(10, 3.0);
  std::vector<double> b{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(spearman_correlation(a, b), 0.0);
}

TEST(GewekeZ, StationaryChainSmall) {
  Rng rng{8};
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal());
  EXPECT_LT(std::abs(geweke_z(xs)), 3.0);
}

TEST(GewekeZ, DriftingChainLarge) {
  Rng rng{9};
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(0.01 * i + rng.normal(0.0, 0.1));
  }
  EXPECT_GT(std::abs(geweke_z(xs)), 5.0);
}

}  // namespace
}  // namespace bdlfi::util
