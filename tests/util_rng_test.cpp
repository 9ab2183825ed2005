// RNG: determinism, distribution sanity, stream independence.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace bdlfi::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a{7};
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{5};
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{17};
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng{19};
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng{23};
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches) {
  // E[failures before success] = (1-p)/p.
  Rng rng{29};
  const double p = 0.05;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.3);
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng rng{31};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, SplitStreamsDecorrelated) {
  Rng parent{37};
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StateRoundtripMidStream) {
  Rng a{101};
  for (int i = 0; i < 1000; ++i) a();  // arbitrary mid-stream position
  const auto words = a.state_save();
  ASSERT_EQ(words.size(), Rng::kStateWords);
  Rng b{0};
  ASSERT_TRUE(b.state_load(words));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StateRoundtripPreservesCachedNormal) {
  // normal() caches the second Box-Muller variate; a save between the pair
  // must carry it so the restored stream emits the identical sequence.
  Rng a{103};
  a.normal();  // leaves one cached variate
  Rng b{0};
  ASSERT_TRUE(b.state_load(a.state_save()));
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.normal(), b.normal());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StateRoundtripMixedDraws) {
  Rng a{107};
  for (int i = 0; i < 50; ++i) {
    a.uniform();
    a.normal();
    a.below(17);
    a.bernoulli(0.3);
  }
  Rng b{0};
  ASSERT_TRUE(b.state_load(a.state_save()));
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    EXPECT_EQ(a.below(23), b.below(23));
    EXPECT_EQ(a.geometric(0.05), b.geometric(0.05));
  }
}

TEST(Rng, StateStringRoundtrip) {
  Rng a{109};
  a.normal();
  for (int i = 0; i < 77; ++i) a();
  const std::string text = a.state_to_string();
  Rng b{0};
  ASSERT_TRUE(b.state_from_string(text));
  EXPECT_EQ(a.state_save(), b.state_save());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StateLoadRejectsWrongSize) {
  Rng rng{1};
  EXPECT_FALSE(rng.state_load({}));
  EXPECT_FALSE(rng.state_load({1, 2, 3}));
  EXPECT_FALSE(rng.state_load({1, 2, 3, 4, 5, 6, 7}));
  // The cached-normal validity flag must be 0 or 1.
  EXPECT_FALSE(rng.state_load({1, 2, 3, 4, 5, 2}));
}

TEST(Rng, StateFromStringRejectsMalformed) {
  Rng rng{1};
  EXPECT_FALSE(rng.state_from_string(""));
  EXPECT_FALSE(rng.state_from_string("deadbeef"));  // too few words
  EXPECT_FALSE(rng.state_from_string("xyz"));
  const std::string good = Rng{5}.state_to_string();
  EXPECT_FALSE(rng.state_from_string(good + ":"));  // trailing separator
  EXPECT_FALSE(rng.state_from_string(good + ":0000000000000000"));
  std::string upper = good;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  if (upper != good) {
    EXPECT_FALSE(rng.state_from_string(upper));
  }
  // A failed parse must leave the engine usable (state unchanged).
  Rng a{11}, b{11};
  EXPECT_FALSE(a.state_from_string("not-a-state"));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitmixIsConstexprFriendly) {
  std::uint64_t s = 1;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  EXPECT_EQ(s, 1 + 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL);
}

}  // namespace
}  // namespace bdlfi::util
