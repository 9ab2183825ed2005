// Fault model: bit manipulation, AVF profiles, masks, injection spaces,
// sampling statistics, XOR self-inverse property.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fault/avf.h"
#include "fault/bits.h"
#include "fault/mask.h"
#include "fault/space.h"
#include "nn/builders.h"
#include "util/rng.h"

namespace bdlfi::fault {
namespace {

TEST(Bits, FlipIsSelfInverse) {
  const float v = 3.14159f;
  for (int b = 0; b < kBitsPerWord; ++b) {
    EXPECT_EQ(flip_bit(flip_bit(v, b), b), v) << "bit " << b;
  }
}

TEST(Bits, SignBitNegates) {
  EXPECT_EQ(flip_bit(2.5f, kSignBit), -2.5f);
}

TEST(Bits, MantissaLsbIsTiny) {
  const float v = 1.0f;
  const float flipped = flip_bit(v, 0);
  EXPECT_NE(flipped, v);
  EXPECT_NEAR(flipped, v, 1e-6f);
}

TEST(Bits, HighExponentBitIsHuge) {
  const float v = 1.0f;
  const float flipped = flip_bit(v, kExponentHigh);
  // 1.0 has exponent 127 (0111'1111); flipping bit 30 → exponent 255 → inf/nan
  // territory, or at minimum an enormous magnitude change.
  EXPECT_TRUE(!std::isfinite(flipped) || std::abs(flipped) > 1e30f);
}

TEST(Bits, XorWordAppliesMultipleBits) {
  const std::uint32_t word = (1u << 3) | (1u << 20);
  const float v = 7.5f;
  EXPECT_EQ(xor_bits(v, word), flip_bit(flip_bit(v, 3), 20));
}

TEST(Bits, Classification) {
  EXPECT_TRUE(is_sign_bit(31));
  EXPECT_TRUE(is_exponent_bit(23));
  EXPECT_TRUE(is_exponent_bit(30));
  EXPECT_FALSE(is_exponent_bit(31));
  EXPECT_TRUE(is_mantissa_bit(0));
  EXPECT_TRUE(is_mantissa_bit(22));
  EXPECT_FALSE(is_mantissa_bit(23));
}

TEST(Avf, UniformAllBitsEqual) {
  const AvfProfile profile = AvfProfile::uniform();
  for (int b = 0; b < kBitsPerWord; ++b) {
    EXPECT_DOUBLE_EQ(profile.bit_prob(b, 1e-3), 1e-3);
  }
  EXPECT_NEAR(profile.expected_flips_per_word(1e-3), 32e-3, 1e-12);
}

TEST(Avf, MantissaOnlyProtectsExponent) {
  const AvfProfile profile = AvfProfile::mantissa_only();
  EXPECT_DOUBLE_EQ(profile.bit_prob(0, 0.1), 0.1);
  EXPECT_DOUBLE_EQ(profile.bit_prob(23, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(profile.bit_prob(31, 0.1), 0.0);
}

TEST(Avf, ExponentWeightedOrdering) {
  const AvfProfile profile = AvfProfile::exponent_weighted(4.0);
  EXPECT_GT(profile.bit_prob(25, 0.01), profile.bit_prob(5, 0.01));
}

TEST(Avf, ProbClampsToOne) {
  const AvfProfile profile = AvfProfile::uniform();
  EXPECT_DOUBLE_EQ(profile.bit_prob(0, 2.0), 1.0);
}

TEST(FaultMask, ToggleInsertErase) {
  FaultMask mask;
  EXPECT_TRUE(mask.toggle(100));
  EXPECT_TRUE(mask.contains(100));
  EXPECT_FALSE(mask.toggle(100));
  EXPECT_FALSE(mask.contains(100));
  mask.insert(5);
  mask.insert(5);
  EXPECT_EQ(mask.num_flips(), 1u);
  mask.erase(5);
  EXPECT_TRUE(mask.empty());
}

TEST(FaultMask, ConstructorDedupsAndSorts) {
  FaultMask mask({9, 3, 9, 1});
  EXPECT_EQ(mask.num_flips(), 3u);
  EXPECT_EQ(mask.bits(), (std::vector<std::int64_t>{1, 3, 9}));
}

TEST(FaultMask, SymmetricDifference) {
  FaultMask a({1, 2, 3});
  FaultMask b({3, 4});
  EXPECT_EQ(FaultMask::symmetric_difference(a, b),
            (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(FaultSite, FlatRoundTrip) {
  const FaultSite site{17, 23};
  EXPECT_EQ(FaultSite::from_flat(site.flat()), site);
}

class InjectionSpaceTest : public ::testing::Test {
 protected:
  InjectionSpaceTest() : rng_(1), net_(nn::make_mlp({2, 4, 3}, rng_)) {}
  util::Rng rng_;
  nn::Network net_;
};

TEST_F(InjectionSpaceTest, TotalsMatchParamCount) {
  InjectionSpace space(net_);
  EXPECT_EQ(space.total_elements(), net_.num_params());
  EXPECT_EQ(space.total_bits(), net_.num_params() * 32);
  EXPECT_EQ(space.code_elements(), 0);  // a float network has no int8 codes
}

TEST_F(InjectionSpaceTest, SingleLayerSpec) {
  InjectionSpace space(net_, TargetSpec::single_layer("fc1"));
  EXPECT_EQ(space.total_elements(), 2 * 4 + 4);
  for (const auto& e : space.entries()) {
    EXPECT_EQ(e.name.substr(0, 4), "fc1.");
  }
}

TEST_F(InjectionSpaceTest, WeightsOnlySpec) {
  InjectionSpace space(net_, TargetSpec::weights_only());
  EXPECT_EQ(space.total_elements(), 2 * 4 + 4 * 3);
}

TEST_F(InjectionSpaceTest, EmptySpecAborts) {
  EXPECT_DEATH(InjectionSpace(net_, TargetSpec::single_layer("nope")),
               "no fault targets");
}

TEST_F(InjectionSpaceTest, ElementPtrResolvesAcrossTensors) {
  InjectionSpace space(net_);
  // First element of the second tensor (fc1.bias) is at offset 8.
  const auto& entry = space.entry_of(8);
  EXPECT_EQ(entry.name, "fc1.bias");
  EXPECT_EQ(space.element_ptr(8), entry.value->data());
}

TEST_F(InjectionSpaceTest, ApplyIsSelfInverse) {
  InjectionSpace space(net_);
  util::Rng rng{2};
  const FaultMask mask = space.sample_mask(AvfProfile::uniform(), 0.01, rng);
  ASSERT_GT(mask.num_flips(), 0u);

  std::vector<float> before;
  for (const auto& e : space.entries()) {
    for (std::int64_t i = 0; i < e.value->numel(); ++i) {
      before.push_back((*e.value)[i]);
    }
  }
  space.apply(mask);
  bool changed = false;
  std::size_t k = 0;
  for (const auto& e : space.entries()) {
    for (std::int64_t i = 0; i < e.value->numel(); ++i, ++k) {
      if (float_to_bits((*e.value)[i]) != float_to_bits(before[k])) {
        changed = true;
      }
    }
  }
  EXPECT_TRUE(changed);
  space.apply(mask);
  k = 0;
  for (const auto& e : space.entries()) {
    for (std::int64_t i = 0; i < e.value->numel(); ++i, ++k) {
      EXPECT_EQ(float_to_bits((*e.value)[i]), float_to_bits(before[k]));
    }
  }
}

TEST_F(InjectionSpaceTest, SampleMaskRateMatchesP) {
  InjectionSpace space(net_);
  util::Rng rng{3};
  const double p = 0.02;
  std::size_t total_flips = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    total_flips +=
        space.sample_mask(AvfProfile::uniform(), p, rng).num_flips();
  }
  const double expected = p * static_cast<double>(space.total_bits());
  const double observed =
      static_cast<double>(total_flips) / static_cast<double>(trials);
  EXPECT_NEAR(observed, expected, 0.15 * expected);
}

TEST_F(InjectionSpaceTest, SampleMaskRespectsProfileZeros) {
  InjectionSpace space(net_);
  util::Rng rng{4};
  const FaultMask mask =
      space.sample_mask(AvfProfile::mantissa_only(), 0.3, rng);
  for (std::int64_t flat : mask.bits()) {
    EXPECT_TRUE(is_mantissa_bit(static_cast<int>(flat % 32)));
  }
}

TEST_F(InjectionSpaceTest, LogPriorOrdersMasksBySize) {
  InjectionSpace space(net_);
  const AvfProfile profile = AvfProfile::uniform();
  const double p = 1e-3;
  const FaultMask empty;
  const FaultMask one({0});
  const FaultMask two({0, 33});
  const double lp0 = space.log_prior(empty, profile, p);
  const double lp1 = space.log_prior(one, profile, p);
  const double lp2 = space.log_prior(two, profile, p);
  // At small p, each extra flip costs log(p/(1-p)) < 0.
  EXPECT_GT(lp0, lp1);
  EXPECT_GT(lp1, lp2);
  EXPECT_NEAR(lp1 - lp0, std::log(p) - std::log1p(-p), 1e-9);
}

TEST_F(InjectionSpaceTest, LogPriorToggleDeltaMatchesFullPrior) {
  InjectionSpace space(net_);
  const AvfProfile profile = AvfProfile::uniform();
  const double p = 5e-4;
  FaultMask mask({64, 131});
  const double before = space.log_prior(mask, profile, p);
  const double delta = space.log_prior_toggle_delta(999, profile, p);
  mask.toggle(999);
  EXPECT_NEAR(space.log_prior(mask, profile, p), before + delta, 1e-9);
}

TEST_F(InjectionSpaceTest, ZeroProbBitHasMinusInfPrior) {
  InjectionSpace space(net_);
  const AvfProfile profile = AvfProfile::mantissa_only();
  FaultMask mask({static_cast<std::int64_t>(31)});  // sign bit of element 0
  EXPECT_EQ(space.log_prior(mask, profile, 0.1),
            -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace bdlfi::fault
