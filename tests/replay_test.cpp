// Truncated forward replay: the golden activation cache must be an *exact*
// shortcut. For every target kind (weights, biases, inputs, activations,
// buffers) and both subject architectures (MLP, ResNet-18), the truncated
// evaluation path must produce bit-identical logits and identical outcomes to
// a cache-less full forward — including the over-budget fallback and
// partial-prefix cases.
#include <gtest/gtest.h>

#include <cstring>

#include "bayes/fault_network.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "nn/builders.h"
#include "util/rng.h"

namespace bdlfi::bayes {
namespace {

using tensor::Tensor;

// Bitwise tensor equality — NaN-safe (NaN == NaN holds at the bit level,
// which is exactly the "detected" outcome the taxonomy relies on).
::testing::AssertionResult bits_equal(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "logit bits differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_outcomes_equal(const MaskOutcome& a, const MaskOutcome& b) {
  EXPECT_DOUBLE_EQ(a.classification_error, b.classification_error);
  EXPECT_DOUBLE_EQ(a.deviation, b.deviation);
  EXPECT_DOUBLE_EQ(a.detected, b.detected);
  EXPECT_DOUBLE_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.flipped_bits, b.flipped_bits);
}

struct Subject {
  nn::Network net;
  Tensor inputs;
  std::vector<std::int64_t> labels;
};

Subject make_mlp_subject() {
  util::Rng data_rng{101};
  data::Dataset data = data::make_two_moons(48, 0.08, data_rng);
  util::Rng init{102};
  return {nn::make_mlp({2, 8, 8, 2}, init), data.inputs, data.labels};
}

Subject make_resnet_subject() {
  data::CifarLikeConfig config;
  config.samples_per_class = 2;
  config.num_classes = 4;
  config.image_size = 8;
  util::Rng data_rng{103};
  data::Dataset data = data::make_cifar_like(config, data_rng);
  nn::ResNetConfig net_config;
  net_config.width_multiplier = 0.0625;
  net_config.num_classes = 4;
  util::Rng init{104};
  return {nn::make_resnet18(net_config, init), data.inputs, data.labels};
}

std::vector<std::pair<std::string, TargetSpec>> target_specs() {
  TargetSpec biases;
  biases.roles = {nn::ParamRole::kBias};
  TargetSpec buffers = TargetSpec::all_parameters();
  buffers.include_buffers = true;
  TargetSpec everything = TargetSpec::all_parameters();
  everything.include_buffers = true;
  everything.include_input = true;
  everything.include_activations = true;
  return {{"weights", TargetSpec::weights_only()},
          {"biases", biases},
          {"inputs", TargetSpec::input_only()},
          {"activations", TargetSpec::activations_only()},
          {"params+buffers", buffers},
          {"everything", everything}};
}

void check_parity(const Subject& subject, double p, std::uint64_t seed,
                  EvalCacheConfig truncated_config = {}) {
  for (const auto& [label, spec] : target_specs()) {
    SCOPED_TRACE(label);
    EvalCacheConfig full_config;
    full_config.enable_truncated_replay = false;
    BayesianFaultNetwork truncated(subject.net, spec,
                                   fault::AvfProfile::uniform(),
                                   subject.inputs, subject.labels,
                                   truncated_config);
    BayesianFaultNetwork full(subject.net, spec, fault::AvfProfile::uniform(),
                              subject.inputs, subject.labels, full_config);
    ASSERT_EQ(truncated.space().total_bits(), full.space().total_bits());
    EXPECT_EQ(full.cached_layers(), 0u);

    util::Rng rng{seed};
    for (int trial = 0; trial < 5; ++trial) {
      const FaultMask mask = truncated.sample_prior_mask(p, rng);
      EXPECT_TRUE(bits_equal(truncated.logits_under_mask(mask),
                             full.logits_under_mask(mask)));
      expect_outcomes_equal(truncated.evaluate_mask(mask),
                            full.evaluate_mask(mask));
      EXPECT_EQ(truncated.deviation_under_mask(mask),
                full.deviation_under_mask(mask));
    }
    // Every cache-less evaluation ran the whole network.
    const EvalStats& fs = full.eval_stats();
    EXPECT_EQ(fs.truncated_evals, 0u);
    EXPECT_EQ(fs.layers_run, fs.layers_total);
  }
}

TEST(ReplayParityTest, MlpAllTargetKindsBitExact) {
  check_parity(make_mlp_subject(), 0.005, 7);
}

TEST(ReplayParityTest, ResnetAllTargetKindsBitExact) {
  check_parity(make_resnet_subject(), 2e-4, 8);
}

TEST(ReplayParityTest, OverBudgetFallbackIsExact) {
  // A budget too small for even the first activation disables the cache; the
  // full-forward fallback must behave identically.
  EvalCacheConfig tiny;
  tiny.memory_budget_bytes = 8;
  check_parity(make_mlp_subject(), 0.005, 9, tiny);
}

TEST(ReplayParityTest, PartialPrefixBudgetIsExact) {
  // Budget for roughly half the MLP's activations: replay starts from the
  // deepest cached layer below the first affected one.
  Subject subject = make_mlp_subject();
  EvalCacheConfig partial;
  partial.memory_budget_bytes =
      static_cast<std::size_t>(subject.inputs.shape()[0]) * 8 * sizeof(float) *
      2;
  check_parity(subject, 0.005, 10, partial);

  BayesianFaultNetwork bfn(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels, partial);
  EXPECT_GT(bfn.cached_layers(), 0u);
  EXPECT_LT(bfn.cached_layers(), subject.net.num_layers());
}

TEST(ReplayParityTest, EmptyMaskUsesCachedLogits) {
  Subject subject = make_mlp_subject();
  BayesianFaultNetwork bfn(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  ASSERT_EQ(bfn.cached_layers(), subject.net.num_layers());
  const MaskOutcome outcome = bfn.evaluate_mask(FaultMask{});
  EXPECT_DOUBLE_EQ(outcome.classification_error, bfn.golden_error());
  EXPECT_DOUBLE_EQ(outcome.deviation, 0.0);
  const EvalStats& stats = bfn.eval_stats();
  EXPECT_EQ(stats.truncated_evals, 1u);
  EXPECT_EQ(stats.full_evals, 0u);
  EXPECT_EQ(stats.layers_run, 0u);  // nothing re-ran: cached logits stand
  EXPECT_EQ(stats.layers_total, subject.net.num_layers());
}

TEST(ReplayParityTest, LateLayerTargetSkipsPrefix) {
  Subject subject = make_mlp_subject();
  const std::size_t depth = subject.net.num_layers();
  const std::string last = subject.net.layer_name(depth - 1);
  BayesianFaultNetwork bfn(subject.net, TargetSpec::single_layer(last),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  util::Rng rng{11};
  const FaultMask mask = bfn.sample_prior_mask(0.01, rng);
  ASSERT_GT(mask.num_flips(), 0u);
  EXPECT_EQ(bfn.space().first_replay_layer(mask),
            static_cast<std::int64_t>(depth - 1));
  bfn.evaluate_mask(mask);
  const EvalStats& stats = bfn.eval_stats();
  EXPECT_EQ(stats.truncated_evals, 1u);
  EXPECT_EQ(stats.layers_run, 1u);  // only the final dense layer re-ran
  EXPECT_EQ(stats.layers_total, depth);
}

TEST(ReplayParityTest, FirstReplayLayerPerSiteKind) {
  Subject subject = make_mlp_subject();
  TargetSpec spec = TargetSpec::all_parameters();
  spec.include_input = true;
  spec.include_activations = true;
  BayesianFaultNetwork bfn(subject.net, spec, fault::AvfProfile::uniform(),
                           subject.inputs, subject.labels);
  const auto& space = bfn.space();
  const auto depth = static_cast<std::int64_t>(subject.net.num_layers());
  EXPECT_EQ(space.first_replay_layer(FaultMask{}), depth);
  for (const auto& entry : space.entries()) {
    FaultMask mask({entry.offset * 32});  // bit 0 of the entry's first element
    std::int64_t expected = 0;
    switch (entry.site) {
      case InjectionSpace::SiteKind::kParam:
      case InjectionSpace::SiteKind::kCode:
      case InjectionSpace::SiteKind::kCompute:
        expected = entry.layer;
        break;
      case InjectionSpace::SiteKind::kInput:
        expected = 0;
        break;
      case InjectionSpace::SiteKind::kActivation:
        expected = entry.layer + 1;
        break;
    }
    EXPECT_EQ(space.first_replay_layer(mask), expected) << entry.name;
  }
}

TEST(ReplayParityTest, ReplicaSharesCacheAndStaysExact) {
  Subject subject = make_mlp_subject();
  BayesianFaultNetwork bfn(subject.net, TargetSpec::all_parameters(),
                           fault::AvfProfile::uniform(), subject.inputs,
                           subject.labels);
  auto replica = bfn.replicate();
  EXPECT_EQ(replica->cached_layers(), bfn.cached_layers());
  EXPECT_EQ(replica->golden_predictions(), bfn.golden_predictions());
  EXPECT_DOUBLE_EQ(replica->golden_error(), bfn.golden_error());
  // Replica stats start fresh; evaluations agree bit-for-bit.
  EXPECT_EQ(replica->eval_stats().full_evals +
                replica->eval_stats().truncated_evals, 0u);
  util::Rng rng{12};
  for (int trial = 0; trial < 3; ++trial) {
    const FaultMask mask = bfn.sample_prior_mask(0.01, rng);
    EXPECT_TRUE(bits_equal(replica->logits_under_mask(mask),
                           bfn.logits_under_mask(mask)));
  }
}

TEST(ReplayParityTest, ForwardFromMatchesFullForward) {
  Subject subject = make_resnet_subject();
  nn::Network net = subject.net.clone();
  std::vector<Tensor> acts(net.num_layers());
  const Tensor logits = net.forward(
      subject.inputs, false,
      [&](std::size_t i, Tensor& act) { acts[i] = act; });
  for (std::size_t k = 1; k <= net.num_layers(); ++k) {
    const Tensor resumed = net.forward_from(k, acts[k - 1]);
    EXPECT_TRUE(bits_equal(resumed, logits)) << "resume at layer " << k;
  }
}

}  // namespace
}  // namespace bdlfi::bayes
