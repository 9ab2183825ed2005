// MCMC machinery: proposal correctness, MH/Gibbs stationary behaviour
// (mean #flips under the prior must match the Bernoulli expectation),
// multi-chain diagnostics and the completeness stopper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "mcmc/gibbs.h"
#include "mcmc/mh.h"
#include "mcmc/proposals.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/dropout.h"
#include "nn/range_guard.h"
#include "obs/metrics.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bdlfi::mcmc {
namespace {

class McmcTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(200, 0.08, rng));
    util::Rng init{2};
    net_ = new nn::Network(nn::make_mlp({2, 12, 2}, init));
    train::TrainConfig config;
    config.epochs = 25;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
    bfn_ = new bayes::BayesianFaultNetwork(
        *net_, bayes::TargetSpec::all_parameters(),
        fault::AvfProfile::uniform(), data_->inputs, data_->labels);
  }
  static void TearDownTestSuite() {
    delete bfn_;
    delete net_;
    delete data_;
  }

  static nn::Network* net_;
  static data::Dataset* data_;
  static bayes::BayesianFaultNetwork* bfn_;
};

nn::Network* McmcTest::net_ = nullptr;
data::Dataset* McmcTest::data_ = nullptr;
bayes::BayesianFaultNetwork* McmcTest::bfn_ = nullptr;

TEST_F(McmcTest, SingleToggleChangesExactlyOneBit) {
  SingleToggleKernel kernel;
  util::Rng rng{4};
  fault::FaultMask current({5, 99});
  const Proposal prop = kernel.propose(current, *bfn_, 1e-3, rng);
  EXPECT_EQ(fault::FaultMask::symmetric_difference(current, prop.next).size(),
            1u);
  EXPECT_DOUBLE_EQ(prop.log_q_ratio, 0.0);
}

TEST_F(McmcTest, BlockResampleQRatioCancelsPrior) {
  // For any block move, log_q_ratio must equal -(prior(next) - prior(cur)),
  // making prior-only acceptance exactly 1.
  BlockResampleKernel kernel(16);
  util::Rng rng{5};
  const double p = 1e-3;
  fault::FaultMask current = bfn_->sample_prior_mask(p, rng);
  for (int i = 0; i < 20; ++i) {
    const Proposal prop = kernel.propose(current, *bfn_, p, rng);
    const double prior_delta =
        bfn_->log_prior(prop.next, p) - bfn_->log_prior(current, p);
    EXPECT_NEAR(prop.log_q_ratio, -prior_delta, 1e-6);
    current = prop.next;
  }
}

TEST_F(McmcTest, IndependenceQRatioCancelsPrior) {
  IndependenceKernel kernel;
  util::Rng rng{6};
  const double p = 1e-3;
  const fault::FaultMask current = bfn_->sample_prior_mask(p, rng);
  const Proposal prop = kernel.propose(current, *bfn_, p, rng);
  const double prior_delta =
      bfn_->log_prior(prop.next, p) - bfn_->log_prior(current, p);
  EXPECT_NEAR(prop.log_q_ratio, -prior_delta, 1e-6);
}

TEST_F(McmcTest, MhUnderPriorMatchesBernoulliFlipRate) {
  // Stationary distribution check: E[#flips] = p * total_bits.
  const double p = 2e-4;
  bayes::PriorTarget target(*bfn_, p);
  MhConfig config;
  config.samples = 1500;
  config.burn_in = 100;
  config.thin = 3;
  config.seed = 7;
  MhSampler sampler(*bfn_, target, p, config);
  const ChainResult chain = sampler.run();
  ASSERT_EQ(chain.error_samples.size(), 1500u);
  double mean_flips = 0.0;
  for (double f : chain.flips_samples) mean_flips += f;
  mean_flips /= 1500.0;
  const double expected = p * static_cast<double>(bfn_->space().total_bits());
  EXPECT_NEAR(mean_flips, expected, 0.25 * expected + 0.05);
  EXPECT_GT(chain.acceptance_rate, 0.2);
}

TEST_F(McmcTest, MhErrorSamplesBracketGolden) {
  const double p = 1e-4;
  bayes::PriorTarget target(*bfn_, p);
  MhConfig config;
  config.samples = 100;
  config.seed = 8;
  MhSampler sampler(*bfn_, target, p, config);
  const ChainResult chain = sampler.run();
  for (double e : chain.error_samples) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 100.0);
  }
}

TEST_F(McmcTest, GibbsUnderPriorMatchesBernoulliFlipRate) {
  // Gibbs over the prior: after enough sweeps the per-bit marginals are
  // exactly Bernoulli(p); #flips per retained sample should track p*bits.
  const double p = 5e-4;
  bayes::PriorTarget target(*bfn_, p);
  GibbsConfig config;
  config.samples = 300;
  config.burn_in = 5;
  config.coordinates_per_sweep = 128;
  config.seed = 9;
  GibbsSampler sampler(*bfn_, target, p, config);
  const ChainResult chain = sampler.run();
  double mean_flips = 0.0;
  for (double f : chain.flips_samples) mean_flips += f;
  mean_flips /= static_cast<double>(chain.flips_samples.size());
  const double expected = p * static_cast<double>(bfn_->space().total_bits());
  EXPECT_NEAR(mean_flips, expected, 0.35 * expected + 0.5);
}

TEST_F(McmcTest, DeterministicForSameSeed) {
  const double p = 1e-3;
  auto run_once = [&] {
    bayes::PriorTarget target(*bfn_, p);
    MhConfig config;
    config.samples = 50;
    config.seed = 10;
    return MhSampler(*bfn_, target, p, config).run();
  };
  const ChainResult a = run_once();
  const ChainResult b = run_once();
  EXPECT_EQ(a.error_samples, b.error_samples);
  EXPECT_EQ(a.flips_samples, b.flips_samples);
}

TEST_F(McmcTest, RunChainsPoolsAndDiagnoses) {
  const double p = 1e-3;
  RunnerConfig config;
  config.num_chains = 4;
  config.mh.samples = 80;
  config.mh.burn_in = 20;
  config.seed = 11;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const CampaignResult result = run_chains(*bfn_, factory, p, config);
  EXPECT_EQ(result.chains.size(), 4u);
  EXPECT_EQ(result.total_samples, 4u * 80u);
  EXPECT_GT(result.diagnostics.ess, 10.0);
  // Independent, well-specified chains on the same target must mix.
  EXPECT_LT(result.diagnostics.rhat, 1.3);
  EXPECT_GE(result.q95, result.q50);
  EXPECT_GE(result.q50, result.q05);
  EXPECT_GE(result.mean_error, 0.0);
}

TEST_F(McmcTest, RunChainsDeterministicAcrossThreadCounts) {
  const double p = 1e-3;
  RunnerConfig config;
  config.num_chains = 3;
  config.mh.samples = 30;
  config.seed = 12;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  const CampaignResult a = run_chains(*bfn_, factory, p, config);
  const CampaignResult b = run_chains(*bfn_, factory, p, config);
  ASSERT_EQ(a.chains.size(), b.chains.size());
  for (std::size_t c = 0; c < a.chains.size(); ++c) {
    EXPECT_EQ(a.chains[c].error_samples, b.chains[c].error_samples);
  }
}

TEST_F(McmcTest, GibbsRunnerPathWorks) {
  const double p = 1e-3;
  RunnerConfig config;
  config.num_chains = 2;
  config.use_gibbs = true;
  config.gibbs.samples = 30;
  config.gibbs.coordinates_per_sweep = 64;
  config.seed = 13;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  // Gibbs chains run the same chain loop as MH, counters included.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& samples =
      obs::MetricsRegistry::global().counter("mcmc.samples");
  const std::uint64_t samples_before = samples.value();
  const CampaignResult result = run_chains(*bfn_, factory, p, config);
  const std::uint64_t samples_after = samples.value();
  obs::set_enabled(was_enabled);
  EXPECT_EQ(result.total_samples, 60u);
  EXPECT_EQ(samples_after - samples_before, result.total_samples);
}

TEST_F(McmcTest, CompletenessConvergesOnEasyTarget) {
  const double p = 1e-3;
  RunnerConfig config;
  config.num_chains = 4;
  config.mh.samples = 60;
  config.mh.burn_in = 20;
  config.seed = 14;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  CompletenessCriterion criterion;
  criterion.rhat_threshold = 1.1;
  criterion.mean_rel_tol = 0.2;
  criterion.max_rounds = 6;
  const CompletenessResult result =
      run_until_complete(*bfn_, factory, p, config, criterion);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.rounds, 2u);  // needs at least two rounds to see stability
  EXPECT_EQ(result.trajectory.size(), result.rounds);
  // Samples accumulate monotonically across rounds.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GT(result.trajectory[i].cumulative_samples,
              result.trajectory[i - 1].cumulative_samples);
  }
}

// The same target behind a forwarding wrapper that declares no density
// bound (like any wrapper written before the bound existed): a chain on it
// runs every forward early rejection would skip.
class UnboundedTarget : public bayes::MaskTarget {
 public:
  explicit UnboundedTarget(bayes::MaskTarget& inner) : inner_(inner) {}
  double log_density(const FaultMask& mask) override {
    return inner_.log_density(mask);
  }
  std::optional<double> analytic_toggle_delta(const FaultMask& current,
                                              std::int64_t flat_bit) override {
    return inner_.analytic_toggle_delta(current, flat_bit);
  }
  bool requires_network_eval() const override {
    return inner_.requires_network_eval();
  }

 private:
  bayes::MaskTarget& inner_;
};

ChainResult run_sampler(bayes::BayesianFaultNetwork& net,
                        bayes::MaskTarget& target, double p, bool gibbs,
                        std::uint64_t seed) {
  if (gibbs) {
    GibbsConfig config;
    config.samples = 30;
    config.coordinates_per_sweep = 64;
    config.seed = seed;
    config.record_masks = true;
    return GibbsSampler(net, target, p, config).run();
  }
  MhConfig config;
  config.samples = 80;
  config.burn_in = 10;
  config.thin = 3;
  config.seed = seed;
  config.record_masks = true;
  return MhSampler(net, target, p, config).run();
}

// Early rejection draws the accept/reject uniform before the forward and
// skips the forward of a proposal the bound rejects: every draw, decision,
// sample and cursor must match a chain that runs all of those forwards.
// At p = 1e-2 masks hold ~20 bits, so Gibbs also visits set bits, whose
// removal the bound cannot rule out.
TEST_F(McmcTest, EarlyRejectionKeepsEveryDrawAndDecision) {
  for (const bool gibbs : {false, true}) {
    for (const double lambda : {5.0, -3.0}) {
      for (const double p : {1e-3, 1e-2}) {
        SCOPED_TRACE(std::string(gibbs ? "gibbs" : "mh") + ", lambda " +
                     std::to_string(lambda) + ", p " + std::to_string(p));
        bayes::DeviationTemperedTarget bounded(*bfn_, p, lambda);
        UnboundedTarget unbounded(bounded);
        const ChainResult a = run_sampler(*bfn_, bounded, p, gibbs, 21);
        const ChainResult b = run_sampler(*bfn_, unbounded, p, gibbs, 21);
        EXPECT_EQ(a.error_samples, b.error_samples);
        EXPECT_EQ(a.deviation_samples, b.deviation_samples);
        EXPECT_EQ(a.flips_samples, b.flips_samples);
        EXPECT_EQ(a.mask_samples, b.mask_samples);
        EXPECT_EQ(a.final_mask, b.final_mask);
        EXPECT_EQ(a.rng_state, b.rng_state);
        EXPECT_EQ(a.acceptance_rate, b.acceptance_rate);
        EXPECT_EQ(a.outcome_sdc, b.outcome_sdc);
        EXPECT_FALSE(a.diverged);
        // Only the forwards moved from run to skipped.
        EXPECT_EQ(a.network_evals + a.forwards_skipped,
                  b.network_evals + b.forwards_skipped);
        EXPECT_LT(a.network_evals, b.network_evals);
      }
    }
  }
}

// A retained sample served from the outcome memo must be exactly what a
// forward of its mask computes: re-evaluate every recorded mask on a fresh
// network that runs full forwards only.
TEST_F(McmcTest, MemoizedSamplesMatchAFreshEvaluation) {
  const double p = 1e-3;
  bayes::EvalCacheConfig full_only;
  full_only.enable_truncated_replay = false;
  bayes::BayesianFaultNetwork fresh(*net_, bayes::TargetSpec::all_parameters(),
                                    fault::AvfProfile::uniform(),
                                    data_->inputs, data_->labels, full_only);
  bayes::PriorTarget prior(*bfn_, p);
  bayes::DeviationTemperedTarget tempered(*bfn_, p, 5.0);
  for (const bool gibbs : {false, true}) {
    for (bayes::MaskTarget* target :
         {static_cast<bayes::MaskTarget*>(&prior),
          static_cast<bayes::MaskTarget*>(&tempered)}) {
      SCOPED_TRACE(std::string(gibbs ? "gibbs" : "mh") +
                   (target == &prior ? ", prior" : ", tempered"));
      const ChainResult r = run_sampler(*bfn_, *target, p, gibbs, 22);
      EXPECT_GT(r.forwards_skipped, 0u);
      ASSERT_EQ(r.mask_samples.size(), r.error_samples.size());
      for (std::size_t i = 0; i < r.mask_samples.size(); ++i) {
        const bayes::MaskOutcome want = fresh.evaluate_mask(r.mask_samples[i]);
        EXPECT_EQ(r.error_samples[i], want.classification_error) << i;
        EXPECT_EQ(r.deviation_samples[i], want.deviation) << i;
        EXPECT_EQ(r.flips_samples[i], static_cast<double>(want.flipped_bits))
            << i;
      }
    }
  }
}

// The bound's contract: the computed density never exceeds the computed
// bound — at 100% deviation, for λ < 0, and at −inf on a protected element.
TEST_F(McmcTest, TemperedDensityNeverExceedsItsBound) {
  const auto replica = bfn_->replicate();
  const fault::InjectionSpace& space = replica->space();
  // Negating the last layer's weights and bias negates the two logits, so
  // every prediction changes.
  std::int64_t last_layer = -1;
  for (const auto& e : space.entries()) {
    last_layer = std::max(last_layer, e.layer);
  }
  std::vector<std::int64_t> sign_bits;
  for (const auto& e : space.entries()) {
    if (e.layer != last_layer) continue;
    for (std::int64_t i = 0; i < e.numel; ++i) {
      sign_bits.push_back((e.offset + i) * fault::kBitsPerWord + 31);
    }
  }
  const fault::FaultMask negate{std::move(sign_bits)};
  ASSERT_EQ(replica->evaluate_mask(negate).deviation, 100.0);

  std::vector<fault::FaultMask> masks = {negate, fault::FaultMask{}};
  util::Rng rng{23};
  for (int i = 0; i < 100; ++i) {
    masks.push_back(replica->sample_prior_mask(1e-2, rng));
  }
  const double p = 1e-3;
  for (const double lambda : {5.0, 40.0, 0.0, -3.0, -40.0}) {
    SCOPED_TRACE("lambda " + std::to_string(lambda));
    bayes::DeviationTemperedTarget target(*replica, p, lambda);
    for (const auto& mask : masks) {
      const double bound = target.log_density_bound(mask);
      const double logd = target.log_density(mask);
      ASSERT_TRUE(std::isfinite(bound)) << mask.to_string();
      EXPECT_LE(logd, bound) << mask.to_string();
    }
  }
  // A protected element's bits have prior −inf, so the bound is −inf too.
  replica->mutable_space().protect_elements({0});
  bayes::DeviationTemperedTarget target(*replica, p, 5.0);
  const fault::FaultMask on_protected{{3}};
  EXPECT_EQ(target.log_density_bound(on_protected),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(target.log_density(on_protected),
            -std::numeric_limits<double>::infinity());
  // A non-finite λ declares no bound.
  bayes::DeviationTemperedTarget wild(
      *replica, p, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(wild.log_density_bound(fault::FaultMask{}),
            std::numeric_limits<double>::infinity());
}

// MC dropout and a calibrating range guard make an eval forward depend on
// more than the mask: a chain on such a network must run every forward.
TEST_F(McmcTest, ImpureEvalForwardsSkipNothing) {
  EXPECT_TRUE(bfn_->eval_is_pure());
  EXPECT_TRUE(bfn_->replicate()->eval_is_pure());

  util::Rng init{24};
  nn::Network mc = nn::make_mlp_dropout({2, 12, 12, 2}, 0.3, init);
  ASSERT_EQ(nn::set_mc_dropout(mc, true), 2u);
  nn::Network calibrating = nn::add_range_guards(*net_, data_->inputs);
  std::size_t guards = 0;
  for (std::size_t i = 0; i < calibrating.num_layers(); ++i) {
    if (auto* g = dynamic_cast<nn::RangeGuard*>(&calibrating.layer(i))) {
      g->set_calibrating(true);
      ++guards;
    }
  }
  ASSERT_GT(guards, 0u);
  const double p = 1e-3;
  for (const nn::Network* net : {&mc, &calibrating}) {
    SCOPED_TRACE(net == &mc ? "mc dropout" : "calibrating guard");
    bayes::BayesianFaultNetwork bfn(*net, bayes::TargetSpec::all_parameters(),
                                    fault::AvfProfile::uniform(),
                                    data_->inputs, data_->labels);
    EXPECT_FALSE(bfn.eval_is_pure());
    EXPECT_FALSE(bfn.replicate()->eval_is_pure());
    bayes::PriorTarget prior(bfn, p);
    bayes::DeviationTemperedTarget tempered(bfn, p, 5.0);
    for (const bool gibbs : {false, true}) {
      for (bayes::MaskTarget* target :
           {static_cast<bayes::MaskTarget*>(&prior),
            static_cast<bayes::MaskTarget*>(&tempered)}) {
        const ChainResult r = run_sampler(bfn, *target, p, gibbs, 25);
        EXPECT_EQ(r.forwards_skipped, 0u);
        EXPECT_EQ(bfn.last_outcome(r.final_mask), nullptr);
      }
    }
  }
}

// Campaign pooling carries the skip counter, and the process-wide counters
// split it into memo hits and early rejections.
TEST_F(McmcTest, RunChainsPoolsSkippedForwards) {
  const double p = 1e-3;
  RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 40;
  config.mh.thin = 2;
  config.seed = 26;
  TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::DeviationTemperedTarget>(net, p, 5.0);
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t hits0 = registry.counter("mcmc.memo_hits").value();
  const std::uint64_t early0 =
      registry.counter("mcmc.early_rejections").value();
  const CampaignResult result = run_chains(*bfn_, factory, p, config);
  const std::uint64_t hits = registry.counter("mcmc.memo_hits").value() - hits0;
  const std::uint64_t early =
      registry.counter("mcmc.early_rejections").value() - early0;
  obs::set_enabled(was_enabled);
  std::size_t skipped = 0;
  for (const ChainResult& c : result.chains) skipped += c.forwards_skipped;
  EXPECT_EQ(result.total_forwards_skipped, skipped);
  EXPECT_EQ(hits + early, skipped);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(early, 0u);
}

TEST(MhConfigValidation, RejectsDegenerateP) {
  util::Rng rng{1};
  data::Dataset ds = data::make_blobs(20, 2, 3.0, 0.2, rng);
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), ds.inputs,
                                  ds.labels);
  bayes::PriorTarget target(bfn, 0.5);
  MhConfig config;
  EXPECT_DEATH(MhSampler(bfn, target, 0.0, config), "p >");
}

}  // namespace
}  // namespace bdlfi::mcmc
