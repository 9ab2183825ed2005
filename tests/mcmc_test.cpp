// MCMC machinery: proposal correctness, MH/Gibbs stationary behaviour
// (mean #flips under the prior must match the Bernoulli expectation),
// multi-chain diagnostics and the completeness stopper.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "mcmc/gibbs.h"
#include "mcmc/mh.h"
#include "mcmc/proposals.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
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
