// Edge cases and failure paths across modules: contract violations that must
// abort loudly, degenerate-but-legal configurations, and campaign behaviour
// at the boundaries of the parameter space.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bayes/targets.h"
#include "data/toy2d.h"
#include "fault/models.h"
#include "inject/activation.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/layers.h"
#include "train/trainer.h"
#include "util/csv.h"
#include "util/rng.h"

namespace bdlfi {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(EdgeCases, ForwardOnEmptyNetworkAborts) {
  nn::Network net;
  Tensor x{Shape{1, 2}};
  EXPECT_DEATH(net.forward(x), "empty network");
}

TEST(EdgeCases, DenseRejectsWrongInputWidth) {
  nn::Dense dense(3, 2);
  Tensor x{Shape{1, 4}};
  EXPECT_DEATH(dense.forward(x, false), "");
}

TEST(EdgeCases, BackwardWithoutTrainingForwardAborts) {
  util::Rng rng{1};
  nn::Dense dense(2, 2);
  dense.init_he(rng);
  Tensor x{Shape{1, 2}};
  dense.forward(x, /*training=*/false);
  Tensor g{Shape{1, 2}};
  EXPECT_DEATH(dense.backward(g), "without training forward");
}

TEST(EdgeCases, BurstSamplerRejectsDegenerateRates) {
  util::Rng init{2};
  nn::Network net = nn::make_mlp({2, 4, 2}, init);
  fault::InjectionSpace space(net);
  util::Rng rng{3};
  fault::BurstSampler bad_rate(0.0, 4);
  EXPECT_DEATH(bad_rate.sample(space, rng), "event_rate");
  fault::BurstSampler bad_len(0.01, 0);
  EXPECT_DEATH(bad_len.sample(space, rng), "burst_length");
}

TEST(EdgeCases, FloatNetworkSpaceHasNoCodeSites) {
  // A float network has no int8 code words: its space is float words from
  // element 0 on, and no bit of element 0 falls in the dead code region.
  util::Rng rng{4};
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  fault::InjectionSpace space(net);
  EXPECT_EQ(space.code_elements(), 0);
  for (const auto& entry : space.entries()) {
    EXPECT_EQ(entry.site, fault::InjectionSpace::SiteKind::kParam);
    EXPECT_EQ(entry.codes, nullptr);
  }
  const auto uniform = fault::AvfProfile::uniform();
  const double p = 1e-2;
  EXPECT_TRUE(std::isfinite(space.log_prior_toggle_delta(31, uniform, p)));
  const double lp = space.log_prior(fault::FaultMask{}, uniform, p);
  EXPECT_NEAR(lp, 32.0 * static_cast<double>(net.num_params()) *
                      std::log1p(-p),
              1e-12 * std::abs(lp));
  const float before = *space.element_ptr(0);
  space.apply(fault::FaultMask{{31}});  // sign bit of the first float word
  EXPECT_EQ(*space.element_ptr(0), -before);
}

TEST(EdgeCases, BfnRejectsEmptyEvalSet) {
  util::Rng rng{5};
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  Tensor inputs{Shape{0, 2}};
  EXPECT_DEATH(bayes::BayesianFaultNetwork(
                   net, bayes::TargetSpec::all_parameters(),
                   fault::AvfProfile::uniform(), inputs, {}),
               "");
}

TEST(EdgeCases, SingleSampleEvalSetWorks) {
  util::Rng rng{6};
  data::Dataset ds = data::make_blobs(30, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 6, 2}, rng);
  train::TrainConfig tc;
  tc.epochs = 5;
  tc.seed = 7;
  train::fit(net, ds, ds, tc);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(),
                                  ds.slice(0, 1).inputs, {ds.labels[0]});
  const auto outcome = bfn.evaluate_mask(fault::FaultMask{});
  // With one sample, error is exactly 0 or 100.
  EXPECT_TRUE(outcome.classification_error == 0.0 ||
              outcome.classification_error == 100.0);
}

TEST(EdgeCases, RunnerWithSingleChainSkipsRhat) {
  util::Rng rng{8};
  data::Dataset ds = data::make_blobs(40, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 6, 2}, rng);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), ds.inputs,
                                  ds.labels);
  mcmc::RunnerConfig config;
  config.num_chains = 1;
  config.mh.samples = 20;
  config.seed = 9;
  mcmc::TargetFactory factory = [](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, 1e-3);
  };
  const auto result = mcmc::run_chains(bfn, factory, 1e-3, config);
  EXPECT_DOUBLE_EQ(result.diagnostics.rhat, 1.0);  // single chain: undefined→1
  EXPECT_EQ(result.total_samples, 20u);
}

TEST(EdgeCases, CompletenessNonConvergenceReported) {
  util::Rng rng{10};
  data::Dataset ds = data::make_blobs(40, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 6, 2}, rng);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), ds.inputs,
                                  ds.labels);
  mcmc::RunnerConfig config;
  config.num_chains = 2;
  config.mh.samples = 10;
  config.seed = 11;
  mcmc::TargetFactory factory = [](bayes::BayesianFaultNetwork& n) {
    return std::make_unique<bayes::PriorTarget>(n, 1e-2);
  };
  mcmc::CompletenessCriterion impossible;
  impossible.rhat_threshold = 0.0;  // rhat >= 1 even for agreeing chains
  impossible.mean_rel_tol = 1e-12;
  impossible.max_rounds = 2;
  const auto result =
      mcmc::run_until_complete(bfn, factory, 1e-2, config, impossible);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.trajectory.size(), 2u);
}

TEST(EdgeCases, ActivationCampaignSingleInjection) {
  util::Rng rng{12};
  data::Dataset ds = data::make_blobs(20, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  inject::ActivationCampaignConfig config;
  config.injections = 1;
  config.seed = 13;
  const auto points =
      inject::run_activation_campaign(net, ds.inputs, ds.labels, config);
  EXPECT_EQ(points.size(), 1u + net.num_layers());
}

TEST(EdgeCases, TableRowBuilderTypesAndCount) {
  util::Table table({"a", "b", "c", "d"});
  table.row().col(std::string("x")).col(1.5).col(std::size_t{7}).col(-2);
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.num_columns(), 4u);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("x,1.5,7,-2"), std::string::npos);
}

TEST(EdgeCases, MaskToStringTruncates) {
  std::vector<std::int64_t> bits;
  for (int i = 0; i < 20; ++i) bits.push_back(i * 33);
  fault::FaultMask mask{std::move(bits)};
  const std::string s = mask.to_string(4);
  EXPECT_NE(s.find("20 flips"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(EdgeCases, GibbsRejectsDegenerateP) {
  util::Rng rng{14};
  data::Dataset ds = data::make_blobs(20, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  bayes::BayesianFaultNetwork bfn(net, bayes::TargetSpec::all_parameters(),
                                  fault::AvfProfile::uniform(), ds.inputs,
                                  ds.labels);
  bayes::PriorTarget target(bfn, 1.0);
  mcmc::GibbsConfig config;
  EXPECT_DEATH(mcmc::GibbsSampler(bfn, target, 1.0, config), "p >");
}

TEST(EdgeCases, TrainerHandlesBatchLargerThanDataset) {
  util::Rng rng{15};
  data::Dataset ds = data::make_blobs(10, 2, 3.0, 0.3, rng);
  nn::Network net = nn::make_mlp({2, 4, 2}, rng);
  train::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 64;  // > dataset size: one batch per epoch
  config.seed = 16;
  const auto result = train::fit(net, ds, ds, config);
  EXPECT_EQ(result.history.size(), 2u);
}

}  // namespace
}  // namespace bdlfi
