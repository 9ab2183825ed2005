// Campaign orchestration: sweeps, layer campaigns, random-FI baseline,
// decision-boundary maps; cross-validation of BDLFI vs the i.i.d. baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/toy2d.h"
#include "inject/boundary.h"
#include "inject/campaign.h"
#include "inject/random_fi.h"
#include "nn/builders.h"
#include "obs/reporter.h"
#include "train/trainer.h"
#include "util/interrupt.h"
#include "util/rng.h"

namespace bdlfi::inject {
namespace {

class InjectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng{1};
    data_ = new data::Dataset(data::make_two_moons(200, 0.08, rng));
    util::Rng init{2};
    net_ = new nn::Network(nn::make_mlp({2, 16, 2}, init));
    train::TrainConfig config;
    config.epochs = 30;
    config.lr = 0.05;
    config.seed = 3;
    train::fit(*net_, *data_, *data_, config);
    bfn_ = new BayesianFaultNetwork(*net_, TargetSpec::all_parameters(),
                                    AvfProfile::uniform(), data_->inputs,
                                    data_->labels);
  }
  static void TearDownTestSuite() {
    delete bfn_;
    delete net_;
    delete data_;
  }

  static nn::Network* net_;
  static data::Dataset* data_;
  static BayesianFaultNetwork* bfn_;
};

nn::Network* InjectTest::net_ = nullptr;
data::Dataset* InjectTest::data_ = nullptr;
BayesianFaultNetwork* InjectTest::bfn_ = nullptr;

TEST(LogSpace, EndpointsAndMonotonicity) {
  const auto grid = log_space(1e-5, 1e-1, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid.front(), 1e-5, 1e-12);
  EXPECT_NEAR(grid.back(), 1e-1, 1e-6);
  EXPECT_NEAR(grid[2], 1e-3, 1e-9);
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
}

TEST(LogSpace, DegenerateRequestsAreGraceful) {
  EXPECT_TRUE(log_space(1e-5, 1e-1, 0).empty());

  const auto single = log_space(1e-3, 1e-1, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 1e-3);

  // A collapsed range repeats the point instead of dividing by zero spacing.
  const auto collapsed = log_space(1e-2, 1e-2, 4);
  ASSERT_EQ(collapsed.size(), 4u);
  for (const double v : collapsed) {
    EXPECT_DOUBLE_EQ(v, 1e-2);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(LogSpaceDeathTest, RejectsInvalidBounds) {
  EXPECT_DEATH(log_space(0.0, 1e-1, 3), "log_space");
  EXPECT_DEATH(log_space(-1e-3, 1e-1, 3), "log_space");
  EXPECT_DEATH(log_space(1e-1, 1e-5, 3), "log_space");
}

TEST_F(InjectTest, SweepErrorGrowsWithP) {
  mcmc::RunnerConfig runner;
  runner.num_chains = 2;
  runner.mh.samples = 60;
  runner.mh.burn_in = 20;
  runner.seed = 4;
  const SweepResult sweep =
      run_bdlfi_sweep(*bfn_, {1e-5, 1e-2}, runner);
  ASSERT_EQ(sweep.points.size(), 2u);
  // The two-regime claim of Fig. 2: tiny p ≈ golden error; large p >> golden.
  EXPECT_LT(sweep.points[0].mean_error, sweep.golden_error + 3.0);
  EXPECT_GT(sweep.points[1].mean_error, sweep.golden_error + 5.0);
  EXPECT_GT(sweep.points[1].mean_flips, sweep.points[0].mean_flips);
}

TEST_F(InjectTest, LayerCampaignCoversParamLayersOnly) {
  mcmc::RunnerConfig runner;
  runner.num_chains = 2;
  runner.mh.samples = 30;
  runner.mh.burn_in = 10;
  runner.seed = 5;
  const auto points = run_layer_campaign(*net_, data_->inputs, data_->labels,
                                         AvfProfile::uniform(), 1e-3, runner);
  // MLP 2-16-2: fc1 and fc2 have params; the ReLU between them does not.
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].layer_name, "fc1");
  EXPECT_EQ(points[1].layer_name, "fc2");
  EXPECT_EQ(points[0].layer_params, 2 * 16 + 16);
  for (const auto& pt : points) {
    EXPECT_GE(pt.mean_error, 0.0);
    EXPECT_LE(pt.mean_error, 100.0);
    EXPECT_GT(pt.stats.samples, 0u);
  }
}

// The round hook runs when a point's chains finish; raising the interrupt
// flag there (as the SIGINT handler would) interrupts the next point's
// chains at their first sample. The partial point must not be reported.
TEST_F(InjectTest, InterruptedSweepReportsFinishedPointsOnly) {
  mcmc::RunnerConfig runner;
  runner.num_chains = 2;
  runner.mh.samples = 20;
  runner.mh.burn_in = 5;
  runner.seed = 7;
  runner.round_hook = [](const obs::RoundEvent&) {
    util::set_interrupt_requested(true);
  };
  util::set_interrupt_requested(false);
  const SweepResult sweep =
      run_bdlfi_sweep(*bfn_, {1e-4, 1e-3, 1e-2}, runner);
  util::set_interrupt_requested(false);
  EXPECT_TRUE(sweep.interrupted);
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_EQ(sweep.points[0].p, 1e-4);
  EXPECT_EQ(sweep.points[0].stats.samples, 2u * 20u);
}

TEST_F(InjectTest, InterruptedLayerCampaignReportsFinishedLayersOnly) {
  mcmc::RunnerConfig runner;
  runner.num_chains = 2;
  runner.mh.samples = 10;
  runner.mh.burn_in = 5;
  runner.seed = 8;
  runner.round_hook = [](const obs::RoundEvent&) {
    util::set_interrupt_requested(true);
  };
  util::set_interrupt_requested(false);
  const auto points = run_layer_campaign(*net_, data_->inputs, data_->labels,
                                         AvfProfile::uniform(), 1e-3, runner);
  util::set_interrupt_requested(false);
  ASSERT_EQ(points.size(), 1u);  // fc1 finished; fc2 was interrupted
  EXPECT_EQ(points[0].layer_name, "fc1");
  EXPECT_EQ(points[0].stats.samples, 2u * 10u);
}

TEST_F(InjectTest, RandomFiBasicStatistics) {
  RandomFiConfig config;
  config.injections = 300;
  config.seed = 6;
  const RandomFiResult result = run_random_fi(*bfn_, 1e-3, config);
  EXPECT_EQ(result.injections, 300u);
  EXPECT_EQ(result.error_samples.size(), 300u);
  EXPECT_GE(result.q95, result.q05);
  EXPECT_GT(result.ci95_halfwidth, 0.0);
  EXPECT_GE(result.mean_error, 0.0);
}

TEST_F(InjectTest, RandomFiDeterministicGivenSeedAndWorkers) {
  RandomFiConfig config;
  config.injections = 100;
  config.seed = 7;
  config.workers = 4;
  const RandomFiResult a = run_random_fi(*bfn_, 1e-3, config);
  const RandomFiResult b = run_random_fi(*bfn_, 1e-3, config);
  EXPECT_EQ(a.error_samples, b.error_samples);
}

TEST_F(InjectTest, BdlfiAgreesWithRandomFiBaseline) {
  // The paper's central soundness claim: BDLFI's posterior-predictive error
  // equals what exhaustive random FI measures. Both estimate the same
  // pushforward mean, so they must agree within joint Monte Carlo noise.
  const double p = 2e-3;
  RandomFiConfig fi_config;
  fi_config.injections = 600;
  fi_config.seed = 8;
  const RandomFiResult fi = run_random_fi(*bfn_, p, fi_config);

  mcmc::RunnerConfig runner;
  runner.num_chains = 4;
  runner.mh.samples = 150;
  runner.mh.burn_in = 50;
  runner.seed = 9;
  const SweepResult sweep = run_bdlfi_sweep(*bfn_, {p}, runner);

  const double joint_noise =
      3.0 * (fi.ci95_halfwidth +
             sweep.points[0].stddev_error /
                 std::sqrt(std::max(1.0, sweep.points[0].stats.ess)));
  EXPECT_NEAR(sweep.points[0].mean_error, fi.mean_error,
              std::max(2.0, joint_noise));
}

TEST_F(InjectTest, BoundaryMapHighestNearBoundary) {
  BoundaryConfig config;
  config.grid.x_min = -1.5;
  config.grid.x_max = 2.5;
  config.grid.y_min = -1.0;
  config.grid.y_max = 1.5;
  config.grid.nx = 24;
  config.grid.ny = 16;
  config.p = 2e-3;
  config.masks = 120;
  config.seed = 10;
  const BoundaryMap map = compute_boundary_map(*bfn_, config);
  ASSERT_EQ(map.deviation_probability.size(), 24u * 16u);
  ASSERT_EQ(map.golden_prediction.size(), 24u * 16u);

  // Partition cells into boundary-adjacent (a 4-neighbour has a different
  // golden prediction) vs interior; mean fault-deviation probability must be
  // higher near the boundary — the paper's Fig. 1-③ claim.
  double boundary_sum = 0.0, interior_sum = 0.0;
  std::size_t boundary_n = 0, interior_n = 0;
  auto pred = [&](std::size_t r, std::size_t c) {
    return map.golden_prediction[r * 24 + c];
  };
  for (std::size_t r = 1; r + 1 < 16; ++r) {
    for (std::size_t c = 1; c + 1 < 24; ++c) {
      const bool near_boundary =
          pred(r, c) != pred(r - 1, c) || pred(r, c) != pred(r + 1, c) ||
          pred(r, c) != pred(r, c - 1) || pred(r, c) != pred(r, c + 1);
      const double v = map.deviation_probability[r * 24 + c];
      if (near_boundary) {
        boundary_sum += v;
        ++boundary_n;
      } else {
        interior_sum += v;
        ++interior_n;
      }
    }
  }
  ASSERT_GT(boundary_n, 0u);
  ASSERT_GT(interior_n, 0u);
  EXPECT_GT(boundary_sum / static_cast<double>(boundary_n),
            interior_sum / static_cast<double>(interior_n));
}

TEST_F(InjectTest, BoundaryMapProbabilitiesInUnitRange) {
  BoundaryConfig config;
  config.grid.nx = 8;
  config.grid.ny = 6;
  config.p = 1e-3;
  config.masks = 40;
  config.seed = 11;
  const BoundaryMap map = compute_boundary_map(*bfn_, config);
  for (double v : map.deviation_probability) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double lg : map.log10_probability) {
    EXPECT_LE(lg, 0.0);  // probabilities ≤ 1
    EXPECT_TRUE(std::isfinite(lg));  // floored, never -inf
  }
}

}  // namespace
}  // namespace bdlfi::inject
