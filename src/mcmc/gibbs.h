// Systematic-scan Gibbs sampler over fault-mask bits.
//
// Each sweep resamples a random subset of bit coordinates from their full
// conditional. Under the prior the conditionals are independent
// Bernoulli(p_b) and the sweep is exact; under a network-tempered target
// each coordinate needs the density at both states (one extra forward pass),
// so sweeps visit a bounded number of coordinates per retained sample.
#pragma once

#include "bayes/targets.h"
#include "mcmc/mh.h"
#include "util/stopwatch.h"

namespace bdlfi::mcmc {

struct GibbsConfig {
  std::size_t samples = 200;
  std::size_t burn_in = 10;
  /// Bit coordinates resampled per sweep.
  std::size_t coordinates_per_sweep = 64;
  std::uint64_t seed = 1;
  /// Same semantics as the MhConfig fields of the same names.
  double round_timeout_ms = 0.0;
  bool resume = false;
  std::vector<std::uint64_t> resume_rng;
  FaultMask resume_mask;
  bool record_masks = false;
};

class GibbsSampler {
 public:
  GibbsSampler(bayes::BayesianFaultNetwork& net, bayes::MaskTarget& target,
               double p, const GibbsConfig& config);

  ChainResult run();

 private:
  void sweep(FaultMask& current, double& current_logd, util::Rng& rng);

  bayes::BayesianFaultNetwork& net_;
  bayes::MaskTarget& target_;
  double p_;
  GibbsConfig config_;
  std::size_t network_evals_ = 0;
  bool diverged_ = false;
  bool timed_out_ = false;
  util::Stopwatch watch_;
};

}  // namespace bdlfi::mcmc
