// Systematic-scan Gibbs sampler over fault-mask bits.
//
// Each sweep resamples a random subset of bit coordinates from their full
// conditional. Under the prior the conditionals are independent
// Bernoulli(p_b) and the sweep is exact; under a network-tempered target
// each coordinate needs the density at both states (one extra forward pass),
// so sweeps visit a bounded number of coordinates per retained sample —
// except a coordinate whose toggle the target's log_density_bound already
// rejects at the drawn uniform, which costs no forward. A sweep is the
// transition kernel run_chain (mh.h) advances the chain with, one sweep per
// retained sample.
#pragma once

#include "bayes/targets.h"
#include "mcmc/mh.h"

namespace bdlfi::mcmc {

struct GibbsConfig : ChainConfig {
  GibbsConfig() { burn_in = 10; }
  /// Bit coordinates resampled per sweep.
  std::size_t coordinates_per_sweep = 64;
};

class GibbsSampler {
 public:
  GibbsSampler(bayes::BayesianFaultNetwork& net, bayes::MaskTarget& target,
               double p, const GibbsConfig& config);

  ChainResult run();

 private:
  bool sweep(FaultMask& current, double& current_logd, util::Rng& rng,
             ChainResult& result);

  bayes::BayesianFaultNetwork& net_;
  bayes::MaskTarget& target_;
  double p_;
  GibbsConfig config_;
};

}  // namespace bdlfi::mcmc
