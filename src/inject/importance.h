// Importance-sampled fault injection — §I advantage 2 ("the ability to use
// algorithmic acceleration techniques") made concrete.
//
// At realistic flip rates almost every sampled fault pattern is benign, so a
// plain Monte Carlo estimate of the mean fault-induced error wastes nearly
// all of its forward passes confirming "nothing happened". BDLFI's analytic
// prior permits a better estimator: draw masks from a *tilted* Bernoulli
// proposal q (flip rate boosted by a factor beta, optionally weighted per
// site by a sensitivity score) and reweight each outcome by the exact density
// ratio prior(e)/q(e), which is computable in closed form per flipped bit.
// The estimate stays unbiased (self-normalized IS) while each forward pass is
// far more likely to exercise an error path — variance drops by orders of
// magnitude in the rare-error regime.
#pragma once

#include <cstdint>
#include <vector>

#include "bayes/fault_network.h"

namespace bdlfi::inject {

struct ImportanceFiConfig {
  /// Proposal flip rate = beta × p (uniform tilt). beta = 1 reduces to plain
  /// Monte Carlo. Choose beta so that beta × p × total_bits stays O(1)–O(10):
  /// past that the importance weights degenerate (each extra flip multiplies
  /// the weight by ~p/q) and `weight_ess` collapses — always check it.
  double beta = 10.0;
  std::size_t injections = 500;
  std::uint64_t seed = 1;
};

struct ImportanceFiResult {
  /// Self-normalized IS estimate of the mean classification error (%).
  double mean_error = 0.0;
  /// Same estimator for the deviation-from-golden rate (%).
  double mean_deviation = 0.0;
  /// Effective sample size of the weight set (Kong's estimator); small ESS
  /// warns that the tilt is too aggressive.
  double weight_ess = 0.0;
  std::size_t injections = 0;
  /// Fraction of proposals that produced a non-zero deviation — the "hit
  /// rate" plain MC would have needed 1/hit_rate more samples to match.
  double hit_rate = 0.0;
};

/// Runs the tilted campaign at base rate p against `golden`'s profile.
/// Requires beta × p < 1 for every bit.
ImportanceFiResult run_importance_fi(const bayes::BayesianFaultNetwork& golden,
                                     double p,
                                     const ImportanceFiConfig& config);

}  // namespace bdlfi::inject
