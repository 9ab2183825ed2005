// MCMC target distributions over fault masks.
//
// The generic target is log π(e) = log prior(e) + log likelihood(e). Two
// concrete instances cover the paper's uses:
//
//  * PriorTarget — π is the fault prior itself; sampling it yields the
//    *predictive* distribution of classification error (Figs. 2 & 4). Its
//    structure (independent Bernoulli bits) makes toggle deltas analytic, so
//    MH moves cost no forward passes; network evaluations happen only when a
//    retained sample's error statistic is recorded, and only for a state
//    the chain has not evaluated since it last moved. This is the
//    "algorithmic acceleration" §I advantage 2 refers to.
//
//  * DeviationTemperedTarget — π(e) ∝ prior(e) · exp(λ · dev(e)) where
//    dev(e) is the fraction of evaluation points whose prediction deviates
//    from the golden run. With λ > 0 this tilts mass toward *error-causing*
//    fault patterns (posterior over "what faults break this network"), the
//    analysis behind the decision-boundary discussion of §III. Every
//    log_density call costs one forward pass, but its upper bound
//    log prior + max(λ, 0) costs none: a sampler that draws its
//    accept/reject uniform first skips the forward of any proposal the
//    bound already rejects, e.g. a toggle onto a dead int8 bit or a
//    protected element (bound −∞) or, at small p, almost every added bit.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "bayes/fault_network.h"

namespace bdlfi::bayes {

class MaskTarget {
 public:
  virtual ~MaskTarget() = default;

  /// Full log density (up to an additive constant).
  virtual double log_density(const FaultMask& mask) = 0;

  /// Log-density change from toggling `flat_bit` in `current`, if available
  /// in closed form (no network evaluation). nullopt → caller must evaluate
  /// both states via log_density.
  virtual std::optional<double> analytic_toggle_delta(
      const FaultMask& current, std::int64_t flat_bit) = 0;

  /// True when log_density requires a forward pass (samplers budget these).
  virtual bool requires_network_eval() const = 0;

  /// An upper bound on log_density(mask) that costs no forward pass;
  /// +infinity (the default) declares none, so a wrapper that does not
  /// forward this call stays correct. Contract: the computed log_density
  /// never exceeds the computed bound, and where the bound is below
  /// +infinity log_density is never NaN or +infinity. Samplers use it to
  /// reject proposals before their forward (DESIGN.md §10).
  virtual double log_density_bound(const FaultMask& /*mask*/) const {
    return std::numeric_limits<double>::infinity();
  }
};

class PriorTarget : public MaskTarget {
 public:
  PriorTarget(BayesianFaultNetwork& net, double p) : net_(net), p_(p) {}

  double log_density(const FaultMask& mask) override {
    return net_.log_prior(mask, p_);
  }
  std::optional<double> analytic_toggle_delta(const FaultMask& current,
                                              std::int64_t flat_bit) override;
  bool requires_network_eval() const override { return false; }
  double p() const { return p_; }

 private:
  BayesianFaultNetwork& net_;
  double p_;
};

class DeviationTemperedTarget : public MaskTarget {
 public:
  /// lambda: tilt strength (log-odds added per 100% deviation).
  DeviationTemperedTarget(BayesianFaultNetwork& net, double p, double lambda)
      : net_(net), p_(p), lambda_(lambda) {}

  double log_density(const FaultMask& mask) override;
  std::optional<double> analytic_toggle_delta(const FaultMask&,
                                              std::int64_t) override {
    return std::nullopt;  // likelihood term requires a forward pass
  }
  bool requires_network_eval() const override { return true; }
  /// log prior + max(λ, 0): the deviation share lies in [0, 1].
  double log_density_bound(const FaultMask& mask) const override;

 private:
  BayesianFaultNetwork& net_;
  double p_;
  double lambda_;
};

}  // namespace bdlfi::bayes
