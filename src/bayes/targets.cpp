#include "bayes/targets.h"

#include <algorithm>
#include <cmath>

namespace bdlfi::bayes {

std::optional<double> PriorTarget::analytic_toggle_delta(
    const FaultMask& current, std::int64_t flat_bit) {
  const double delta =
      net_.space().log_prior_toggle_delta(flat_bit, net_.profile(), p_);
  // Toggling *out* of the mask negates the insertion delta.
  return current.contains(flat_bit) ? -delta : delta;
}

double DeviationTemperedTarget::log_density(const FaultMask& mask) {
  const double prior = net_.log_prior(mask, p_);
  const MaskOutcome outcome = net_.evaluate_mask(mask);
  return prior + lambda_ * (outcome.deviation / 100.0);
}

double DeviationTemperedTarget::log_density_bound(const FaultMask& mask) const {
  // deviation / 100 rounds into [0, 1], and IEEE multiply and add are
  // monotone, so with the same expression order as log_density the rounded
  // density cannot exceed this rounded bound. A non-finite λ can make the
  // density NaN (−inf · 0), which a finite bound must rule out: no bound.
  if (!std::isfinite(lambda_)) return std::numeric_limits<double>::infinity();
  return net_.log_prior(mask, p_) + std::max(lambda_, 0.0);
}

}  // namespace bdlfi::bayes
