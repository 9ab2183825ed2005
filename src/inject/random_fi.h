// Traditional random fault injection — the TensorFI / Ares-style baseline
// BDLFI is compared against (§I and refs [3], [4] of the paper).
//
// Each injection draws one concrete fault pattern from the Bernoulli model,
// applies it, runs the workload, and reverts — an i.i.d. Monte Carlo
// estimate of the error distribution with no notion of campaign completeness
// beyond the injections performed. run_random_fi optionally records the
// running-estimate trace so sample-efficiency can be compared against BDLFI.
#pragma once

#include <cstdint>
#include <vector>

#include "bayes/fault_network.h"
#include "fault/models.h"

namespace bdlfi::inject {

struct RandomFiConfig {
  std::size_t injections = 500;
  std::uint64_t seed = 1;
  /// Parallel workers (0 = one replica per hardware thread).
  std::size_t workers = 0;
};

struct RandomFiResult {
  double mean_error = 0.0;
  double stddev_error = 0.0;
  double q05 = 0.0, q50 = 0.0, q95 = 0.0;
  double mean_deviation = 0.0;
  double mean_flips = 0.0;
  double mean_detected = 0.0;  // % outputs with NaN/Inf (detectable faults)
  double mean_sdc = 0.0;       // % silently corrupted predictions
  std::size_t injections = 0;
  /// Fault-outcome taxonomy over the injections (see bayes::FaultOutcome):
  /// one whole-evaluation class per injection; the four counters sum to
  /// `injections`.
  std::size_t outcome_masked = 0;
  std::size_t outcome_sdc = 0;
  std::size_t outcome_detected = 0;
  std::size_t outcome_corrected = 0;
  /// (detected+corrected) / (detected+corrected+sdc); 0 when nothing
  /// mattered. The headline protection-efficacy number of tab_protection.
  double detection_coverage = 0.0;
  /// outcome_sdc / injections.
  double sdc_rate = 0.0;
  /// 95% normal-approximation confidence half-width of mean_error.
  double ci95_halfwidth = 0.0;
  /// error_samples[i] = classification error of injection i (chronological
  /// within workers, concatenated across workers).
  std::vector<double> error_samples;
};

/// Bernoulli bit-flip campaign at base rate p (the paper's fault model).
RandomFiResult run_random_fi(const bayes::BayesianFaultNetwork& golden,
                             double p, const RandomFiConfig& config);

/// Campaign under an arbitrary fault model (burst, stuck-at, word faults, …).
RandomFiResult run_random_fi(const bayes::BayesianFaultNetwork& golden,
                             const fault::MaskSampler& sampler,
                             const RandomFiConfig& config);

}  // namespace bdlfi::inject
