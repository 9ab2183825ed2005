#include "inject/random_fi.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bdlfi::inject {

RandomFiResult run_random_fi(const bayes::BayesianFaultNetwork& golden,
                             const fault::MaskSampler& sampler,
                             const RandomFiConfig& config) {
  BDLFI_CHECK(config.injections > 0);
  std::size_t workers = config.workers;
  if (workers == 0) workers = util::ThreadPool::global().size();
  workers = std::min(workers, config.injections);

  struct WorkerOut {
    std::vector<double> errors, deviations, flips, detected, sdc;
    std::size_t outcome_masked = 0, outcome_sdc = 0, outcome_detected = 0,
                outcome_corrected = 0;
  };
  std::vector<WorkerOut> out(workers);

  util::Rng seeder{config.seed};
  std::vector<std::uint64_t> seeds(workers);
  for (auto& s : seeds) s = seeder();

  util::parallel_for_chunked(
      0, config.injections, workers,
      [&](std::size_t worker, std::size_t lo, std::size_t hi) {
        auto replica = golden.replicate();
        auto local_sampler = sampler.clone();
        util::Rng rng{seeds[worker]};
        for (std::size_t i = lo; i < hi; ++i) {
          const bayes::MaskOutcome outcome = replica->evaluate_mask(
              local_sampler->sample(replica->space(), rng));
          out[worker].errors.push_back(outcome.classification_error);
          out[worker].deviations.push_back(outcome.deviation);
          out[worker].flips.push_back(
              static_cast<double>(outcome.flipped_bits));
          out[worker].detected.push_back(outcome.detected);
          out[worker].sdc.push_back(outcome.sdc);
          switch (outcome.outcome) {
            case bayes::FaultOutcome::kMasked:
              ++out[worker].outcome_masked;
              break;
            case bayes::FaultOutcome::kSdc:
              ++out[worker].outcome_sdc;
              break;
            case bayes::FaultOutcome::kDetected:
              ++out[worker].outcome_detected;
              break;
            case bayes::FaultOutcome::kCorrected:
              ++out[worker].outcome_corrected;
              break;
          }
        }
      });

  RandomFiResult result;
  util::SampleSet err_set;
  util::RunningStats dev, fl, det, sdc;
  for (std::size_t w = 0; w < workers; ++w) {
    for (double e : out[w].errors) {
      err_set.add(e);
      result.error_samples.push_back(e);
    }
    for (double d : out[w].deviations) dev.add(d);
    for (double f : out[w].flips) fl.add(f);
    for (double d : out[w].detected) det.add(d);
    for (double s : out[w].sdc) sdc.add(s);
    result.outcome_masked += out[w].outcome_masked;
    result.outcome_sdc += out[w].outcome_sdc;
    result.outcome_detected += out[w].outcome_detected;
    result.outcome_corrected += out[w].outcome_corrected;
  }
  result.injections = err_set.count();
  result.mean_error = err_set.mean();
  result.stddev_error = err_set.stddev();
  result.q05 = err_set.quantile(0.05);
  result.q50 = err_set.quantile(0.50);
  result.q95 = err_set.quantile(0.95);
  result.mean_deviation = dev.mean();
  result.mean_flips = fl.mean();
  result.mean_detected = det.mean();
  result.mean_sdc = sdc.mean();
  const std::size_t caught = result.outcome_detected + result.outcome_corrected;
  const std::size_t mattered = caught + result.outcome_sdc;
  result.detection_coverage =
      mattered == 0 ? 0.0
                    : static_cast<double>(caught) / static_cast<double>(mattered);
  result.sdc_rate = result.injections == 0
                        ? 0.0
                        : static_cast<double>(result.outcome_sdc) /
                              static_cast<double>(result.injections);
  result.ci95_halfwidth =
      1.96 * result.stddev_error /
      std::sqrt(static_cast<double>(std::max<std::size_t>(1, result.injections)));
  return result;
}

RandomFiResult run_random_fi(const bayes::BayesianFaultNetwork& golden,
                             double p, const RandomFiConfig& config) {
  const fault::BernoulliSampler sampler(golden.profile(), p);
  return run_random_fi(golden, sampler, config);
}

}  // namespace bdlfi::inject
