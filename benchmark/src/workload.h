// Workloads of the campaign benchmark and the subject networks they run on.
//
// A workload is one fixed campaign configuration. The benchmark's --seed sets
// only mcmc::RunnerConfig::seed; the subject's data, initialisation and
// training seeds are fixed, so set-up time and the golden network are the
// same for every seed.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bayes/fault_network.h"
#include "data/dataset.h"
#include "nn/network.h"

namespace bdlfi::campaign_bench {

class SpanLog;

enum class Model { kResnet, kMlp };
enum class TargetKind { kPrior, kTempered };

struct Workload {
  std::string name;
  Model model = Model::kMlp;
  TargetKind target = TargetKind::kPrior;
  double p = 0.0;
  double lambda = 0.0;  // DeviationTemperedTarget tilt; tempered only
  std::size_t chains = 0;
  std::size_t burn_in = 0;
  std::size_t thin = 0;
  std::size_t samples_per_round = 0;
  std::size_t rounds = 0;
  std::size_t mask_batch = 8;
  /// A campaign that makes no round_hook call for this long is hung.
  double deadline_s = 0.0;
  /// Retained masks per chain that the traced run records and replays.
  std::size_t replay_per_chain = 0;
  /// Set-up samples per run; setup_s is their median.
  std::size_t setup_reps = 3;
  /// Back-to-back set-ups averaged into one sample, so that a set-up of a
  /// few milliseconds is measured over a span that host jitter cannot
  /// dominate.
  std::size_t setup_batch = 1;
  bool smoke = false;
};

/// The named workload at full size, or at toy size when `smoke` is set.
/// nullptr when the name is unknown.
std::unique_ptr<Workload> find_workload(const std::string& name, bool smoke);
std::vector<std::string> workload_names();

/// A trained golden network and its evaluation batch.
struct Subject {
  nn::Network net;
  data::Dataset train;
  data::Dataset test;
  data::Dataset eval;
};

struct Setup {
  Subject subject;
  std::unique_ptr<bayes::BayesianFaultNetwork> bfn;
  double fit_s = 0.0;  // train::fit
  double bfn_s = 0.0;  // BayesianFaultNetwork construction
  std::size_t epochs = 0;
};

/// Generates the subject's data (untimed), trains it and builds its
/// BayesianFaultNetwork (timed). Deterministic: every call returns the same
/// golden network. Records setup.train / setup.bfn spans when `spans` is set.
Setup set_up(const Workload& workload, SpanLog* spans);

/// A BayesianFaultNetwork over `subject` with the benchmark's fault target
/// (every parameter bit, uniform AVF).
std::unique_ptr<bayes::BayesianFaultNetwork> make_bfn(
    const Subject& subject, bayes::EvalCacheConfig cache = {});

}  // namespace bdlfi::campaign_bench
