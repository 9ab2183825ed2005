#include "fleet/worker.h"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "bayes/targets.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "nn/checkpoint.h"
#include "obs/json.h"
#include "obs/reporter.h"
#include "tensor/backend/backend.h"
#include "util/atomic_file.h"
#include "util/interrupt.h"
#include "util/log.h"
#include "util/rng.h"

namespace bdlfi::fleet {

namespace {

struct Subject {
  nn::Network net;
  data::Dataset train;
  data::Dataset test;
};

/// Deterministic subject reconstruction — the same recipe as the bdlfi CLI's
/// build_subject, driven by the resolved spec instead of flags, so a fleet
/// campaign and the equivalent `bdlfi complete` invocation evaluate the same
/// network on the same test set.
bool build_subject(const CampaignSpec& spec, Subject* subject) {
  util::Rng data_rng{spec.data_seed};
  util::Rng init_rng{spec.init_seed};
  if (spec.model == "mlp") {
    data::Dataset all = data::make_two_moons(spec.samples, 0.08, data_rng);
    data::Split split = data::split_dataset(all, 0.75, data_rng);
    subject->net = nn::make_mlp({2, 16, 32, 2}, init_rng);
    subject->train = std::move(split.train);
    subject->test = std::move(split.test);
    return true;
  }
  if (spec.model == "resnet") {
    data::CifarLikeConfig dc;
    dc.samples_per_class = spec.samples_per_class;
    dc.image_size = spec.image_size;
    data::Dataset all = data::make_cifar_like(dc, data_rng);
    data::Split split = data::split_dataset(all, 0.8, data_rng);
    nn::ResNetConfig nc;
    nc.width_multiplier = spec.width;
    subject->net = nn::make_resnet18(nc, init_rng);
    subject->train = std::move(split.train);
    subject->test = std::move(split.test);
    return true;
  }
  return false;
}

fault::AvfProfile avf_from(const std::string& name) {
  if (name == "exponent") return fault::AvfProfile::exponent_weighted(4.0);
  if (name == "mantissa") return fault::AvfProfile::mantissa_only();
  if (name == "sign-exponent") return fault::AvfProfile::sign_exponent_only();
  return fault::AvfProfile::uniform();
}

/// Serializes the terminal campaign outcome. Every field is a pure function
/// of the campaign configuration (doubles via number_exact): no timestamps,
/// no attempt counters, no resumed_from_round — that is what makes the
/// kill/resume equivalence check a byte comparison.
std::string result_document(const CampaignSpec& spec,
                            const mcmc::CompletenessResult& result) {
  const mcmc::CampaignResult& fin = result.final_result;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", kFleetResultSchema);
  w.field("version", kFleetResultVersion);
  w.field("name", spec.name);
  w.field("campaign_id", spec.id);
  w.key("p").number_exact(spec.p);
  w.field("backend", std::string(tensor::backend::active_name()));
  w.field("converged", result.converged);
  w.field("rounds", static_cast<std::uint64_t>(result.rounds));
  w.field_exact("mean_error", fin.mean_error);
  w.field_exact("stddev_error", fin.stddev_error);
  w.field_exact("q05", fin.q05);
  w.field_exact("q50", fin.q50);
  w.field_exact("q95", fin.q95);
  w.field_exact("mean_deviation", fin.mean_deviation);
  w.field_exact("mean_flips", fin.mean_flips);
  w.field_exact("mean_acceptance", fin.mean_acceptance);
  w.field_exact("rhat", fin.diagnostics.rhat);
  w.field_exact("ess", fin.diagnostics.ess);
  w.field_exact("geweke_max", fin.diagnostics.geweke_max);
  w.field("total_samples", static_cast<std::uint64_t>(fin.total_samples));
  w.field("total_network_evals",
          static_cast<std::uint64_t>(fin.total_network_evals));
  w.field("total_forwards_skipped",
          static_cast<std::uint64_t>(fin.total_forwards_skipped));
  w.field("outcome_masked",
          static_cast<std::uint64_t>(fin.total_outcome_masked));
  w.field("outcome_sdc", static_cast<std::uint64_t>(fin.total_outcome_sdc));
  w.field("outcome_detected",
          static_cast<std::uint64_t>(fin.total_outcome_detected));
  w.field("outcome_corrected",
          static_cast<std::uint64_t>(fin.total_outcome_corrected));
  w.field_exact("detection_coverage", fin.detection_coverage());
  w.field_exact("sdc_rate", fin.sdc_rate());
  w.field("chains_quarantined",
          static_cast<std::uint64_t>(fin.chains_quarantined));
  w.field("degraded", fin.degraded);
  w.field("failed", fin.failed);
  if (fin.failed) w.field("fail_reason", fin.fail_reason);
  w.key("trajectory").begin_array();
  for (const auto& r : result.trajectory) {
    w.begin_object();
    w.field("cumulative_samples",
            static_cast<std::uint64_t>(r.cumulative_samples));
    w.field_exact("mean_error", r.mean_error);
    w.field_exact("rhat", r.rhat);
    w.field_exact("ess", r.ess);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

WorkerPaths worker_paths(const std::string& out_dir, const std::string& name,
                         std::size_t attempt) {
  WorkerPaths paths;
  paths.campaign_dir = out_dir + "/campaigns/" + name;
  paths.checkpoint_dir = paths.campaign_dir + "/ckpt";
  const std::string suffix = "-a" + std::to_string(attempt);
  paths.metrics_path = paths.campaign_dir + "/metrics" + suffix + ".jsonl";
  paths.result_path = paths.campaign_dir + "/result.json";
  paths.log_path = paths.campaign_dir + "/worker" + suffix + ".log";
  return paths;
}

int run_worker(const CampaignSpec& spec, const WorkerPaths& paths,
               bool resume) {
  std::error_code ec;
  std::filesystem::create_directories(paths.campaign_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n",
                 paths.campaign_dir.c_str(), ec.message().c_str());
    return 2;
  }

  // The spec's backend axis is an explicit request — resolved through the
  // shared policy, strictly (no env fallback: every worker in a cell must
  // run the cell's pinned backend).
  const tensor::backend::Resolution backend =
      tensor::backend::resolve(spec.backend, /*env=*/nullptr);
  if (!backend.ok) {
    std::fprintf(stderr, "backend: %s\n", backend.error.c_str());
    return 2;
  }

  Subject subject;
  if (!build_subject(spec, &subject)) {
    std::fprintf(stderr, "unknown model '%s'\n", spec.model.c_str());
    return 2;
  }
  if (!nn::load_checkpoint(subject.net, spec.ckpt)) {
    std::fprintf(stderr,
                 "failed to load %s (do model/width/image_size match the "
                 "train run?)\n",
                 spec.ckpt.c_str());
    return 2;
  }

  tensor::abft::Config abft;
  if (!tensor::abft::parse_mode(spec.abft, &abft.mode)) return 2;
  subject.net.set_abft(abft);

  bayes::TargetSpec target_spec = spec.target == "compute"
                                      ? bayes::TargetSpec::compute_only()
                                      : bayes::TargetSpec::all_parameters();
  if (!spec.layer.empty()) {
    target_spec = bayes::TargetSpec::single_layer(spec.layer);
  }
  bayes::BayesianFaultNetwork bfn(subject.net, target_spec,
                                  avf_from(spec.avf), subject.test.inputs,
                                  subject.test.labels);

  mcmc::RunnerConfig runner;
  runner.num_chains = spec.chains;
  runner.use_gibbs = spec.sampler == "gibbs";
  runner.mh.samples = spec.samples_per_chain;
  runner.mh.burn_in = spec.burn_in;
  runner.mh.thin = spec.thin;
  runner.gibbs.samples = spec.samples_per_chain;
  runner.gibbs.burn_in = spec.burn_in;
  runner.seed = spec.seed;
  runner.supervisor.round_timeout_ms = spec.round_timeout_ms;
  runner.supervisor.max_retries = spec.max_chain_retries;
  runner.supervisor.min_acceptance = spec.min_acceptance;
  runner.supervisor.max_evals_per_round = spec.max_evals_per_round;
  runner.supervisor.backoff_base_ms = spec.retry_backoff_ms;
  runner.checkpoint_dir = paths.checkpoint_dir;
  runner.resume = resume;
  util::install_interrupt_handlers();

  obs::CampaignReporter::Options opts;
  opts.metrics_path = paths.metrics_path;
  opts.label = spec.name;
  opts.backend = tensor::backend::active_name();
  opts.campaign_id = spec.id;
  opts.subject = spec.layer;
  obs::CampaignReporter reporter(opts);
  runner.round_hook = reporter.hook();
  runner.health_hook = reporter.health_hook();
  runner.checkpoint_hook = [&reporter](std::size_t round,
                                       const std::string& path) {
    reporter.checkpoint_saved(round, path);
  };

  mcmc::CompletenessCriterion criterion;
  criterion.rhat_threshold = spec.rhat;
  criterion.mean_rel_tol = spec.tol;
  criterion.max_rounds = spec.max_rounds;

  const double p = spec.p;
  mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  reporter.begin(p, runner.num_chains, runner.mh.samples,
                 criterion.max_rounds);
  const mcmc::CompletenessResult result =
      mcmc::run_until_complete(bfn, factory, p, runner, criterion);
  reporter.end(result.converged, result.rounds);

  if (result.lock_rejected || result.resume_rejected) {
    std::fprintf(stderr, "campaign rejected: %s\n",
                 result.final_result.fail_reason.c_str());
    return result.backend_mismatch ? 6 : 4;
  }
  if (result.interrupted) {
    // The checkpoint carries the state; a result.json here would be a lie
    // about a campaign that has not terminated.
    std::fprintf(stderr, "interrupted after %zu complete round(s)\n",
                 result.rounds);
    return 5;
  }
  if (!util::write_text_atomic(paths.result_path,
                               result_document(spec, result))) {
    std::fprintf(stderr, "cannot write %s\n", paths.result_path.c_str());
    return 4;
  }
  if (result.final_result.failed) {
    std::fprintf(stderr, "campaign FAILED: %s\n",
                 result.final_result.fail_reason.c_str());
    return 4;
  }
  return result.converged ? 0 : 3;
}

}  // namespace bdlfi::fleet
