// bdlfi — command-line front end for fault-injection campaigns.
//
// Lets a user run the whole paper workflow without writing C++:
//
//   bdlfi train   --model=mlp|resnet --out=golden.ckpt [--epochs=..]
//   bdlfi sweep   --ckpt=golden.ckpt --p-lo=1e-5 --p-hi=1e-1 [--points=9]
//   bdlfi layers  --ckpt=golden.ckpt --p=1e-3 [--dose=4]
//   bdlfi random  --ckpt=golden.ckpt --p=1e-3 --injections=1000
//   bdlfi complete --ckpt=golden.ckpt --p=1e-3       (mixing-based stop)
//
// The dataset is regenerated deterministically from --data-seed, so a
// checkpoint plus the command line fully reproduces any result. Model
// architecture is stored implicitly: --model/--width/--image-size must match
// between `train` and later commands (checkpoints validate names/shapes and
// refuse mismatches).
// Observability (any command): --progress streams per-round campaign health
// to stderr, --metrics=<file.jsonl> writes the machine-readable event stream,
// --trace=<file.json> records Chrome-trace spans (open in chrome://tracing).
// Kernels: --backend=scalar|avx2|auto selects the SIMD backend (default:
// BDLFI_BACKEND env, else scalar). Campaign checkpoints record the backend
// and --resume refuses to continue under a different one (exit 6).
// Resilience (campaign commands): --checkpoint-dir=<dir> saves an atomic
// per-round campaign checkpoint (and arms SIGINT/SIGTERM for a graceful
// stop), --resume continues bit-exactly from it, --round-timeout-ms /
// --max-chain-retries / --min-acceptance / --max-evals-per-round configure
// chain supervision (retry, then quarantine, pathological chains).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bayes/posterior_profile.h"
#include "bayes/targets.h"
#include "bench/common.h"
#include "harden/placement.h"
#include "harden/profile_export.h"
#include "harden/trainer.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "inject/campaign.h"
#include "inject/random_fi.h"
#include "mcmc/checkpoint.h"
#include "mcmc/runner.h"
#include "obs/stream.h"
#include "nn/builders.h"
#include "nn/checkpoint.h"
#include "train/trainer.h"
#include "util/csv.h"
#include "util/log.h"

using namespace bdlfi;

namespace {

// Flag parsing and observability wiring are shared with the benches
// (bench::Flags / bench::ObsSession / bench::parse_campaign_flags); the
// subcommand at argv[1] carries no "--" prefix so the parser skips it.
using bench::Flags;

struct Subject {
  nn::Network net;
  data::Dataset train;
  data::Dataset test;
};

Subject build_subject(const Flags& args) {
  const std::string model = args.get("model", "mlp");
  const auto data_seed = static_cast<std::uint64_t>(
      args.get("data-seed", std::int64_t{11}));
  const auto init_seed = static_cast<std::uint64_t>(
      args.get("init-seed", std::int64_t{12}));
  util::Rng data_rng{data_seed};
  util::Rng init_rng{init_seed};
  Subject subject;
  if (model == "mlp") {
    data::Dataset all = data::make_two_moons(
        args.get("samples", std::size_t{800}), 0.08, data_rng);
    data::Split split = data::split_dataset(all, 0.75, data_rng);
    subject.net = nn::make_mlp({2, 16, 32, 2}, init_rng);
    subject.train = std::move(split.train);
    subject.test = std::move(split.test);
  } else if (model == "resnet") {
    data::CifarLikeConfig dc;
    dc.samples_per_class = args.get("samples-per-class", std::size_t{60});
    dc.image_size = args.get("image-size", std::int64_t{16});
    data::Dataset all = data::make_cifar_like(dc, data_rng);
    data::Split split = data::split_dataset(all, 0.8, data_rng);
    nn::ResNetConfig nc;
    nc.width_multiplier = args.get("width", 0.125);
    subject.net = nn::make_resnet18(nc, init_rng);
    subject.train = std::move(split.train);
    subject.test = std::move(split.test);
  } else {
    std::fprintf(stderr, "unknown --model=%s (mlp|resnet)\n", model.c_str());
    std::exit(2);
  }
  return subject;
}

Subject load_subject(const Flags& args) {
  Subject subject = build_subject(args);
  const std::string ckpt = args.get("ckpt", "");
  if (ckpt.empty()) {
    std::fprintf(stderr, "--ckpt=<file> is required\n");
    std::exit(2);
  }
  if (!nn::load_checkpoint(subject.net, ckpt)) {
    std::fprintf(stderr,
                 "failed to load %s (did --model/--width/--image-size match "
                 "the train run?)\n",
                 ckpt.c_str());
    std::exit(1);
  }
  return subject;
}

// Numeric flags are range-checked here, at the CLI boundary, with the same
// bounds a fleet spec enforces (fleet/spec.cpp validate_campaign): the
// library CHECKs them too, but as programming errors that abort.
[[noreturn]] void bad_flag(const std::string& key, double value,
                           const char* rule) {
  std::fprintf(stderr, "bad value for --%s: %g (%s)\n", key.c_str(), value,
               rule);
  std::exit(2);
}

/// A flip probability: must lie in (0, 1).
double probability_flag(const Flags& args, const std::string& key,
                        double fallback) {
  const double p = args.get(key, fallback);
  if (!(p > 0.0 && p < 1.0)) bad_flag(key, p, "must be in (0, 1)");
  return p;
}

/// A count that must be at least 1.
std::size_t count_flag(const Flags& args, const std::string& key,
                       std::size_t fallback) {
  const std::size_t n = args.get(key, fallback);
  if (n == 0) bad_flag(key, 0.0, "must be >= 1");
  return n;
}

fault::AvfProfile avf_from(const Flags& args) {
  const std::string avf = args.get("avf", "uniform");
  if (avf == "uniform") return fault::AvfProfile::uniform();
  if (avf == "exponent") return fault::AvfProfile::exponent_weighted(4.0);
  if (avf == "mantissa") return fault::AvfProfile::mantissa_only();
  if (avf == "sign-exponent") return fault::AvfProfile::sign_exponent_only();
  std::fprintf(stderr,
               "unknown --avf=%s (uniform|exponent|mantissa|sign-exponent)\n",
               avf.c_str());
  std::exit(2);
}

/// ABFT is a deployment property of the subject network: set it before any
/// BayesianFaultNetwork clones it, so every chain replica checks (and the
/// campaign fingerprint records the mode).
void deploy_abft(Subject& subject, const Flags& args) {
  tensor::abft::Config abft;
  const std::string abft_flag = args.get("abft", "off");
  if (!tensor::abft::parse_mode(abft_flag, &abft.mode)) {
    std::fprintf(stderr, "unknown --abft=%s (off|detect|correct)\n",
                 abft_flag.c_str());
    std::exit(2);
  }
  subject.net.set_abft(abft);
}

bayes::BayesianFaultNetwork make_bfn(Subject& subject, const Flags& args) {
  const fault::AvfProfile profile = avf_from(args);
  deploy_abft(subject, args);
  bayes::TargetSpec spec = bayes::TargetSpec::all_parameters();
  const std::string target = args.get("target", "params");
  if (target == "compute") {
    spec = bayes::TargetSpec::compute_only();
  } else if (target != "params") {
    std::fprintf(stderr, "unknown --target=%s (params|compute)\n",
                 target.c_str());
    std::exit(2);
  }
  const std::string layer = args.get("layer", "");
  if (!layer.empty()) spec = bayes::TargetSpec::single_layer(layer);
  return bayes::BayesianFaultNetwork(subject.net, spec, profile,
                                     subject.test.inputs,
                                     subject.test.labels);
}

mcmc::RunnerConfig runner_from(const Flags& args, bench::ObsSession& session) {
  mcmc::RunnerConfig runner;
  runner.num_chains = count_flag(args, "chains", 4);
  runner.mh.samples = count_flag(args, "samples-per-chain", 100);
  runner.mh.burn_in = args.get("burn-in", std::size_t{30});
  runner.mh.thin = count_flag(args, "thin", 5);
  runner.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  bench::parse_campaign_flags(args, session, runner);
  return runner;
}

/// Shared degradation epilogue for campaign commands: per-chain incidents on
/// stderr, non-zero exit when the campaign result cannot be trusted.
int degradation_exit_code(const mcmc::CampaignResult& result, int ok_code) {
  if (result.degraded) {
    std::fprintf(stderr, "DEGRADED: %zu chain(s) quarantined\n",
                 result.chains_quarantined);
    for (const auto& h : result.health) {
      if (h.status != mcmc::ChainStatus::quarantined) continue;
      std::fprintf(stderr, "  chain %zu: %s at round %zu (%zu retries)\n",
                   h.chain, h.last_failure.c_str(), h.quarantined_round,
                   h.retries);
    }
  }
  if (result.failed) {
    std::fprintf(stderr, "campaign FAILED: %s\n", result.fail_reason.c_str());
    return 4;
  }
  return ok_code;
}

int cmd_train(const Flags& args) {
  Subject subject = build_subject(args);
  train::TrainConfig config;
  config.epochs = args.get("epochs", args.get("model", "mlp") == "mlp"
                                         ? std::size_t{40}
                                         : std::size_t{5});
  config.batch_size = args.get("batch", std::size_t{32});
  config.lr = args.get("lr", args.get("model", "mlp") == "mlp" ? 0.05 : 0.02);
  config.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{13}));
  config.verbose = true;
  const auto result =
      train::fit(subject.net, subject.train, subject.test, config);
  std::printf("final test accuracy: %.2f%%\n",
              100.0 * result.final_test_accuracy);
  const std::string out = args.get("out", "golden.ckpt");
  if (!nn::save_checkpoint(subject.net, out)) return 1;
  std::printf("golden weights written to %s\n", out.c_str());
  return 0;
}

int cmd_sweep(const Flags& args, bench::ObsSession& session) {
  const double p_lo = probability_flag(args, "p-lo", 1e-5);
  const double p_hi = probability_flag(args, "p-hi", 1e-1);
  if (p_lo > p_hi) bad_flag("p-lo", p_lo, "must not exceed --p-hi");
  const mcmc::RunnerConfig runner = runner_from(args, session);
  Subject subject = load_subject(args);
  auto bfn = make_bfn(subject, args);
  const auto ps =
      inject::log_space(p_lo, p_hi, args.get("points", std::size_t{9}));
  const auto sweep = inject::run_bdlfi_sweep(bfn, ps, runner);
  util::Table table({"p", "mean_error_%", "q05", "q95", "accept", "rhat",
                     "ess", "quar"});
  for (const auto& pt : sweep.points) {
    table.row().col(pt.p).col(pt.mean_error).col(pt.q05).col(pt.q95)
        .col(pt.stats.acceptance_rate).col(pt.stats.rhat).col(pt.stats.ess)
        .col(pt.stats.chains_quarantined);
  }
  std::printf("golden error: %.2f%%\n%s", sweep.golden_error,
              table.to_text().c_str());
  if (sweep.interrupted) {
    std::fprintf(stderr, "sweep interrupted: %zu/%zu grid points done\n",
                 sweep.points.size(), ps.size());
  }
  const std::string out = args.get("out", "");
  if (!out.empty() && !table.write_csv(out)) return 1;
  return sweep.interrupted ? 5 : 0;
}

int cmd_layers(const Flags& args, bench::ObsSession& session) {
  // The per-layer campaign targets each layer's parameters in turn, so a
  // fault-site target or a single layer cannot apply: refuse rather than
  // silently ignore them.
  for (const char* flag : {"target", "layer"}) {
    if (args.has(flag)) {
      std::fprintf(stderr,
                   "--%s is not supported by `layers` (it runs one campaign "
                   "over each layer's parameters)\n",
                   flag);
      return 2;
    }
  }
  const double p = probability_flag(args, "p", 1e-3);
  const mcmc::RunnerConfig runner = runner_from(args, session);
  Subject subject = load_subject(args);
  const fault::AvfProfile profile = avf_from(args);
  deploy_abft(subject, args);
  const auto points = inject::run_layer_campaign(
      subject.net, subject.test.inputs, subject.test.labels, profile, p,
      runner, args.get("dose", 0.0));
  util::Table table({"idx", "layer", "kind", "params", "mean_error_%",
                     "deviation_%"});
  for (const auto& pt : points) {
    table.row().col(pt.layer_index).col(pt.layer_name).col(pt.layer_kind)
        .col(static_cast<std::size_t>(pt.layer_params)).col(pt.mean_error)
        .col(pt.mean_deviation);
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

int cmd_random(const Flags& args) {
  const double p = probability_flag(args, "p", 1e-3);
  inject::RandomFiConfig config;
  config.injections = count_flag(args, "injections", 1000);
  config.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  Subject subject = load_subject(args);
  auto bfn = make_bfn(subject, args);
  const auto result = inject::run_random_fi(bfn, p, config);
  std::printf("random FI @ p=%.3g over %zu injections:\n"
              "  mean error %.3f%% (golden %.3f%%), ci95 ±%.3f\n"
              "  deviation %.3f%%  SDC %.3f%%  detected %.3f%%\n"
              "  outcomes: masked=%zu sdc=%zu detected=%zu corrected=%zu\n"
              "  detection coverage %.1f%%  SDC rate %.1f%%\n",
              p, result.injections, result.mean_error,
              bfn.golden_error(), result.ci95_halfwidth,
              result.mean_deviation, result.mean_sdc, result.mean_detected,
              result.outcome_masked, result.outcome_sdc,
              result.outcome_detected, result.outcome_corrected,
              100.0 * result.detection_coverage, 100.0 * result.sdc_rate);
  return 0;
}

int cmd_complete(const Flags& args, bench::ObsSession& session) {
  const double p = probability_flag(args, "p", 1e-3);
  mcmc::CompletenessCriterion criterion;
  criterion.rhat_threshold = args.get("rhat", 1.05);
  criterion.mean_rel_tol = args.get("tol", 0.05);
  criterion.max_rounds = count_flag(args, "max-rounds", 8);
  const mcmc::RunnerConfig runner = runner_from(args, session);
  Subject subject = load_subject(args);
  auto bfn = make_bfn(subject, args);
  mcmc::TargetFactory factory = [p](bayes::BayesianFaultNetwork& net) {
    return std::make_unique<bayes::PriorTarget>(net, p);
  };
  if (session.reporter() != nullptr) {
    // Stamp every event with the campaign's config fingerprint (the same id
    // checkpoints carry), so concurrent streams merge unambiguously in the
    // dashboard and a resumed run keeps its identity.
    session.reporter()->set_campaign_id(
        obs::hex64(mcmc::campaign_fingerprint(bfn, runner, p)));
    session.reporter()->begin(p, runner.num_chains, runner.mh.samples,
                              criterion.max_rounds);
  }
  const auto result =
      mcmc::run_until_complete(bfn, factory, p, runner, criterion);
  if (session.reporter() != nullptr) {
    session.reporter()->end(result.converged, result.rounds);
  }
  if (result.resume_rejected) {
    std::fprintf(stderr, "resume rejected: %s\n",
                 result.final_result.fail_reason.c_str());
    return result.backend_mismatch ? 6 : 4;
  }
  if (result.resumed_from_round > 0) {
    std::printf("resumed from checkpoint: %zu round(s) already done\n",
                result.resumed_from_round);
  }
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const auto& r = result.trajectory[i];
    std::printf("round %zu: samples=%zu mean=%.3f%% rhat=%.4f ess=%.0f\n",
                i + 1, r.cumulative_samples, r.mean_error, r.rhat, r.ess);
  }
  std::printf("campaign %s after %zu rounds\n",
              result.converged ? "COMPLETE" : "NOT CONVERGED", result.rounds);
  if (result.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu complete round(s); continue with "
                 "--resume --checkpoint-dir=%s\n",
                 result.rounds, runner.checkpoint_dir.c_str());
    return 5;
  }
  return degradation_exit_code(result.final_result,
                               result.converged ? 0 : 3);
}

int cmd_harden(const Flags& args, bench::ObsSession& session) {
  const double p = probability_flag(args, "p", 1e-4);
  mcmc::RunnerConfig runner = runner_from(args, session);
  runner.mh.record_masks = true;
  runner.gibbs.record_masks = true;
  mcmc::CompletenessCriterion criterion;
  criterion.rhat_threshold = args.get("rhat", 1.05);
  criterion.mean_rel_tol = args.get("tol", 0.05);
  criterion.max_rounds = count_flag(args, "max-rounds", 4);
  harden::FaultAwareConfig hcfg;
  hcfg.base.epochs = args.get("tune-epochs", std::size_t{30});
  hcfg.base.batch_size = args.get("batch", std::size_t{32});
  hcfg.base.lr = args.get("tune-lr", 0.02);
  hcfg.base.seed =
      static_cast<std::uint64_t>(args.get("tune-seed", std::int64_t{183}));
  hcfg.inject_prob = args.get("inject-prob", 0.7);
  if (!(hcfg.inject_prob >= 0.0 && hcfg.inject_prob <= 1.0)) {
    bad_flag("inject-prob", hcfg.inject_prob, "must be in [0, 1]");
  }
  hcfg.max_flips = count_flag(args, "max-flips", 2);
  Subject subject = load_subject(args);

  // Profile acquisition: reuse a saved one (--profile) or run a fresh
  // deviation-tempered campaign with retained-mask recording and summarize it.
  bayes::PosteriorProfile profile;
  const std::string profile_in = args.get("profile", "");
  if (!profile_in.empty()) {
    std::string error;
    auto loaded = bayes::PosteriorProfile::load(profile_in, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "--profile: %s\n", error.c_str());
      return 1;
    }
    profile = std::move(*loaded);
    std::printf("posterior profile loaded from %s (%zu samples, %zu flips)\n",
                profile_in.c_str(), profile.samples(), profile.total_flips());
  } else {
    auto bfn = make_bfn(subject, args);
    const double lambda = args.get("lambda", 0.05);
    mcmc::TargetFactory factory =
        [p, lambda](bayes::BayesianFaultNetwork& net) {
          return std::make_unique<bayes::DeviationTemperedTarget>(net, p,
                                                                  lambda);
        };
    const auto result =
        mcmc::run_until_complete(bfn, factory, p, runner, criterion);
    if (result.final_result.failed) {
      std::fprintf(stderr, "campaign FAILED: %s\n",
                   result.final_result.fail_reason.c_str());
      return 4;
    }
    profile = harden::summarize_campaign(result.final_result, bfn.space());
    std::printf("posterior profile: %zu retained masks, %zu flips "
                "attributed\n",
                profile.samples(), profile.total_flips());
  }
  const std::string profile_out = args.get("profile-out", "");
  if (!profile_out.empty()) {
    if (!profile.save(profile_out)) {
      std::fprintf(stderr, "cannot write %s\n", profile_out.c_str());
      return 1;
    }
    std::printf("posterior profile written to %s\n", profile_out.c_str());
  }

  // Fault-aware fine-tuning in place; Ctrl-C stops at a batch boundary and
  // the partial result is still saved (exit 5, like interrupted campaigns).
  util::install_interrupt_handlers();
  harden::FaultAwareTrainer trainer(subject.net, profile, hcfg);
  const auto tune = trainer.run(subject.train, subject.test);
  std::printf("fault-aware fine-tune: %zu epochs, %zu batches injected "
              "(%zu flips), %zu updates skipped, %zu clipped, test acc "
              "%.2f%%\n",
              tune.train.history.size(), tune.batches_injected,
              tune.flips_injected, tune.updates_skipped, tune.updates_clipped,
              100.0 * tune.train.final_test_accuracy);

  // Budgeted protection placement: report the plan and the frontier. The
  // checkpoint stores the fine-tuned weights only — guards/ABFT are a
  // deployment-time transform (harden::apply_plan), not weight state.
  const double budget = args.get("budget", 0.0);
  if (budget > 0.0) {
    const auto plan = harden::place_protection(profile, subject.net, budget);
    std::printf("protection plan @ budget %.2f: coverage %.1f%% of posterior "
                "mass, est. overhead %.1f%%\n",
                budget, 100.0 * plan.coverage, 100.0 * plan.overhead);
    for (const auto& c : plan.selected) {
      std::printf("  %-12s layer %zu (%s): mass %.3f, overhead %.2f\n",
                  harden::protection_name(c.kind), c.layer, c.name.c_str(),
                  c.benefit, c.overhead);
    }
  }

  const std::string out = args.get("out", "hardened.ckpt");
  if (!nn::save_checkpoint(subject.net, out)) return 1;
  std::printf("hardened weights written to %s\n", out.c_str());
  if (tune.train.interrupted) {
    std::fprintf(stderr, "fine-tune interrupted: partial result saved\n");
    return 5;
  }
  return 0;
}

int cmd_fleet(const Flags& args, const std::string& spec_path) {
  if (spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: bdlfi fleet <campaigns.json> [--out=DIR] [--resume]\n"
                 "                   [--workers=N] [--poll-ms=N] [--quiet]\n");
    return 2;
  }
  std::string error;
  auto spec = fleet::load_fleet_spec(spec_path, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "fleet spec: %s\n", error.c_str());
    return 2;
  }
  fleet::FleetOptions opts;
  opts.out_dir = args.get("out", "fleet_out");
  opts.resume = args.get("resume", std::int64_t{0}) != 0;
  opts.workers = args.get("workers", std::size_t{0});
  opts.poll_interval_ms = args.get("poll-ms", 50.0);
  // Fault-injection knob for the fleet itself (exercised by the ctest smoke
  // chain): SIGKILL each campaign's worker once per campaign at this round,
  // proving kill/resume equivalence end to end.
  opts.chaos_kill_round = args.get("chaos-kill-round", std::size_t{0});
  opts.quiet = args.get("quiet", std::int64_t{0}) != 0;
  const fleet::FleetResult result = fleet::run_fleet(*spec, opts);
  std::printf("fleet %s: %zu completed, %zu not converged, %zu quarantined%s\n",
              result.interrupted ? "INTERRUPTED" : "done", result.completed,
              result.not_converged, result.quarantined,
              result.interrupted ? " (continue with --resume)" : "");
  std::printf("results under %s (follow live: bdlfi_dash --follow --dir=%s)\n",
              opts.out_dir.c_str(), opts.out_dir.c_str());
  return result.exit_code();
}

void usage() {
  std::fprintf(
      stderr,
      "bdlfi <command> [--flags]\n"
      "  train     train a golden network    (--model=mlp|resnet --out=F)\n"
      "  sweep     error vs flip probability (--ckpt=F --p-lo --p-hi)\n"
      "  layers    per-layer campaign        (--ckpt=F --p [--dose])\n"
      "  random    traditional random FI     (--ckpt=F --p --injections)\n"
      "  complete  run until MCMC-mixing completeness (--ckpt=F --p)\n"
      "  harden    posterior-guided hardening loop: campaign -> profile ->\n"
      "            fault-aware fine-tune -> budgeted protection plan\n"
      "            (--ckpt=F --p [--out=hardened.ckpt --budget=0.15\n"
      "            --tune-epochs --inject-prob --profile=F.json\n"
      "            --profile-out=F.json])\n"
      "  fleet     run a JSON campaign spec across crash-supervised worker\n"
      "            processes (bdlfi fleet campaigns.json --out=DIR\n"
      "            [--resume --workers=N --quiet])\n"
      "common: --model --width --image-size --data-seed --avf=uniform|"
      "exponent|mantissa|sign-exponent --layer=<name>\n"
      "        --target=params|compute (weight-memory faults vs transient\n"
      "          MAC-output faults; `layers` takes neither --layer nor\n"
      "          --target) --abft=off|detect|correct (checksummed\n"
      "          GEMM/conv kernels: flag or repair corrupted output rows)\n"
      "kernels:       --backend=scalar|avx2|auto (SIMD kernel backend;\n"
      "                 default: BDLFI_BACKEND env, else scalar)\n"
      "observability: --progress (live per-round health on stderr, with\n"
      "                 EWMA evals/sec and wall-clock ETA)\n"
      "               --metrics=<file.jsonl> (machine-readable event stream;\n"
      "                 watch live with bdlfi_dash --follow <file.jsonl>...)\n"
      "               --fsync-metrics (fsync the event stream per event)\n"
      "               --trace=<file.json> (Chrome trace; chrome://tracing)\n"
      "resilience:    --checkpoint-dir=<dir> (atomic per-round checkpoint;\n"
      "                 SIGINT/SIGTERM stop gracefully) --resume\n"
      "               --round-timeout-ms=N --max-chain-retries=N\n"
      "               --min-acceptance=X --max-evals-per-round=N\n"
      "               --retry-backoff-ms=N\n"
      "exit codes: 0 ok, 2 bad usage/backend, 3 not converged, "
      "4 failed/rejected,\n"
      "            5 interrupted, 6 resume/backend mismatch\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const Flags args(argc, argv);
  const std::string cmd = argv[1];
  // One strict resolution up front for every command (flag beats
  // BDLFI_BACKEND beats scalar): train/random previously ignored --backend
  // entirely, silently producing scalar artifacts from an avx2 request.
  // parse_campaign_flags re-resolves for the campaign commands, which is
  // idempotent. Fleet workers re-resolve strictly from their campaign spec.
  const tensor::backend::Resolution backend =
      tensor::backend::resolve(args.get("backend", ""));
  if (!backend.ok) {
    std::fprintf(stderr, "--backend: %s\n", backend.error.c_str());
    return 2;
  }
  int rc = 2;
  if (cmd == "fleet") {
    // The spec file rides as a positional argument right after the command.
    const std::string spec_path =
        (argc > 2 && argv[2][0] != '-') ? argv[2] : args.get("spec", "");
    return cmd_fleet(args, spec_path);
  }
  if (cmd == "train" || cmd == "sweep" || cmd == "layers" || cmd == "random" ||
      cmd == "complete" || cmd == "harden") {
    bench::ObsSession session(args, "bdlfi " + cmd);
    if (cmd == "train") rc = cmd_train(args);
    if (cmd == "sweep") rc = cmd_sweep(args, session);
    if (cmd == "layers") rc = cmd_layers(args, session);
    if (cmd == "random") rc = cmd_random(args);
    if (cmd == "complete") rc = cmd_complete(args, session);
    if (cmd == "harden") rc = cmd_harden(args, session);
    session.finish();
    return rc;
  }
  usage();
  return 2;
}
