#include "workload.h"

#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "nn/builders.h"
#include "spans.h"
#include "train/trainer.h"
#include "util/stopwatch.h"

namespace bdlfi::campaign_bench {

namespace {

// Round counts and samples per round are sized so one campaign takes about
// 5 s (ResNet) or 1.3 s (MLP) on a 4-core AVX2 host at the commit that
// introduced the benchmark; a run repeats the campaign for --seconds.
Workload resnet_prior() {
  Workload w;
  w.name = "resnet-prior";
  w.model = Model::kResnet;
  w.target = TargetKind::kPrior;
  w.p = 1e-6;
  w.chains = 2;
  w.burn_in = 30;
  w.thin = 5;
  w.samples_per_round = 250;
  w.rounds = 4;
  w.deadline_s = 60.0;
  w.replay_per_chain = 64;
  return w;
}

Workload resnet_tempered() {
  Workload w;
  w.name = "resnet-tempered";
  w.model = Model::kResnet;
  w.target = TargetKind::kTempered;
  w.p = 1e-5;
  w.lambda = 0.05;  // the `bdlfi harden` default
  w.chains = 2;
  w.burn_in = 10;
  w.thin = 2;
  w.samples_per_round = 30;
  w.rounds = 2;
  w.deadline_s = 60.0;
  w.replay_per_chain = 32;
  return w;
}

Workload mlp_checkpointed() {
  Workload w;
  w.name = "mlp-checkpointed";
  w.model = Model::kMlp;
  w.target = TargetKind::kPrior;
  w.p = 1e-3;
  // Three chains per pool thread. Each round waits for its slowest chain;
  // the pool hands chains to workers as they free up, so a CPU that runs
  // slow for a while runs fewer chains instead of holding up the round.
  // With one chain per CPU the run-to-run spread of campaign_s was about
  // twice as wide.
  w.chains = 12;
  w.burn_in = 100;
  w.thin = 5;
  w.samples_per_round = 1000;
  w.rounds = 6;
  w.deadline_s = 30.0;
  w.replay_per_chain = 64;
  w.setup_reps = 5;
  w.setup_batch = 100;  // one set-up takes about 3 ms
  return w;
}

/// Toy sizes: every code path of the full workload, in a few seconds.
void shrink(Workload& w) {
  w.smoke = true;
  w.setup_reps = 1;
  w.setup_batch = 1;
  w.rounds = 2;
  w.burn_in = std::min<std::size_t>(w.burn_in, 5);
  w.samples_per_round = w.model == Model::kMlp ? 200 : 8;
  w.replay_per_chain = 8;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"resnet-prior", "resnet-tempered", "mlp-checkpointed"};
}

std::unique_ptr<Workload> find_workload(const std::string& name, bool smoke) {
  std::unique_ptr<Workload> w;
  if (name == "resnet-prior") w = std::make_unique<Workload>(resnet_prior());
  if (name == "resnet-tempered") {
    w = std::make_unique<Workload>(resnet_tempered());
  }
  if (name == "mlp-checkpointed") {
    w = std::make_unique<Workload>(mlp_checkpointed());
  }
  if (w != nullptr && smoke) shrink(*w);
  return w;
}

namespace {

Subject make_resnet_subject(bool smoke, train::TrainConfig& train) {
  data::CifarLikeConfig dc;
  dc.samples_per_class = smoke ? 8 : 60;
  dc.image_size = smoke ? 8 : 16;
  util::Rng data_rng{21};
  data::Split split =
      data::split_dataset(data::make_cifar_like(dc, data_rng), 0.8, data_rng);
  nn::ResNetConfig nc;
  nc.width_multiplier = smoke ? 0.0625 : 0.125;
  util::Rng init_rng{22};
  Subject s{nn::make_resnet18(nc, init_rng), std::move(split.train),
            std::move(split.test), {}};
  const std::size_t eval_n = std::min<std::size_t>(smoke ? 16 : 64,
                                                   s.test.size());
  s.eval = s.test.slice(0, eval_n);
  train.epochs = smoke ? 1 : 5;
  train.batch_size = 32;
  train.lr = 0.02;
  train.seed = 23;
  train.target_accuracy = 0.97;
  return s;
}

Subject make_mlp_subject(bool smoke, train::TrainConfig& train) {
  util::Rng data_rng{11};
  data::Split split = data::split_dataset(
      data::make_two_moons(smoke ? 200 : 800, 0.08, data_rng), 0.75,
      data_rng);
  util::Rng init_rng{12};
  Subject s{nn::make_mlp({2, 16, 32, 2}, init_rng), std::move(split.train),
            std::move(split.test), {}};
  s.eval = s.test;
  train.epochs = smoke ? 5 : 40;
  train.batch_size = 32;
  train.lr = 0.05;
  train.seed = 13;
  train.target_accuracy = 0.99;
  return s;
}

}  // namespace

std::unique_ptr<bayes::BayesianFaultNetwork> make_bfn(
    const Subject& subject, bayes::EvalCacheConfig cache) {
  return std::make_unique<bayes::BayesianFaultNetwork>(
      subject.net, bayes::TargetSpec::all_parameters(),
      bayes::AvfProfile::uniform(), subject.eval.inputs, subject.eval.labels,
      cache);
}

Setup set_up(const Workload& workload, SpanLog* spans) {
  train::TrainConfig config;
  Setup setup;
  setup.subject = workload.model == Model::kResnet
                      ? make_resnet_subject(workload.smoke, config)
                      : make_mlp_subject(workload.smoke, config);

  const double t0 = spans != nullptr ? spans->now_us() : 0.0;
  util::Stopwatch watch;
  const train::TrainResult fit = train::fit(
      setup.subject.net, setup.subject.train, setup.subject.test, config);
  setup.fit_s = watch.seconds();
  setup.epochs = fit.history.size();

  const double t1 = spans != nullptr ? spans->now_us() : 0.0;
  watch.reset();
  setup.bfn = make_bfn(setup.subject);
  setup.bfn_s = watch.seconds();
  if (spans != nullptr) {
    const double t2 = spans->now_us();
    spans->add({"setup.train", spans->reserve_id(), 0, t0, t1, thread_tag()});
    spans->add({"setup.bfn", spans->reserve_id(), 0, t1, t2, thread_tag()});
  }
  return setup;
}

}  // namespace bdlfi::campaign_bench
