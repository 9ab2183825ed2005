// Cross-architecture resilience: the paper evaluates an MLP and ResNet-18;
// this table extends the comparison with VGG-11 (plain convolutional, no
// skip connections) on the same dataset family. Reported per architecture:
// golden accuracy, weight-fault error at two rates (normalized per-bit and
// matched expected-upset dose), and the adversarial bits-to-break.
#include "bayes/critical.h"
#include "common.h"
#include "data/cifar_like.h"
#include "inject/random_fi.h"

using namespace bdlfi;

namespace {

struct Subject {
  std::string name;
  nn::Network net;
  double test_accuracy;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  util::Stopwatch total;

  // Shared 32×32 dataset (VGG-11's pooling stack needs the full size).
  data::CifarLikeConfig dc;
  dc.samples_per_class = flags.get("samples-per-class", std::size_t{40});
  dc.image_size = 32;
  util::Rng data_rng{150};
  data::Dataset all = data::make_cifar_like(dc, data_rng);
  data::Split split = data::split_dataset(all, 0.8, data_rng);
  const std::size_t eval_n = std::min<std::size_t>(48, split.test.size());
  data::Dataset eval = split.test.slice(0, eval_n);

  train::TrainConfig tc;
  tc.epochs = flags.get("epochs", std::size_t{4});
  tc.batch_size = 32;
  tc.lr = 0.02;
  tc.seed = 151;

  std::vector<Subject> subjects;
  {
    util::Rng init{152};
    nn::ResNetConfig rc;
    rc.width_multiplier = flags.get("width", 0.125);
    Subject s{"resnet18", nn::make_resnet18(rc, init), 0.0};
    s.test_accuracy =
        train::fit(s.net, split.train, split.test, tc).final_test_accuracy;
    subjects.push_back(std::move(s));
  }
  {
    util::Rng init{153};
    nn::VggConfig vc;
    vc.width_multiplier = flags.get("width", 0.125);
    vc.image_size = 32;
    Subject s{"vgg11", nn::make_vgg11(vc, init), 0.0};
    s.test_accuracy =
        train::fit(s.net, split.train, split.test, tc).final_test_accuracy;
    subjects.push_back(std::move(s));
  }
  {
    // Pixel-flattening MLP baseline.
    util::Rng init{154};
    Subject s{"mlp_3072-64",
              nn::make_mlp({3 * 32 * 32, 64, 10}, init), 0.0};
    // Flatten images for the MLP: reuse the same data reshaped.
    data::Dataset flat_train = split.train;
    flat_train.inputs = flat_train.inputs.reshaped(tensor::Shape{
        static_cast<std::int64_t>(flat_train.size()), 3 * 32 * 32});
    data::Dataset flat_test = split.test;
    flat_test.inputs = flat_test.inputs.reshaped(tensor::Shape{
        static_cast<std::int64_t>(flat_test.size()), 3 * 32 * 32});
    s.test_accuracy =
        train::fit(s.net, flat_train, flat_test, tc).final_test_accuracy;
    subjects.push_back(std::move(s));
  }

  const std::size_t injections = flags.get("injections", std::size_t{60});
  util::Table table({"architecture", "params", "golden_acc_%", "dev_%@p=1e-6",
                     "dev_%@dose=10flips", "adversarial_flips_to_50%"});
  for (auto& subject : subjects) {
    const bool is_mlp = subject.name.rfind("mlp", 0) == 0;
    tensor::Tensor inputs = eval.inputs;
    if (is_mlp) {
      inputs = inputs.reshaped(tensor::Shape{
          static_cast<std::int64_t>(eval.size()), 3 * 32 * 32});
    }
    bayes::BayesianFaultNetwork bfn(subject.net,
                                    bayes::TargetSpec::all_parameters(),
                                    fault::AvfProfile::uniform(), inputs,
                                    eval.labels);
    inject::RandomFiConfig fi;
    fi.injections = injections;
    fi.seed = 155;
    const auto fixed_rate = inject::run_random_fi(bfn, 1e-6, fi);
    // Matched dose: p chosen so E[flips] = 10 regardless of model size.
    const double dose_p =
        10.0 / static_cast<double>(bfn.space().total_bits());
    const auto fixed_dose = inject::run_random_fi(bfn, dose_p, fi);

    bayes::CriticalBitConfig crit;
    crit.target_deviation = 50.0;
    crit.candidates_per_round = 96;
    crit.max_flips = 25;
    crit.seed = 156;
    const auto worst = bayes::find_critical_bits(bfn, crit);
    // A search that missed the target reports a lower bound, ">N".
    std::string worst_flips = worst.reached_target ? "" : ">";
    worst_flips += std::to_string(worst.mask.num_flips());

    table.row()
        .col(subject.name)
        .col(static_cast<std::size_t>(subject.net.num_params()))
        .col(100.0 * subject.test_accuracy)
        .col(fixed_rate.mean_deviation)
        .col(fixed_dose.mean_deviation)
        .col(worst_flips);
  }
  std::printf("=== Cross-architecture weight-fault resilience ===\n\n");
  bench::emit(table, "tab_architectures");
  std::printf("at a fixed per-bit rate bigger models absorb more upsets; at "
              "a matched 10-flip dose the comparison isolates architectural "
              "effects (skip connections, width, depth).\n");
  std::printf("[tab_architectures done in %.1fs]\n", total.seconds());
  return 0;
}
