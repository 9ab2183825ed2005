// Float32 vs int8 fault resilience (the accelerator-deployment question the
// paper's §I motivates: models run on embedded accelerators, whose weight
// memories usually hold int8). Sweeps the per-bit flip probability over both
// representations of the same trained MLP and reports deviation-from-golden,
// plus the detected (NaN/Inf) channel that only the float format exhibits.
#include "common.h"
#include "inject/random_fi.h"
#include "quant/convert.h"
#include "util/ascii_plot.h"

using namespace bdlfi;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  util::Stopwatch total;

  bench::MlpSetup setup = bench::make_trained_moons_mlp(flags);
  nn::Network qnet = quant::quantize_network(setup.net);

  bayes::BayesianFaultNetwork float_net(
      setup.net, bayes::TargetSpec::weights_only(),
      fault::AvfProfile::uniform(), setup.test.inputs, setup.test.labels);
  bayes::BayesianFaultNetwork quant_net(
      qnet, bayes::TargetSpec::weights_only(), fault::AvfProfile::uniform(),
      setup.test.inputs, setup.test.labels);
  std::printf("golden error: float %.2f%%, int8 %.2f%% (quantization cost "
              "%.2fpp)\n\n",
              float_net.golden_error(), quant_net.golden_error(),
              quant_net.golden_error() - float_net.golden_error());

  const std::size_t injections = flags.get("injections", std::size_t{400});
  util::Table table({"p", "float_deviation_%", "float_detected_%",
                     "int8_deviation_%", "int8_detected_%"});
  util::Series float_series{"float32", {}, {}, 'f'};
  util::Series int8_series{"int8", {}, {}, 'q'};
  for (double p : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}) {
    inject::RandomFiConfig fi;
    fi.injections = injections;
    fi.seed = 130;
    const auto f = inject::run_random_fi(float_net, p, fi);
    fi.seed = 131;
    const auto q = inject::run_random_fi(quant_net, p, fi);
    table.row()
        .col(p)
        .col(f.mean_deviation)
        .col(f.mean_detected)
        .col(q.mean_deviation)
        .col(q.mean_detected);
    float_series.xs.push_back(p);
    float_series.ys.push_back(f.mean_deviation);
    int8_series.xs.push_back(p);
    int8_series.ys.push_back(q.mean_deviation);
  }
  std::printf("=== float32 vs int8 weight-fault resilience (%zu injections "
              "per point) ===\n\n",
              injections);
  bench::emit(table, "tab_quantized");

  util::PlotOptions opt;
  opt.log_x = true;
  opt.title = "deviation from golden vs flip probability";
  opt.x_label = "flip probability p";
  opt.y_label = "deviation (%)";
  std::printf("%s\n", util::render_plot({float_series, int8_series}, opt)
                          .c_str());
  std::printf("int8's worst single-bit upset moves a weight by 128 "
              "quantization steps; float32's moves it by up to ~2^96 in "
              "magnitude — hence the int8 curve stays near golden far "
              "longer and never trips the NaN/Inf detector.\n");
  std::printf("[tab_quantized done in %.1fs]\n", total.seconds());
  return 0;
}
