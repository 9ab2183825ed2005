// Activation-fault campaign companion to Fig. 3: the paper's fault model also
// covers "inputs, intermediate activations and outputs"; this bench injects
// bit flips into the network input and into each layer's output activation
// in flight (the input and activation fault sites of BayesianFaultNetwork,
// replayed from the golden activation cache — the no-system-support
// injection path of §I) and reports per-layer output error, on the ResNet-18
// subject.
#include "common.h"
#include "inject/activation.h"
#include "util/ascii_plot.h"

using namespace bdlfi;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  util::Stopwatch total;

  bench::ResnetSetup setup = bench::make_trained_resnet(flags);

  inject::ActivationCampaignConfig config;
  config.p = flags.get("p", 1e-4);
  config.injections = flags.get("injections", std::size_t{20});
  config.seed = 111;

  const auto points = inject::run_activation_campaign(
      setup.net, setup.eval.inputs, setup.eval.labels, config);

  std::printf("=== Activation faults, layer by layer (ResNet-18, p = %.2g, "
              "%zu injections/layer) ===\n\n",
              config.p, config.injections);
  util::Table table({"layer_idx", "name", "kind", "act_numel", "mean_error_%",
                     "deviation_%", "detected_%", "mean_flips"});
  util::Series series{"activation-fault error", {}, {}, '*'};
  for (const auto& pt : points) {
    table.row()
        .col(static_cast<int>(pt.layer_index))
        .col(pt.layer_name)
        .col(pt.layer_kind)
        .col(static_cast<std::size_t>(pt.activation_numel))
        .col(pt.mean_error)
        .col(pt.mean_deviation)
        .col(pt.mean_detected)
        .col(pt.mean_flips);
    series.xs.push_back(static_cast<double>(pt.layer_index));
    series.ys.push_back(pt.mean_error);
  }
  bench::emit(table, "tab_activation_layers");

  util::PlotOptions opt;
  opt.title = "activation-fault error vs layer (input = -1)";
  opt.x_label = "layer index";
  opt.y_label = "classification error (%)";
  std::printf("%s\n", util::render_plot({series}, opt).c_str());
  std::printf("transient activation faults wash out once their tensor leaves "
              "scope; unlike weight faults they hit one inference, and "
              "late-layer hits leave no room for masking — compare with the "
              "weight-fault profile of fig3.\n");
  std::printf("[tab_activation_layers done in %.1fs]\n", total.seconds());
  return 0;
}
