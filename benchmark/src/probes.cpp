#include "probes.h"

#include <algorithm>
#include <cstdio>

#include "tensor/ops.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace bdlfi::campaign_bench {

namespace {

/// Calls `fn` at least `min_reps` times and until `budget_s` has passed (at
/// most `max_reps`); returns each call's milliseconds.
template <typename Fn>
util::SampleSet time_ms(Fn&& fn, std::size_t min_reps, std::size_t max_reps,
                        double budget_s) {
  util::SampleSet ms;
  util::Stopwatch total;
  while (ms.count() < max_reps &&
         (ms.count() < min_reps || total.seconds() < budget_s)) {
    util::Stopwatch one;
    fn();
    ms.add(one.millis());
  }
  return ms;
}

/// Multiply-adds x2 of one top-level layer's GEMM-bearing weights, given the
/// layer's output shape: a rank-4 (conv) weight runs once per output pixel,
/// a rank-2 (dense) weight once per row. Every conv inside a residual block
/// produces the block's output resolution.
double layer_flops(nn::Layer& layer, const tensor::Shape& out) {
  std::vector<nn::ParamRef> params;
  layer.collect_params("", params);
  const double rows = static_cast<double>(out[0]);
  const double pixels =
      out.rank() == 4 ? static_cast<double>(out[2] * out[3]) : 1.0;
  double flops = 0.0;
  for (const nn::ParamRef& p : params) {
    if (p.role != nn::ParamRole::kWeight) continue;
    const double n = static_cast<double>(p.value->numel());
    if (p.value->shape().rank() == 4) flops += 2.0 * n * pixels * rows;
    if (p.value->shape().rank() == 2) flops += 2.0 * n * rows;
  }
  return flops;
}

}  // namespace

MetricSet probe_bayes(bayes::BayesianFaultNetwork& golden,
                      const mcmc::CampaignResult& recorded,
                      bayes::BayesianFaultNetwork& reference,
                      OpLedger& ledger) {
  std::vector<fault::FaultMask> masks;
  std::vector<double> errors, deviations;
  for (const mcmc::ChainResult& c : recorded.chains) {
    masks.insert(masks.end(), c.mask_samples.begin(), c.mask_samples.end());
    errors.insert(errors.end(), c.error_samples.begin(),
                  c.error_samples.end());
    deviations.insert(deviations.end(), c.deviation_samples.begin(),
                      c.deviation_samples.end());
  }
  constexpr std::size_t kBatch = 8;
  const bayes::EvalStats before = golden.eval_stats();
  std::vector<bayes::MaskOutcome> replayed;
  util::SampleSet call_ms;
  std::size_t batched = 0;
  for (std::size_t i = 0; i < masks.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, masks.size() - i);
    util::Stopwatch watch;
    bayes::EvalOutcome out = golden.evaluate(
        {std::span<const fault::FaultMask>(masks.data() + i, n), kBatch});
    call_ms.add(watch.millis());
    batched += out.batched;
    replayed.insert(replayed.end(), out.outcomes.begin(), out.outcomes.end());
  }
  const bayes::EvalStats& after = golden.eval_stats();

  check_outcomes(reference, masks, replayed, ledger);
  check_recorded(replayed, errors, deviations, ledger);

  double total_ms = 0.0;
  for (double ms : call_ms.samples()) total_ms += ms;
  double flips = 0.0;
  for (const bayes::MaskOutcome& o : replayed) {
    flips += static_cast<double>(o.flipped_bits);
  }
  const double n = static_cast<double>(std::max<std::size_t>(masks.size(), 1));
  const auto full = static_cast<double>(after.full_evals - before.full_evals);
  const auto truncated =
      static_cast<double>(after.truncated_evals - before.truncated_evals);
  const auto run = static_cast<double>(after.layers_run - before.layers_run);
  const auto total =
      static_cast<double>(after.layers_total - before.layers_total);

  MetricSet m;
  m["bayes.evaluate_calls"] = {static_cast<double>(call_ms.count()), "count"};
  m["bayes.evaluate_s"] = {1e-3 * total_ms, "s"};
  m["bayes.evaluate_ms.p50"] = {call_ms.quantile(0.50), "ms"};
  m["bayes.evaluate_ms.p99"] = {call_ms.quantile(0.99), "ms"};
  m["bayes.evals_per_s"] = {
      total_ms > 0.0 ? static_cast<double>(masks.size()) / (1e-3 * total_ms)
                     : 0.0,
      "1/s"};
  m["bayes.batched_frac"] = {static_cast<double>(batched) / n, "ratio"};
  m["bayes.truncated_frac"] = {
      full + truncated > 0.0 ? truncated / (full + truncated) : 0.0, "ratio"};
  m["bayes.layers_saved_pct"] = {
      total > 0.0 ? 100.0 * (total - run) / total : 0.0, "%"};
  m["bayes.layers_per_eval"] = {run / n, "count"};
  m["bayes.mean_flips"] = {flips / n, "count"};
  return m;
}

MetricSet probe_replicate(const bayes::BayesianFaultNetwork& golden) {
  const util::SampleSet ms =
      time_ms([&] { (void)golden.replicate(); }, 5, 50, 0.3);
  return {{"mcmc.replicate_ms", {ms.median(), "ms"}}};
}

MetricSet probe_nn(nn::Network& net, const tensor::Tensor& inputs,
                   double gemm_peak_gflops, std::string* table) {
  for (int i = 0; i < 3; ++i) (void)net.forward_view(0, inputs);  // plan
  const util::SampleSet forward_ms =
      time_ms([&] { (void)net.forward_view(0, inputs); }, 20, 5000, 0.5);

  // Layer by layer on the golden activations.
  double flops = 0.0, layer_sum_ms = 0.0, layer_max_ms = 0.0;
  char line[160];
  std::snprintf(line, sizeof line, "%-12s %-10s %12s %14s %10s\n", "layer",
                "kind", "median_ms", "mflop", "gflop/s");
  table->assign(line);
  tensor::Tensor act = inputs;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    tensor::Tensor out = layer.forward(act, false);
    const double med =
        time_ms([&] { (void)layer.forward(act, false); }, 5, 1000, 0.1)
            .median();
    const double f = layer_flops(layer, out.shape());
    flops += f;
    layer_sum_ms += med;
    layer_max_ms = std::max(layer_max_ms, med);
    std::snprintf(line, sizeof line, "%-12s %-10s %12.4f %14.3f %10.3f\n",
                  net.layer_name(i).c_str(), net.layer_kind(i).c_str(), med,
                  f * 1e-6, med > 0.0 ? f / (med * 1e6) : 0.0);
    table->append(line);
    act = std::move(out);
  }

  const double forward_p50 = forward_ms.quantile(0.50);
  const double gflops = forward_p50 > 0.0 ? flops / (forward_p50 * 1e6) : 0.0;
  MetricSet m;
  m["nn.forward_ms.p50"] = {forward_p50, "ms"};
  m["nn.forward_ms.p99"] = {forward_ms.quantile(0.99), "ms"};
  m["nn.forward_gflops"] = {gflops, "GFLOP/s"};
  m["nn.frac_of_peak"] = {
      gemm_peak_gflops > 0.0 ? gflops / gemm_peak_gflops : 0.0, "ratio"};
  m["nn.layer_ms.sum"] = {layer_sum_ms, "ms"};
  m["nn.layer_ms.max"] = {layer_max_ms, "ms"};
  return m;
}

double probe_gemm_peak_gflops() {
  constexpr std::int64_t n = 256;
  util::Rng rng{7};
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  const auto gemm = [&] {
    tensor::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
                 c.data(), n);
  };
  gemm();
  const double best_ms = time_ms(gemm, 10, 200, 0.3).quantile(0.0);
  return 2.0 * static_cast<double>(n * n * n) / (best_ms * 1e6);
}

}  // namespace bdlfi::campaign_bench
