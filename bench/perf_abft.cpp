// Measures the wall-clock cost of ABFT row checksums on the forward pass at
// ResNet-18 scale: unchecked vs. detect-only vs. detect+recover, same
// network, same batch, same backend. The checksum adds O(M*K + K*N + M*N)
// work to an O(M*N*K) GEMM, so the relative overhead shrinks as layers get
// wider — the acceptance target is <= 25% total forward overhead for
// detect mode.
//
// Training is deliberately skipped (as in perf_mask_eval): kernel timing is
// independent of the weight values. The timed forwards run in rounds that
// interleave the three modes, and a mode's cost is its fastest forward: load
// that comes and goes on the host then hits every mode alike instead of
// whichever mode happened to run during it. Results go to BENCH_abft.json
// (and the usual CSV). `--smoke` shrinks everything so ctest can exercise
// the path.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "obs/json.h"
#include "tensor/abft.h"
#include "util/rng.h"

using namespace bdlfi;

namespace {

struct ModeTiming {
  std::string mode;
  double seconds = 0.0;         // all timed forwards of this mode
  double best_forward_s = 0.0;  // the fastest one
  double forwards_per_s = 0.0;
  double overhead_pct = 0.0;  // best forward vs. unchecked best forward
  std::size_t checks = 0;
  std::size_t detected_rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool smoke = flags.get("smoke", std::int64_t{0}) != 0;
  const std::string backend = bench::require_backend(
      tensor::backend::resolve(flags.get("backend", "")));
  util::Stopwatch total;

  // Subject: the paper's ResNet-18 topology, scaled by the usual flags.
  nn::ResNetConfig net_config;
  net_config.width_multiplier = flags.get("width", smoke ? 0.0625 : 0.25);
  net_config.num_classes = 10;
  util::Rng init{static_cast<std::uint64_t>(
      flags.get("init-seed", std::int64_t{171}))};
  nn::Network net = nn::make_resnet18(net_config, init);

  data::CifarLikeConfig data_config;
  data_config.image_size = flags.get("image-size", smoke ? std::int64_t{8}
                                                         : std::int64_t{16});
  const std::size_t eval_batch =
      flags.get("eval-batch", smoke ? std::size_t{8} : std::size_t{64});
  data_config.samples_per_class = (eval_batch + 9) / 10 + 1;
  util::Rng data_rng{static_cast<std::uint64_t>(
      flags.get("data-seed", std::int64_t{172}))};
  data::Dataset eval =
      data::make_cifar_like(data_config, data_rng).slice(0, eval_batch);

  const std::size_t reps = std::max<std::size_t>(
      1, flags.get("reps", smoke ? std::size_t{10} : std::size_t{12}));

  std::printf("[setup] kernel backend: %s\n", backend.c_str());
  std::printf("[setup] ResNet-18 (width %.3g, %lldx%lld), eval batch %zu, "
              "%zu timed forwards per mode%s\n",
              net_config.width_multiplier,
              static_cast<long long>(data_config.image_size),
              static_cast<long long>(data_config.image_size), eval_batch,
              reps, smoke ? " [smoke]" : "");

  const tensor::abft::Mode modes[] = {tensor::abft::Mode::kOff,
                                      tensor::abft::Mode::kDetect,
                                      tensor::abft::Mode::kCorrect};
  std::vector<nn::Network> subjects;
  subjects.reserve(std::size(modes));  // warmed networks are never moved
  std::vector<ModeTiming> timings;
  for (const tensor::abft::Mode mode : modes) {
    nn::Network& subject = subjects.emplace_back(net.clone());
    subject.set_abft(tensor::abft::Config{mode, 4.0});
    // Warm-up: page in the checked path before any timed forward.
    (void)subject.forward(eval.inputs, false);
    timings.push_back({.mode = tensor::abft::mode_name(mode)});
  }
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t m = 0; m < subjects.size(); ++m) {
      util::Stopwatch timer;
      (void)subjects[m].forward(eval.inputs, false);
      const double s = timer.seconds();
      ModeTiming& t = timings[m];
      t.seconds += s;
      t.best_forward_s = r == 0 ? s : std::min(t.best_forward_s, s);
    }
  }
  const double base_s = std::max(timings.front().best_forward_s, 1e-9);
  for (std::size_t m = 0; m < subjects.size(); ++m) {
    ModeTiming& t = timings[m];
    t.forwards_per_s = static_cast<double>(reps) / std::max(t.seconds, 1e-9);
    t.overhead_pct = 100.0 * (t.best_forward_s - base_s) / base_s;
    t.checks = subjects[m].abft_stats().checks.load();
    t.detected_rows = subjects[m].abft_stats().detected_rows.load();
  }

  util::Table table({"abft_mode", "seconds", "best_forward_s",
                     "forwards_per_s", "overhead_%", "checks",
                     "detected_rows"});
  for (const auto& t : timings) {
    table.row()
        .col(t.mode)
        .col(t.seconds)
        .col(t.best_forward_s)
        .col(t.forwards_per_s)
        .col(t.overhead_pct)
        .col(t.checks)
        .col(t.detected_rows);
  }
  std::printf("=== perf: forward wall-clock, unchecked vs ABFT-checked "
              "===\n\n");
  bench::emit(table, "perf_abft");

  const double detect_overhead = timings[1].overhead_pct;
  const double correct_overhead = timings[2].overhead_pct;
  std::printf("detect-mode overhead: %.1f%%%s\n", detect_overhead,
              detect_overhead <= 25.0
                  ? "  [target <= 25%: PASS]"
                  : (smoke ? "  [smoke: target not checked]"
                           : "  [target <= 25%: FAIL]"));
  // On a clean network kCorrect never recomputes, so its cost should track
  // kDetect; a large gap means false positives are triggering recovery.
  std::printf("correct-mode overhead: %.1f%% (clean run: recovery idle)\n",
              correct_overhead);

  obs::JsonWriter json;
  json.begin_object();
  json.key("config").begin_object();
  json.field("backend", backend);
  json.field("width", net_config.width_multiplier);
  json.field("image_size", static_cast<std::int64_t>(data_config.image_size));
  json.field("eval_batch", eval_batch);
  json.field("reps", reps);
  json.field("tolerance_scale", 4.0);
  json.field("smoke", smoke);
  json.end_object();
  json.key("modes").begin_array();
  for (const auto& t : timings) {
    json.begin_object();
    json.field("mode", t.mode);
    json.field("seconds", t.seconds);
    json.field("best_forward_s", t.best_forward_s);
    json.field("forwards_per_s", t.forwards_per_s);
    json.field("overhead_pct", t.overhead_pct);
    json.field("checks", t.checks);
    json.field("detected_rows", t.detected_rows);
    json.end_object();
  }
  json.end_array();
  json.key("summary").begin_object();
  json.field("detect_overhead_pct", detect_overhead);
  json.field("correct_overhead_pct", correct_overhead);
  json.field("target_overhead_pct", 25.0);
  json.end_object();
  json.end_object();
  if (!bench::emit_bench_json(json, "abft")) return 1;
  std::printf("[perf_abft done in %.1fs]\n", total.seconds());
  // The smoke run only checks that the pipeline works end to end; the real
  // run enforces the acceptance target.
  return (!smoke && detect_overhead > 25.0) ? 1 : 0;
}
