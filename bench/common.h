// Shared setup for the experiment benches: trained subject networks (the
// paper's MLP and ResNet-18), simple flag parsing, and result output.
//
// Default workload sizes are chosen so each bench finishes in about a minute
// on one CPU core; every knob can be raised from the command line, e.g.
//   ./fig4_resnet_sweep --width=1.0 --image-size=32 --samples-per-class=500
// to run the full-scale configuration of the paper.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/cifar_like.h"
#include "data/toy2d.h"
#include "mcmc/runner.h"
#include "nn/builders.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "tensor/backend/backend.h"
#include "train/trainer.h"
#include "util/csv.h"
#include "util/interrupt.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace bdlfi::bench {

/// --key=value / --key value parser with typed getters. A numeric getter
/// exits 2 (bad usage) on a value that is not a whole number of its type —
/// trailing garbage, an empty value, or a negative count.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        kv_.emplace_back(arg, argv[++i]);
      } else {
        kv_.emplace_back(arg, "1");
      }
    }
  }

  double get(const std::string& key, double fallback) const {
    const std::string* v = find(key);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
      bad_value(key, *v);
    }
    return x;
  }
  std::int64_t get(const std::string& key, std::int64_t fallback) const {
    const std::string* v = find(key);
    return v == nullptr ? fallback : parse_int(key, *v);
  }
  std::size_t get(const std::string& key, std::size_t fallback) const {
    const std::string* v = find(key);
    if (v == nullptr) return fallback;
    const std::int64_t x = parse_int(key, *v);
    if (x < 0) bad_value(key, *v);
    return static_cast<std::size_t>(x);
  }
  std::string get(const std::string& key, const char* fallback) const {
    const std::string* v = find(key);
    return v == nullptr ? fallback : *v;
  }
  bool has(const std::string& key) const { return find(key) != nullptr; }

 private:
  const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  static std::int64_t parse_int(const std::string& key, const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      bad_value(key, v);
    }
    return static_cast<std::int64_t>(x);
  }
  [[noreturn]] static void bad_value(const std::string& key,
                                     const std::string& v) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(), v.c_str());
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Shared observability wiring for the benches: honors the --progress,
/// --metrics=<file.jsonl>, --fsync-metrics, and --trace=<file.json> flags.
/// Attach the round hook to a RunnerConfig to stream per-round campaign
/// health; finish() (or destruction) writes the Chrome trace and the final
/// metrics snapshot.
class ObsSession {
 public:
  ObsSession(const Flags& flags, const std::string& label) {
    trace_path_ = flags.get("trace", "");
    const std::string metrics = flags.get("metrics", "");
    const bool progress = flags.get("progress", std::int64_t{0}) != 0;
    if (progress || !metrics.empty()) {
      obs::CampaignReporter::Options options;
      options.progress = progress;
      options.metrics_path = metrics;
      options.label = label;
      options.fsync = flags.get("fsync-metrics", std::int64_t{0}) != 0;
      // A --layer restriction is the campaign's subject; carried in
      // campaign_begin so merged dashboards can tell single-layer campaigns
      // apart from whole-network ones.
      options.subject = flags.get("layer", "");
      reporter_ = std::make_unique<obs::CampaignReporter>(options);
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder::global().set_enabled(true);
    }
    if (reporter_ != nullptr || !trace_path_.empty()) obs::set_enabled(true);
  }

  ~ObsSession() { finish(); }

  obs::CampaignReporter* reporter() { return reporter_.get(); }

  /// Round hook for mcmc::RunnerConfig (empty when no sink is attached, so
  /// the runner skips event assembly entirely).
  obs::RoundCallback hook() {
    return reporter_ != nullptr ? reporter_->hook() : obs::RoundCallback{};
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (reporter_ != nullptr) reporter_->metrics_event();
    if (!trace_path_.empty()) {
      if (obs::TraceRecorder::global().write(trace_path_)) {
        std::printf("[trace written to %s]\n", trace_path_.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_path_.c_str());
      }
    }
  }

 private:
  std::unique_ptr<obs::CampaignReporter> reporter_;
  std::string trace_path_;
  bool finished_ = false;
};

/// Wires the resilience flags (--round-timeout-ms, --max-chain-retries,
/// --retry-backoff-ms) into the runner config and routes chain-health events
/// to the session reporter when one is attached. Everything defaults to off:
/// with no flags the supervisor adds no clock reads to the sampling loop, so
/// the bench wall-clock matches a build without resilience entirely.
inline void wire_resilience(const Flags& flags, ObsSession& session,
                            mcmc::RunnerConfig& runner) {
  runner.supervisor.round_timeout_ms = flags.get("round-timeout-ms", 0.0);
  runner.supervisor.max_retries =
      flags.get("max-chain-retries", std::size_t{2});
  runner.supervisor.backoff_base_ms = flags.get("retry-backoff-ms", 0.0);
  if (session.reporter() != nullptr) {
    runner.health_hook = session.reporter()->health_hook();
  }
}

/// What parse_campaign_flags resolved, for callers that want to print or
/// record it.
struct CampaignFlags {
  std::string backend;  // name of the kernel backend now active
  std::string checkpoint_dir;
  bool resume = false;
};

/// Resolves a `--backend=scalar|avx2|auto` flag through the shared
/// tensor::backend::resolve() policy (flag beats BDLFI_BACKEND beats scalar)
/// and returns the resolved name. Exits 2 when an explicit flag is unusable —
/// silently falling back would invalidate a backend comparison.
inline std::string require_backend(const tensor::backend::Resolution& r) {
  if (!r.ok) {
    std::fprintf(stderr, "--backend: %s\n", r.error.c_str());
    std::exit(2);
  }
  return r.name;
}

/// One-stop campaign flag wiring, hoisted from the near-identical blocks the
/// fig benches and bdlfi_cli used to copy-paste:
///   --backend=scalar|avx2|auto   kernel backend (via require_backend)
///   --round-timeout-ms / --max-chain-retries / --retry-backoff-ms /
///   --min-acceptance / --max-evals-per-round   chain supervision
///   --checkpoint-dir=<dir> / --resume          crash-safe campaigns (arms
///                                              SIGINT/SIGTERM for a
///                                              graceful stop)
/// Also attaches the session's round/health/checkpoint hooks and stamps the
/// active backend into the reporter's JSONL events.
inline CampaignFlags parse_campaign_flags(const Flags& flags,
                                          ObsSession& session,
                                          mcmc::RunnerConfig& runner) {
  CampaignFlags out;
  out.backend =
      require_backend(tensor::backend::resolve(flags.get("backend", "")));

  runner.round_hook = session.hook();
  wire_resilience(flags, session, runner);
  runner.supervisor.min_acceptance = flags.get("min-acceptance", 0.0);
  runner.supervisor.max_evals_per_round =
      flags.get("max-evals-per-round", std::size_t{0});

  runner.checkpoint_dir = flags.get("checkpoint-dir", "");
  runner.resume = flags.get("resume", std::int64_t{0}) != 0;
  out.checkpoint_dir = runner.checkpoint_dir;
  out.resume = runner.resume;
  // With a checkpoint on disk, Ctrl-C becomes a graceful stop: chains wind
  // down at the next sample, the partial round is discarded, and the last
  // complete round's checkpoint supports --resume.
  if (!runner.checkpoint_dir.empty()) util::install_interrupt_handlers();

  if (obs::CampaignReporter* rep = session.reporter(); rep != nullptr) {
    rep->set_backend(out.backend);
    runner.checkpoint_hook = [rep](std::size_t round,
                                   const std::string& path) {
      rep->checkpoint_saved(round, path);
    };
  }
  return out;
}

/// Shared JSON sink for bench result documents: writes the document built in
/// `w` (a complete object) to BENCH_<name>.json. Replaces per-bench ad-hoc
/// fprintf JSON; the schema per bench is documented in DESIGN.md §6.
inline bool emit_bench_json(const obs::JsonWriter& w, const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string& doc = w.str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fputc('\n', f);
  std::fclose(f);
  if (ok) std::printf("[json written to %s]\n", path.c_str());
  return ok;
}

/// Writes the CSV next to the binary under bench_results/.
inline void emit(const util::Table& table, const std::string& name) {
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/" + name + ".csv";
  table.write_csv(path);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("[csv written to %s]\n\n", path.c_str());
}

struct MlpSetup {
  nn::Network net;
  data::Dataset train;
  data::Dataset test;
  double test_accuracy = 0.0;
};

/// The paper's Fig.-1 subject: a small ReLU MLP trained on a 2-D two-moons
/// problem (2-16-32-2, matching the 32-neuron layer the figure draws).
inline MlpSetup make_trained_moons_mlp(const Flags& flags) {
  util::Stopwatch timer;
  util::Rng data_rng{static_cast<std::uint64_t>(
      flags.get("data-seed", std::int64_t{11}))};
  data::Dataset all = data::make_two_moons(
      flags.get("moons", std::size_t{800}), 0.08, data_rng);
  data::Split split = data::split_dataset(all, 0.75, data_rng);

  util::Rng init{static_cast<std::uint64_t>(
      flags.get("init-seed", std::int64_t{12}))};
  MlpSetup setup{nn::make_mlp({2, 16, 32, 2}, init), std::move(split.train),
                 std::move(split.test)};

  train::TrainConfig config;
  config.epochs = flags.get("epochs", std::size_t{40});
  config.batch_size = 32;
  config.lr = 0.05;
  config.seed = 13;
  config.target_accuracy = 0.99;
  const auto result = train::fit(setup.net, setup.train, setup.test, config);
  setup.test_accuracy = result.final_test_accuracy;
  std::printf("[setup] MLP 2-16-32-2 trained on two-moons: test acc %.1f%% "
              "(%.1fs)\n",
              100.0 * setup.test_accuracy, timer.seconds());
  return setup;
}

struct ResnetSetup {
  nn::Network net;
  data::Dataset train;
  data::Dataset eval;  // injection evaluation batch
  double test_accuracy = 0.0;
  double width = 0.0;
  std::int64_t image_size = 0;
};

/// The paper's second subject: ResNet-18 on a CIFAR-10-like 10-class image
/// problem (procedural substitute; see DESIGN.md). Width/image size are
/// scaled down by default so a single-core campaign stays in bench budget —
/// topology (18 layers, 4 stages, residual skips) is the paper's.
inline ResnetSetup make_trained_resnet(const Flags& flags) {
  util::Stopwatch timer;
  data::CifarLikeConfig data_config;
  data_config.samples_per_class =
      flags.get("samples-per-class", std::size_t{60});
  data_config.image_size = flags.get("image-size", std::int64_t{16});
  util::Rng data_rng{static_cast<std::uint64_t>(
      flags.get("data-seed", std::int64_t{21}))};
  data::Dataset all = data::make_cifar_like(data_config, data_rng);
  data::Split split = data::split_dataset(all, 0.8, data_rng);

  nn::ResNetConfig net_config;
  net_config.width_multiplier = flags.get("width", 0.125);
  net_config.num_classes = 10;
  util::Rng init{static_cast<std::uint64_t>(
      flags.get("init-seed", std::int64_t{22}))};
  ResnetSetup setup{nn::make_resnet18(net_config, init), {}, {}};
  setup.width = net_config.width_multiplier;
  setup.image_size = data_config.image_size;

  train::TrainConfig config;
  config.epochs = flags.get("epochs", std::size_t{5});
  config.batch_size = 32;
  config.lr = 0.02;
  config.seed = 23;
  config.target_accuracy = 0.97;
  const auto result = train::fit(setup.net, split.train, split.test, config);
  setup.test_accuracy = result.final_test_accuracy;

  const std::size_t eval_n =
      std::min(flags.get("eval-batch", std::size_t{64}), split.test.size());
  setup.eval = split.test.slice(0, eval_n);
  setup.train = std::move(split.train);
  std::printf("[setup] ResNet-18 (width %.3g, %lldx%lld) trained on "
              "CifarLike: test acc %.1f%%, %lld params (%.1fs)\n",
              setup.width, static_cast<long long>(setup.image_size),
              static_cast<long long>(setup.image_size),
              100.0 * setup.test_accuracy,
              static_cast<long long>(setup.net.num_params()),
              timer.seconds());
  return setup;
}

}  // namespace bdlfi::bench
