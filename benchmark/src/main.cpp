// Campaign benchmark: time to a finished fixed-size MCMC campaign.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke]
//
// Sets the subject up, then runs fixed-size mcmc::run_until_complete
// campaigns back to back until the next one would end past --seconds of
// campaign time, verifying each against the reference path. The set-up is
// repeated between campaigns; setup_s is the median. --seconds bounds the
// summed campaign time only: set-ups, verification and probes come on top.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// campaigns instrumented, then the layer probes, and reports the per-layer
// metrics. Prints a table on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 ok, 1 a check failed, 2 bad usage or a refused workload,
// 3 a campaign hung.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "campaign.h"
#include "heap.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "spans.h"
#include "tensor/backend/backend.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "verify.h"
#include "workload.h"

using namespace bdlfi;
using namespace bdlfi::campaign_bench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\nworkloads:",
               error);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed takes a whole number");
  if (!have_seconds) usage("--seconds takes a positive number");
  return args;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Median of each metric over the campaigns of a run.
MetricSet median_by_name(const std::vector<MetricSet>& sets) {
  std::map<std::string, util::SampleSet> values;
  MetricSet out;
  for (const MetricSet& set : sets) {
    for (const auto& [name, metric] : set) {
      values[name].add(metric.value);
      out[name].unit = metric.unit;
    }
  }
  for (const auto& [name, xs] : values) out[name].value = xs.median();
  return out;
}

/// The table on stderr and the result line on stdout.
void print_result(const std::string& title, const MetricSet& metrics,
                  const OpLedger& ledger) {
  std::fprintf(stderr, "\n%s\n%-32s %22s  %s\n", title.c_str(), "metric",
               "value", "unit");
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "%-32s %22.6f  %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "ops attempted %zu, failed %zu (ops_failed_frac %g)\n",
               ledger.attempted, ledger.failed,
               ledger.attempted == 0 ? 0.0
                                     : static_cast<double>(ledger.failed) /
                                           static_cast<double>(ledger.attempted));
  obs::JsonWriter w;
  w.begin_object();
  w.field("correct", ledger.failed == 0 && ledger.attempted > 0);
  w.field("attempted", static_cast<std::uint64_t>(ledger.attempted));
  w.field("failed", static_cast<std::uint64_t>(ledger.failed));
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").number_exact(m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// What the run has measured so far, for the watchdog's report of a hang.
struct Progress {
  std::mutex mu;
  MetricSet metrics;
  OpLedger ledger;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Stopwatch run_watch;
  const Args args = parse(argc, argv);
  const std::unique_ptr<Workload> workload =
      find_workload(args.workload, args.smoke);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  const std::string backend =
      tensor::backend::avx2_supported() ? "avx2" : "scalar";
  tensor::backend::set_active(backend);
  const std::size_t threads = util::ThreadPool::global().size();
  // Each chain runs on a pool worker, and a ResNet chain's conv layers call
  // util::parallel_for on the same pool from inside it. With no worker left
  // over, that nested parallel_for waits forever.
  if (workload->model == Model::kResnet && threads <= workload->chains) {
    std::fprintf(stderr,
                 "campaign_bench: refusing %s: %zu chains need more than %zu "
                 "pool threads, or the nested util::parallel_for of each "
                 "chain's conv layers deadlocks with every worker busy "
                 "running a chain. ResNet campaigns also need width <= 0.125 "
                 "to avoid the nested-parallel_for deadlock in training.\n",
                 workload->name.c_str(), workload->chains, threads);
    return 2;
  }
  std::fprintf(stderr, "# workload %s seed %llu backend %s threads %zu%s\n",
               workload->name.c_str(),
               static_cast<unsigned long long>(args.seed), backend.c_str(),
               threads, args.trace ? " traced" : "");

  std::unique_ptr<SpanLog> spans;
  if (args.trace) {
    spans = std::make_unique<SpanLog>();
    obs::set_enabled(true);
    obs::TraceRecorder::global().set_enabled(true);
  }

  Progress progress;
  Watchdog watchdog(workload->deadline_s, [&] {
    std::lock_guard<std::mutex> lock(progress.mu);
    std::fprintf(stderr,
                 "watchdog: no round finished within %.0f s; the campaign is "
                 "hung (see the nested util::parallel_for deadlock)\n",
                 workload->deadline_s);
    progress.ledger.op(false);
    print_result("partial metrics of a hung run", progress.metrics,
                 progress.ledger);
  });

  // --- set-up: once now, the other repetitions between campaigns, so the
  // median does not rest on one moment of host load. A sample is the mean
  // of setup_batch back-to-back set-ups. ---------------------------------
  util::SampleSet fit_s, bfn_s, setup_s;
  const auto record_set_up = [&]() {
    Setup s;
    double fit = 0.0, bfn = 0.0;
    for (std::size_t i = 0; i < workload->setup_batch; ++i) {
      s = set_up(*workload, spans.get());
      fit += s.fit_s;
      bfn += s.bfn_s;
    }
    const double n = static_cast<double>(workload->setup_batch);
    fit_s.add(fit / n);
    bfn_s.add(bfn / n);
    setup_s.add((fit + bfn) / n);
    std::lock_guard<std::mutex> lock(progress.mu);
    progress.metrics["setup_s"] = {setup_s.median(), "s"};
    return s;
  };
  Setup setup = record_set_up();
  const std::unique_ptr<bayes::BayesianFaultNetwork> reference =
      make_reference(setup.subject);

  HeapPeak heap(std::chrono::milliseconds(100));
  const std::filesystem::path out_dir = "build/benchmark/out";
  std::filesystem::create_directories(out_dir);

  // --- campaigns, back to back for --seconds ------------------------------
  OpLedger ledger;
  util::SampleSet walls, evals_per_s, cpu_util, masked, trace_events, heap_mb;
  std::vector<MetricSet> layers;
  double timed = 0.0, last_wall = 0.0, ess_total = 0.0;
  for (std::size_t k = 0; k == 0 || timed + last_wall <= args.seconds; ++k) {
    CampaignOptions options;
    options.seed = args.seed * 1000 + k;
    options.checkpoint_dir =
        (out_dir / ("ckpt-" + std::to_string(getpid()) + "-" +
                    std::to_string(k)))
            .string();
    options.spans = spans.get();
    heap.reset();
    const CampaignRun run =
        run_campaign(*workload, *setup.bfn, options, watchdog);
    const double campaign_heap_mb = heap.peak_mb();
    heap_mb.add(campaign_heap_mb);
    verify_campaign(run.result, workload->rounds, run.checkpoint_path,
                    *reference, ledger);
    std::filesystem::remove_all(options.checkpoint_dir);

    const mcmc::CampaignResult& pooled = run.result.final_result;
    walls.add(run.wall_s);
    last_wall = run.wall_s;
    timed += run.wall_s;
    ess_total += pooled.diagnostics.ess;
    evals_per_s.add(static_cast<double>(pooled.total_network_evals) /
                    run.wall_s);
    cpu_util.add(run.cpu_s / (run.wall_s * static_cast<double>(threads)));
    masked.add(pooled.total_samples == 0
                   ? 0.0
                   : static_cast<double>(pooled.total_outcome_masked) /
                         static_cast<double>(pooled.total_samples));
    trace_events.add(static_cast<double>(run.trace_events));
    layers.push_back(run.layers);
    std::fprintf(stderr,
                 "campaign %zu: %.3f s, %zu evals, ess %.1f, rounds %zu, "
                 "peak heap %.1f MB, peak rss %.1f MB",
                 k + 1, run.wall_s, pooled.total_network_evals,
                 pooled.diagnostics.ess, run.result.rounds, campaign_heap_mb,
                 peak_rss_mb());
    if (spans != nullptr) {
      std::fprintf(stderr, ", critical path %.3f s (%+.2f%% of wall)",
                   run.critical_path_s,
                   100.0 * (run.critical_path_s / run.wall_s - 1.0));
    }
    std::fprintf(stderr, "\n");
    {
      std::lock_guard<std::mutex> lock(progress.mu);
      progress.metrics["campaign_s"] = {walls.median(), "s"};
      progress.ledger = ledger;
    }
    if (fit_s.count() < workload->setup_reps) (void)record_set_up();
  }
  while (fit_s.count() < workload->setup_reps) (void)record_set_up();
  std::fprintf(stderr,
               "set-up: median %.4f s over %zu samples of %zu; %zu campaigns "
               "in %.1f s\n",
               setup_s.median(), setup_s.count(), workload->setup_batch,
               walls.count(), timed);

  MetricSet metrics;
  if (!args.trace) {
    metrics["campaign_s"] = {walls.median(), "s"};
    metrics["evals_per_s"] = {evals_per_s.median(), "1/s"};
    metrics["setup_s"] = {setup_s.median(), "s"};
    metrics["peak_heap_mb"] = {heap_mb.median(), "MB"};
    std::fprintf(stderr, "run wall-clock %.1f s\n", run_watch.seconds());
    print_result(workload->name + " (untraced)", metrics, ledger);
    return ledger.failed == 0 ? 0 : 1;
  }

  // --- traced run: layer metrics and probes -------------------------------
  metrics = median_by_name(layers);
  metrics["bayes.setup_s"] = {bfn_s.median(), "s"};
  metrics["bayes.masked_frac"] = {masked.median(), "ratio"};
  metrics["train.fit_s"] = {fit_s.median(), "s"};
  metrics["train.epochs"] = {static_cast<double>(setup.epochs), "count"};
  metrics["util.pool_threads"] = {static_cast<double>(threads), "count"};
  metrics["util.cpu_util"] = {cpu_util.median(), "ratio"};
  metrics["mcmc.ess_per_s"] = {ess_total / timed, "1/s"};
  metrics["obs.traced_campaign_s"] = {walls.median(), "s"};
  metrics["obs.trace_events"] = {trace_events.median(), "count"};

  // A short campaign recording its retained masks feeds the replay probe.
  CampaignOptions recording;
  recording.seed = args.seed * 1000 + 999;
  recording.record_masks = true;
  recording.rounds = 1;
  recording.samples_per_round = workload->replay_per_chain;
  const CampaignRun recorded =
      run_campaign(*workload, *setup.bfn, recording, watchdog);
  for (auto& [name, m] :
       probe_bayes(*setup.bfn, recorded.result.final_result, *reference,
                   ledger)) {
    metrics[name] = m;
  }
  for (auto& [name, m] : probe_replicate(*setup.bfn)) metrics[name] = m;
  const double peak = probe_gemm_peak_gflops();
  metrics["tensor.gemm_peak_gflops"] = {peak, "GFLOP/s"};
  std::string layer_table;
  for (auto& [name, m] :
       probe_nn(setup.subject.net, setup.subject.eval.inputs, peak,
                &layer_table)) {
    metrics[name] = m;
  }
  metrics["verify.checked"] = {static_cast<double>(ledger.checks), "count"};
  metrics["verify.mismatches"] = {static_cast<double>(ledger.mismatches),
                                  "count"};

  const std::string stem = (out_dir / (workload->name + "-seed" +
                                       std::to_string(args.seed)))
                               .string();
  const std::string self_table = format_self_times(spans->self_times(), timed);
  if (!spans->write_chrome_trace(stem + ".trace.json")) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
  }
  if (std::FILE* f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
    std::fprintf(f, "%s\nLayer::forward on golden activations\n%s",
                 self_table.c_str(), layer_table.c_str());
    std::fclose(f);
  }
  std::fprintf(stderr,
               "\nself time by span (share of %.3f s campaign time)\n%s\n"
               "Layer::forward on golden activations\n%s"
               "trace: %s.trace.json\n",
               timed, self_table.c_str(), layer_table.c_str(), stem.c_str());
  std::fprintf(stderr, "run wall-clock %.1f s\n", run_watch.seconds());
  print_result(workload->name + " (traced)", metrics, ledger);
  return ledger.failed == 0 ? 0 : 1;
}
