// check_json — validates observability output files.
//
//   check_json file.json            strict single-document JSON
//   check_json --jsonl file.jsonl   one JSON document per non-empty line
//   check_json --trace file.json    Chrome trace: object with a traceEvents
//                                   array of {name, ph, ts, pid, tid} events
//   check_json --checkpoint f.json  bdlfi campaign checkpoint: loaded with
//                                   mcmc::load_checkpoint, the loader
//                                   --resume runs, so "checkpoint validates"
//                                   means "checkpoint loads"
//   check_json --mask-eval f.json   BENCH_mask_eval.json: config + per-layer
//                                   timings and the truncated-replay summary
//   check_json --fleet-spec f.json  bdlfi fleet campaign spec: parsed and
//                                   expanded with the same strict loader the
//                                   fleet runner uses, so "spec validates"
//                                   means "spec runs"
//   check_json --hardening f.json   BENCH_hardening_loop.json: baseline and
//                                   hardened assessment blocks, tuning tally,
//                                   protection-budget frontier (checked to be
//                                   monotone), and the gated summary
//
// Exit 0 on valid input, 1 on malformed input or unreadable file. Used by the
// ctest smoke chain to check that `bdlfi --trace/--metrics` emit what
// DESIGN.md promises, with the same parser the obs tests use.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fleet/spec.h"
#include "mcmc/checkpoint.h"
#include "obs/json.h"

using namespace bdlfi;

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool check_trace(const obs::JsonValue& doc, std::string* error) {
  if (!doc.is_object()) {
    *error = "trace root is not an object";
    return false;
  }
  const obs::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = "missing traceEvents array";
    return false;
  }
  std::size_t index = 0;
  for (const auto& event : events->as_array()) {
    const char* missing = nullptr;
    const obs::JsonValue* name = event.find("name");
    const obs::JsonValue* ph = event.find("ph");
    const obs::JsonValue* ts = event.find("ts");
    const obs::JsonValue* pid = event.find("pid");
    const obs::JsonValue* tid = event.find("tid");
    if (name == nullptr || !name->is_string()) missing = "name";
    else if (ph == nullptr || !ph->is_string()) missing = "ph";
    else if (ts == nullptr || !ts->is_number()) missing = "ts";
    else if (pid == nullptr || !pid->is_number()) missing = "pid";
    else if (tid == nullptr || !tid->is_number()) missing = "tid";
    if (missing != nullptr) {
      *error = "traceEvents[" + std::to_string(index) +
               "]: bad or missing \"" + missing + "\"";
      return false;
    }
    ++index;
  }
  return true;
}

bool is_hex64(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool require_numbers(const obs::JsonValue& obj,
                     std::initializer_list<const char*> keys,
                     const std::string& at, std::string* error) {
  for (const char* key : keys) {
    const obs::JsonValue* v = obj.find(key);
    if (v == nullptr || !v->is_number()) {
      *error = at + ": bad or missing \"" + key + "\"";
      return false;
    }
  }
  return true;
}

/// Validates the perf_mask_eval bench document (DESIGN.md §6/§10): per-layer
/// truncated-replay timings and the summary.
bool check_mask_eval(const obs::JsonValue& doc, std::string* error) {
  if (!doc.is_object()) {
    *error = "mask_eval root is not an object";
    return false;
  }
  const obs::JsonValue* config = doc.find("config");
  if (config == nullptr || !config->is_object()) {
    *error = "missing config object";
    return false;
  }
  if (!require_numbers(*config,
                       {"width", "image_size", "eval_batch", "masks", "reps",
                        "p", "depth"},
                       "config", error)) {
    return false;
  }
  const obs::JsonValue* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array() ||
      layers->as_array().empty()) {
    *error = "missing/empty layers array";
    return false;
  }
  std::size_t index = 0;
  for (const auto& layer : layers->as_array()) {
    const std::string at = "layers[" + std::to_string(index) + "]";
    const obs::JsonValue* name = layer.find("name");
    if (name == nullptr || !name->is_string()) {
      *error = at + ": bad or missing \"name\"";
      return false;
    }
    if (!require_numbers(layer,
                         {"layer_index", "params", "evals", "full_evals_per_s",
                          "truncated_evals_per_s", "speedup",
                          "layers_saved_pct"},
                         at, error)) {
      return false;
    }
    ++index;
  }
  const obs::JsonValue* summary = doc.find("summary");
  if (summary == nullptr || !summary->is_object() ||
      !require_numbers(*summary,
                       {"overall_speedup", "last_third_speedup",
                        "last_third_begin"},
                       "summary", error)) {
    if (error->empty()) *error = "missing summary object";
    return false;
  }
  return true;
}

/// Validates the tab_hardening_loop bench document (DESIGN.md §6/§14):
/// baseline/hardened assessment blocks, the tuning tally, the protection-
/// budget frontier (structurally monotone in both budget and coverage), and
/// the gated summary.
bool check_hardening(const obs::JsonValue& doc, std::string* error) {
  if (!doc.is_object()) {
    *error = "hardening root is not an object";
    return false;
  }
  const obs::JsonValue* config = doc.find("config");
  if (config == nullptr || !config->is_object() ||
      !require_numbers(*config,
                       {"p", "injections", "chains", "round_samples",
                        "tune_epochs", "inject_prob", "budget"},
                       "config", error)) {
    if (error->empty()) *error = "missing config object";
    return false;
  }
  const obs::JsonValue* baseline = doc.find("baseline");
  if (baseline == nullptr || !baseline->is_object() ||
      !require_numbers(*baseline,
                       {"sdc_rate_pct", "detection_coverage_pct",
                        "mean_deviation_pct", "clean_accuracy_pct"},
                       "baseline", error)) {
    if (error->empty()) *error = "missing baseline object";
    return false;
  }
  const obs::JsonValue* campaign = doc.find("campaign");
  if (campaign == nullptr || !campaign->is_object() ||
      !require_numbers(*campaign,
                       {"profile_samples", "profile_flips",
                        "mean_deviation_before_pct",
                        "mean_deviation_after_pct"},
                       "campaign", error)) {
    if (error->empty()) *error = "missing campaign object";
    return false;
  }
  const obs::JsonValue* tuning = doc.find("tuning");
  if (tuning == nullptr || !tuning->is_object() ||
      !require_numbers(*tuning,
                       {"batches_injected", "flips_injected",
                        "updates_skipped", "final_test_accuracy_pct"},
                       "tuning", error)) {
    if (error->empty()) *error = "missing tuning object";
    return false;
  }
  const obs::JsonValue* hardened = doc.find("hardened");
  const obs::JsonValue* deployed =
      hardened != nullptr && hardened->is_object() ? hardened->find("deployed")
                                                   : nullptr;
  if (deployed == nullptr || !deployed->is_object() ||
      !require_numbers(*deployed,
                       {"sdc_rate_pct", "clean_accuracy_pct", "guard_layers",
                        "abft_layers"},
                       "hardened.deployed", error)) {
    if (error->empty()) *error = "missing hardened.deployed object";
    return false;
  }
  const obs::JsonValue* frontier = doc.find("frontier");
  if (frontier == nullptr || !frontier->is_array() ||
      frontier->as_array().empty()) {
    *error = "missing/empty frontier array";
    return false;
  }
  double prev_budget = -1.0, prev_coverage = -1.0;
  std::size_t index = 0;
  for (const auto& point : frontier->as_array()) {
    const std::string at = "frontier[" + std::to_string(index) + "]";
    if (!require_numbers(point, {"budget", "coverage", "overhead", "guards"},
                         at, error)) {
      return false;
    }
    const double budget = point.find("budget")->as_number();
    const double coverage = point.find("coverage")->as_number();
    if (budget < prev_budget) {
      *error = at + ": budgets must be non-decreasing";
      return false;
    }
    // The budget frontier's contract (and the bench's non-smoke gate): more
    // budget never buys less posterior-mass coverage.
    if (coverage < prev_coverage - 1e-9) {
      *error = at + ": coverage decreased with budget (frontier not monotone)";
      return false;
    }
    prev_budget = budget;
    prev_coverage = coverage;
    ++index;
  }
  const obs::JsonValue* summary = doc.find("summary");
  if (summary == nullptr || !summary->is_object() ||
      !require_numbers(*summary,
                       {"sdc_before_pct", "sdc_after_pct",
                        "sdc_reduction_pct", "sdc_remaining_pct",
                        "clean_acc_delta_pct", "clean_acc_drop_pct"},
                       "summary", error)) {
    if (error->empty()) *error = "missing summary object";
    return false;
  }
  const obs::JsonValue* remaining = summary->find("sdc_remaining_pct");
  if (!(remaining->as_number() > 0.0)) {
    *error = "summary.sdc_remaining_pct must be positive (bench_track "
             "headline)";
    return false;
  }
  for (const char* key : {"frontier_monotone", "gate_enforced"}) {
    const obs::JsonValue* v = summary->find(key);
    if (v == nullptr || !v->is_bool()) {
      *error = std::string("summary: bad or missing \"") + key + "\"";
      return false;
    }
  }
  return true;
}

/// Second pass over an already-jsonl_valid stream: every campaign event must
/// carry the flight-recorder envelope (16-hex campaign_id plus a strictly
/// increasing per-file seq), round events the numeric fault-outcome taxonomy
/// and throughput fields, and campaign_end its convergence verdict
/// (DESIGN.md §6/§9/§11).
bool check_round_events(const std::string& text, std::string* error) {
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t last_seq = 0;
  bool seq_seen = false;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string parse_error;
    const auto doc = obs::json_parse(line, &parse_error);
    if (!doc.has_value() || !doc->is_object()) continue;  // jsonl_valid passed
    const obs::JsonValue* event = doc->find("event");
    if (event == nullptr || !event->is_string()) continue;
    const std::string at = "line " + std::to_string(line_no);

    const obs::JsonValue* id = doc->find("campaign_id");
    if (id == nullptr || !id->is_string() || !is_hex64(id->as_string())) {
      *error = at + ": \"" + event->as_string() +
               "\" event: campaign_id must be 16 lowercase hex digits";
      return false;
    }
    const obs::JsonValue* seq = doc->find("seq");
    if (seq == nullptr || !seq->is_number() || seq->as_number() < 1) {
      *error = at + ": \"" + event->as_string() +
               "\" event has bad or missing \"seq\"";
      return false;
    }
    const auto s = static_cast<std::uint64_t>(seq->as_number());
    if (seq_seen && s <= last_seq) {
      *error = at + ": seq " + std::to_string(s) +
               " not strictly increasing (previous " +
               std::to_string(last_seq) + ")";
      return false;
    }
    seq_seen = true;
    last_seq = s;

    const auto require_number = [&](const char* key) {
      const obs::JsonValue* v = doc->find(key);
      if (v != nullptr && v->is_number()) return true;
      *error = at + ": \"" + event->as_string() +
               "\" event has bad or missing \"" + key + "\"";
      return false;
    };
    const auto require_string = [&](const char* key) {
      const obs::JsonValue* v = doc->find(key);
      if (v != nullptr && v->is_string() && !v->as_string().empty()) {
        return true;
      }
      *error = at + ": \"" + event->as_string() +
               "\" event has bad or missing \"" + key + "\"";
      return false;
    };

    if (event->as_string() == "round") {
      for (const char* key :
           {"detection_coverage", "sdc_rate", "outcome_masked", "outcome_sdc",
            "outcome_detected", "outcome_corrected", "evals_per_sec_ewma",
            "eta_s", "rounds_budget"}) {
        const obs::JsonValue* v = doc->find(key);
        if (v == nullptr || !v->is_number()) {
          *error = at + ": round event has bad or missing \"" + key + "\"";
          return false;
        }
      }
    } else if (event->as_string() == "campaign_end") {
      const obs::JsonValue* converged = doc->find("converged");
      if (converged == nullptr || !converged->is_bool()) {
        *error = at + ": campaign_end has bad or missing \"converged\"";
        return false;
      }
      const obs::JsonValue* rounds = doc->find("rounds");
      if (rounds == nullptr || !rounds->is_number()) {
        *error = at + ": campaign_end has bad or missing \"rounds\"";
        return false;
      }
    } else if (event->as_string() == "worker_start") {
      // Fleet worker lifecycle events (DESIGN.md §12): every one names its
      // campaign and carries the worker pid + 1-based launch attempt.
      if (!require_string("campaign") || !require_number("pid") ||
          !require_number("attempt")) {
        return false;
      }
    } else if (event->as_string() == "worker_exit") {
      if (!require_string("campaign") || !require_number("pid") ||
          !require_number("attempt") || !require_number("exit_code") ||
          !require_number("signal") || !require_number("rounds") ||
          !require_string("outcome")) {
        return false;
      }
    } else if (event->as_string() == "worker_restart") {
      if (!require_string("campaign") || !require_number("attempt") ||
          !require_number("backoff_ms") || !require_string("reason")) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false, trace = false, checkpoint = false, mask_eval = false;
  bool fleet_spec = false, hardening = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint = true;
    } else if (std::strcmp(argv[i], "--mask-eval") == 0) {
      mask_eval = true;
    } else if (std::strcmp(argv[i], "--fleet-spec") == 0) {
      fleet_spec = true;
    } else if (std::strcmp(argv[i], "--hardening") == 0) {
      hardening = true;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr ||
      (static_cast<int>(jsonl) + static_cast<int>(trace) +
           static_cast<int>(checkpoint) + static_cast<int>(mask_eval) +
           static_cast<int>(fleet_spec) + static_cast<int>(hardening) >
       1)) {
    std::fprintf(
        stderr,
        "usage: check_json [--jsonl|--trace|--checkpoint|--mask-eval|"
        "--fleet-spec|--hardening] <file>\n");
    return 2;
  }

  if (fleet_spec) {
    // The validator IS the runner's loader: no second schema to drift.
    std::string error;
    const auto spec = fleet::load_fleet_spec(path, &error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
    std::printf("%s: OK (%zu campaign(s) after expansion, fleet id %s)\n",
                path, spec->campaigns.size(), spec->id.c_str());
    return 0;
  }

  if (checkpoint) {
    // Likewise the checkpoint validator is the loader --resume runs.
    std::string error;
    const auto ck = mcmc::load_checkpoint(path, &error);
    if (!ck.has_value()) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
    std::printf("%s: OK (%zu chain(s), %zu round(s))\n", path,
                ck->chains.size(), ck->rounds_completed);
    return 0;
  }

  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "check_json: cannot read %s\n", path);
    return 1;
  }

  std::string error;
  if (jsonl) {
    if (!obs::jsonl_valid(text, &error) || !check_round_events(text, &error)) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
  } else {
    const auto doc = obs::json_parse(text, &error);
    if (!doc.has_value()) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
    if (trace && !check_trace(*doc, &error)) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
    if (mask_eval && !check_mask_eval(*doc, &error)) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
    if (hardening && !check_hardening(*doc, &error)) {
      std::fprintf(stderr, "check_json: %s: %s\n", path, error.c_str());
      return 1;
    }
  }
  std::printf("%s: OK\n", path);
  return 0;
}
