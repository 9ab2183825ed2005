// Bench regression tracking: every BENCH_<name>.json document appends one
// history entry (headline metric + config fingerprint) to a JSONL ledger,
// and new results are compared against the best prior entry recorded for the
// same fingerprint. Grouping by fingerprint means a smoke run never gates
// against a full-scale run, an avx2 result never gates against scalar, and a
// deliberate workload change starts a fresh baseline automatically.
//
// Header-only like the rest of bench/; tools/bench_track is the CLI and the
// ctest wiring lives in bench/CMakeLists.txt.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/stream.h"

namespace bdlfi::bench {

/// One recorded bench result: the headline metric plus enough identity to
/// compare like with like.
struct HistoryEntry {
  std::string bench;        // "kernels" | "abft" | "mask_eval" | ...
  std::string backend;      // from the document's config
  std::string fingerprint;  // hex64 FNV-1a over the serialized config object
  bool smoke = false;
  std::string metric;  // name of the headline metric recorded in `value`
  double value = 0.0;
  bool higher_is_better = true;
  std::uint64_t ts_ms = 0;
};

/// Canonical re-serialization of a parsed JSON value (objects iterate in
/// sorted key order), used to fingerprint bench config objects.
inline void history_serialize(const obs::JsonValue& v, obs::JsonWriter* w) {
  if (v.is_null()) {
    w->null();
  } else if (v.is_bool()) {
    w->boolean(v.as_bool());
  } else if (v.is_number()) {
    w->number_exact(v.as_number());
  } else if (v.is_string()) {
    w->string(v.as_string());
  } else if (v.is_array()) {
    w->begin_array();
    for (const auto& e : v.as_array()) history_serialize(e, w);
    w->end_array();
  } else {
    w->begin_object();
    for (const auto& [k, e] : v.as_object()) {
      w->key(k);
      history_serialize(e, w);
    }
    w->end_object();
  }
}

inline std::string config_fingerprint(const obs::JsonValue& config) {
  obs::JsonWriter w;
  history_serialize(config, &w);
  return obs::hex64(obs::fnv1a64(w.str()));
}

inline double num_at(const obs::JsonValue& obj, const char* key,
                     double fallback = 0.0) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

/// Extracts the headline metric of one BENCH_<name>.json document. Returns
/// nullopt (with a message in `error`) when the document does not carry the
/// fields its bench promises in DESIGN.md §6.
inline std::optional<HistoryEntry> entry_from_bench_doc(
    const obs::JsonValue& doc, const std::string& bench, std::string* error) {
  HistoryEntry entry;
  entry.bench = bench;
  const obs::JsonValue* config = doc.find("config");
  if (config == nullptr || !config->is_object()) {
    if (error != nullptr) *error = bench + ": missing config object";
    return std::nullopt;
  }
  if (const obs::JsonValue* b = config->find("backend");
      b != nullptr && b->is_string()) {
    entry.backend = b->as_string();
  }
  if (const obs::JsonValue* s = config->find("smoke");
      s != nullptr && s->is_bool()) {
    entry.smoke = s->as_bool();
  }
  entry.fingerprint = config_fingerprint(*config);

  const obs::JsonValue* summary = doc.find("summary");
  if (bench == "kernels") {
    // Headline: AVX2 GEMM speedup at the largest size. Scalar-only machines
    // record absolute scalar throughput instead (still comparable run to
    // run: the config fingerprint separates the two populations anyway).
    const obs::JsonValue* avx2 = config->find("avx2_supported");
    if (avx2 != nullptr && avx2->is_bool() && avx2->as_bool() &&
        summary != nullptr) {
      entry.metric = "speedup_n256";
      entry.value = num_at(*summary, "speedup_n256");
    } else {
      const obs::JsonValue* gemm = doc.find("gemm");
      if (gemm == nullptr || !gemm->is_array() || gemm->as_array().empty()) {
        if (error != nullptr) *error = "kernels: missing gemm array";
        return std::nullopt;
      }
      entry.metric = "scalar_gflops";
      entry.value = num_at(gemm->as_array().back(), "scalar_gflops");
    }
    entry.higher_is_better = true;
  } else if (bench == "abft") {
    if (summary == nullptr) {
      if (error != nullptr) *error = "abft: missing summary object";
      return std::nullopt;
    }
    entry.metric = "detect_overhead_pct";
    entry.value = num_at(*summary, "detect_overhead_pct");
    entry.higher_is_better = false;
  } else if (bench == "mask_eval") {
    // Headline: the truncated-replay speedup over full forwards.
    if (summary == nullptr) {
      if (error != nullptr) *error = "mask_eval: missing summary object";
      return std::nullopt;
    }
    entry.metric = "overall_speedup";
    entry.value = num_at(*summary, "overall_speedup");
    entry.higher_is_better = true;
  } else if (bench == "hardening_loop") {
    // Headline: SDC remaining after hardening as % of the unhardened rate
    // (the bench floors it at 0.1 so a perfect run still records a positive
    // value). Lower is better — a regression here means hardening got worse.
    if (summary == nullptr) {
      if (error != nullptr) *error = "hardening_loop: missing summary object";
      return std::nullopt;
    }
    entry.metric = "sdc_remaining_pct";
    entry.value = num_at(*summary, "sdc_remaining_pct");
    entry.higher_is_better = false;
  } else {
    // Unknown bench: record the generic summary.overall_speedup if present,
    // so new benches join the ledger without touching this switch.
    if (summary == nullptr) {
      if (error != nullptr) *error = bench + ": missing summary object";
      return std::nullopt;
    }
    entry.metric = "overall_speedup";
    entry.value = num_at(*summary, "overall_speedup");
    entry.higher_is_better = true;
  }
  if (!(entry.value > 0.0) || !std::isfinite(entry.value)) {
    if (error != nullptr) {
      *error = bench + ": headline metric \"" + entry.metric +
               "\" missing or non-positive";
    }
    return std::nullopt;
  }
  return entry;
}

inline std::string entry_to_json(const HistoryEntry& e) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", e.bench);
  w.field("backend", e.backend);
  w.field("fingerprint", e.fingerprint);
  w.field("smoke", e.smoke);
  w.field("metric", e.metric);
  w.field("value", e.value);
  w.field("higher_is_better", e.higher_is_better);
  w.field("ts_ms", e.ts_ms);
  w.end_object();
  return w.str();
}

/// Loads the JSONL ledger; malformed lines are skipped (a torn tail from a
/// killed run must not wedge the tracker), counted in `skipped` when given.
inline std::vector<HistoryEntry> load_history(const std::string& path,
                                              std::size_t* skipped = nullptr) {
  std::vector<HistoryEntry> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto doc = obs::json_parse(line);
    if (!doc.has_value() || !doc->is_object()) {
      if (skipped != nullptr) ++*skipped;
      continue;
    }
    HistoryEntry e;
    const auto str = [&doc](const char* key) -> std::string {
      const obs::JsonValue* v = doc->find(key);
      return v != nullptr && v->is_string() ? v->as_string() : "";
    };
    e.bench = str("bench");
    e.backend = str("backend");
    e.fingerprint = str("fingerprint");
    e.metric = str("metric");
    e.value = num_at(*doc, "value");
    if (const obs::JsonValue* v = doc->find("smoke");
        v != nullptr && v->is_bool()) {
      e.smoke = v->as_bool();
    }
    if (const obs::JsonValue* v = doc->find("higher_is_better");
        v != nullptr && v->is_bool()) {
      e.higher_is_better = v->as_bool();
    }
    e.ts_ms = static_cast<std::uint64_t>(num_at(*doc, "ts_ms"));
    if (e.bench.empty() || e.fingerprint.empty() || !(e.value > 0.0)) {
      if (skipped != nullptr) ++*skipped;
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

inline bool append_history(const std::string& path, const HistoryEntry& e) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const std::string line = entry_to_json(e) + "\n";
  const bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  std::fclose(f);
  return ok;
}

/// Verdict of comparing a fresh entry against the recorded history.
struct RegressionCheck {
  bool has_baseline = false;  // some prior entry matched the fingerprint
  bool regression = false;
  double best = 0.0;        // best prior value (max or min per direction)
  double worse_frac = 0.0;  // fractional slowdown vs best (>= 0)
};

/// Compares `fresh` against the best prior entry with the same bench +
/// fingerprint (+ backend, which the fingerprint already encodes for every
/// current bench). `threshold` is the tolerated fractional slowdown: 0.35
/// means "flag anything more than 35% worse than the best ever recorded" —
/// loose enough for shared-machine noise, tight enough to catch a real 2x.
inline RegressionCheck check_regression(const std::vector<HistoryEntry>& prior,
                                        const HistoryEntry& fresh,
                                        double threshold) {
  RegressionCheck out;
  for (const HistoryEntry& e : prior) {
    if (e.bench != fresh.bench || e.fingerprint != fresh.fingerprint) continue;
    if (!out.has_baseline) {
      out.best = e.value;
      out.has_baseline = true;
    } else if (fresh.higher_is_better ? e.value > out.best
                                      : e.value < out.best) {
      out.best = e.value;
    }
  }
  if (!out.has_baseline || out.best <= 0.0) return out;
  out.worse_frac = fresh.higher_is_better
                       ? (out.best - fresh.value) / out.best
                       : (fresh.value - out.best) / out.best;
  if (out.worse_frac < 0.0) out.worse_frac = 0.0;
  out.regression = out.worse_frac > threshold;
  return out;
}

}  // namespace bdlfi::bench
