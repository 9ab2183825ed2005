// Fleet campaign specification: a JSON document describing a whole family of
// fault-injection campaigns — targets × fault models × AVF profiles ×
// backends × ABFT modes — that `bdlfi fleet` shards across worker processes.
//
// The spec separates "what to measure" from "how to schedule it": a
// `defaults` object carries the settings shared by every campaign, each entry
// of `campaigns` overrides what differs, and any of the sweep axes (`p`,
// `avf`, `target`, `abft`, `backend`, `layer`) may be given as an array,
// which expands that campaign into the cross product of the axis values.
// Expansion is fully deterministic: each expanded campaign gets a canonical
// name (base name plus `-axis=value` suffixes for multi-valued axes) and a
// 16-hex campaign id hashed from its fully-resolved configuration, stable
// across runs — the id that stamps every JSONL event and ties a resumed
// worker back to its checkpoint lineage.
//
// Parsing is strict (the obs::json recursive-descent parser): unknown keys,
// type mismatches, invalid enum values, duplicate expanded names, and
// non-integral counts are all hard errors with the offending key in the
// message. A spec that loads is a spec the fleet can run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bdlfi::fleet {

inline constexpr const char* kFleetSpecSchema = "bdlfi_fleet_spec";
inline constexpr std::uint64_t kFleetSpecVersion = 1;

/// One fully-resolved campaign: every knob `bdlfi complete` accepts, with the
/// same defaults, so a fleet campaign and the equivalent single CLI run are
/// the same experiment.
struct CampaignSpec {
  /// Unique within the fleet; doubles as the campaign's directory name under
  /// the fleet output dir.
  std::string name;
  /// 16-hex FNV-1a of the resolved configuration (stable across runs).
  std::string id;

  // Subject network (mirrors bdlfi build_subject/load_subject).
  std::string model = "mlp";  // mlp | resnet
  std::string ckpt;           // golden weights; required
  double width = 0.125;       // resnet width multiplier
  std::int64_t image_size = 16;
  std::size_t samples = 800;  // two-moons dataset size
  std::size_t samples_per_class = 60;
  std::uint64_t data_seed = 11;
  std::uint64_t init_seed = 12;

  // Fault model / deployment (the sweep axes).
  double p = 1e-3;
  std::string avf = "uniform";  // uniform | exponent | mantissa | sign-exponent
  std::string target = "params";  // params | compute
  std::string abft = "off";       // off | detect | correct
  std::string layer;              // "" = whole network
  std::string backend = "scalar";  // scalar | avx2 | auto

  // Sampler.
  std::string sampler = "mh";  // mh | gibbs
  std::size_t chains = 4;
  std::size_t samples_per_chain = 100;
  std::size_t burn_in = 30;
  std::size_t thin = 5;
  /// Ignored by the worker (every mask is evaluated on its own); still
  /// parsed and part of canonical(), so existing specs and campaign ids
  /// stay valid.
  std::size_t mask_batch = 8;
  std::uint64_t seed = 1;

  // Completeness criterion.
  double rhat = 1.05;
  double tol = 0.05;
  std::size_t max_rounds = 8;

  // Chain supervision (within the worker).
  double round_timeout_ms = 0.0;
  std::size_t max_chain_retries = 2;
  double min_acceptance = 0.0;
  std::size_t max_evals_per_round = 0;
  double retry_backoff_ms = 0.0;

  /// Canonical key=value serialization of every resolved field (sorted,
  /// ';'-joined). The campaign id is the FNV-1a hash of this string.
  std::string canonical() const;
};

/// The whole fleet: scheduling policy plus the expanded campaign list.
struct FleetSpec {
  /// Worker processes to fork; 0 = min(hardware threads, campaigns).
  std::size_t workers = 0;
  /// Heartbeat watchdog: a worker whose metrics stream stalls longer than
  /// this is presumed hung and killed (0 = off).
  double worker_timeout_ms = 0.0;
  /// Crash/retry policy, one level above chain supervision: a campaign whose
  /// worker keeps dying is quarantined after this many restarts.
  std::size_t max_worker_retries = 2;
  double worker_backoff_ms = 500.0;
  double worker_backoff_cap_ms = 10000.0;
  /// 16-hex id of the fleet itself (hash over the campaign ids); stamps the
  /// fleet-level lifecycle events.
  std::string id;
  std::vector<CampaignSpec> campaigns;
};

/// Parses and expands a fleet spec from JSON text. nullopt with a
/// human-readable message in `error` on any validation failure.
std::optional<FleetSpec> parse_fleet_spec(const std::string& text,
                                          std::string* error = nullptr);

/// Reads `path` and parses it. nullopt on I/O or validation failure.
std::optional<FleetSpec> load_fleet_spec(const std::string& path,
                                         std::string* error = nullptr);

}  // namespace bdlfi::fleet
