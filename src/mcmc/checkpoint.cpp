#include "mcmc/checkpoint.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <cerrno>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "obs/json.h"
#include "obs/stream.h"
#include "tensor/backend/backend.h"
#include "util/atomic_file.h"
#include "util/log.h"
#include "util/rng.h"

namespace bdlfi::mcmc {

namespace {

namespace fs = std::filesystem;

bool parse_hex64(const std::string& text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char h : text) {
    v <<= 4;
    if (h >= '0' && h <= '9') v |= static_cast<std::uint64_t>(h - '0');
    else if (h >= 'a' && h <= 'f') v |= static_cast<std::uint64_t>(h - 'a' + 10);
    else return false;
  }
  *out = v;
  return true;
}

/// u64 words as ':'-joined 16-digit hex (see header: numbers would go
/// through a double in the parser and lose bits).
std::string words_to_string(const std::vector<std::uint64_t>& words) {
  std::string out;
  out.reserve(words.size() * 17);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out.push_back(':');
    out += obs::hex64(words[i]);
  }
  return out;
}

bool words_from_string(const std::string& text,
                       std::vector<std::uint64_t>* out) {
  out->clear();
  if (text.empty()) return true;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t sep = text.find(':', pos);
    if (sep == std::string::npos) sep = text.size();
    std::uint64_t word = 0;
    if (!parse_hex64(text.substr(pos, sep - pos), &word)) return false;
    out->push_back(word);
    if (sep == text.size()) break;
    pos = sep + 1;
  }
  return true;
}

void write_double_array(obs::JsonWriter& w, const std::string& key,
                        const std::vector<double>& values) {
  w.key(key).begin_array();
  for (const double v : values) w.number_exact(v);
  w.end_array();
}

bool read_double_array(const obs::JsonValue& obj, const std::string& key,
                       std::vector<double>* out) {
  const obs::JsonValue* arr = obj.find(key);
  if (arr == nullptr || !arr->is_array()) return false;
  out->clear();
  out->reserve(arr->as_array().size());
  for (const auto& v : arr->as_array()) {
    if (v.is_null()) {
      // number_exact serializes non-finite as null; restore as NaN so the
      // supervisor's divergence scan still sees the pathology after resume.
      out->push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (v.is_number()) {
      out->push_back(v.as_number());
    } else {
      return false;
    }
  }
  return true;
}

/// Counts, versions and mask bits travel as JSON numbers, i.e. doubles: only
/// non-negative integers below 2^53 convert to an integer exactly.
bool is_count(const obs::JsonValue& v) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  return d >= 0.0 && d < 9007199254740992.0 && d == std::floor(d);
}

bool read_size(const obs::JsonValue& obj, const std::string& key,
               std::size_t* out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !is_count(*v)) return false;
  *out = static_cast<std::size_t>(v->as_number());
  return true;
}

bool read_double(const obs::JsonValue& obj, const std::string& key,
                 double* out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return false;
  if (v->is_null()) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (!v->is_number()) return false;
  *out = v->as_number();
  return true;
}

}  // namespace

std::uint64_t campaign_fingerprint(const bayes::BayesianFaultNetwork& golden,
                                   const RunnerConfig& config, double p) {
  // Canonical config string; %.17g keeps double identity exact. Field order
  // is part of the format — extend by appending only.
  char buf[512];
  // |abft=<mode> appended in v2: ABFT changes what the retained samples mean
  // (detected/corrected outcomes exist only under checking), so streams from
  // different checking modes must never be mixed by a resume.
  std::snprintf(
      buf, sizeof(buf),
      "v1|seed=%llu|chains=%zu|gibbs=%d|"
      "mh=%zu,%zu,%zu,%.17g,%.17g,%.17g,%zu|"
      "gb=%zu,%zu,%zu|p=%.17g|net=%lld,%zu,%s|backend=%s|abft=%d",
      static_cast<unsigned long long>(config.seed), config.num_chains,
      config.use_gibbs ? 1 : 0, config.mh.samples, config.mh.burn_in,
      config.mh.thin, config.mh.w_single_toggle, config.mh.w_block_resample,
      config.mh.w_independence, config.mh.block_size, config.gibbs.samples,
      config.gibbs.burn_in, config.gibbs.coordinates_per_sweep, p,
      static_cast<long long>(golden.space().total_bits()), golden.eval_size(),
      obs::hex64(std::bit_cast<std::uint64_t>(golden.golden_error())).c_str(),
      tensor::backend::active_name(),
      static_cast<int>(golden.network().abft().mode));
  std::string canonical(buf);
  // |abft_layers=... appended only when a selective-placement restriction is
  // active (Network::set_abft_layers): restricted and unrestricted deployments
  // produce different retained streams, but every pre-existing fingerprint
  // stays byte-identical.
  if (const auto& restricted = golden.network().abft_layers();
      !restricted.empty()) {
    canonical += "|abft_layers=";
    for (std::size_t i = 0; i < restricted.size(); ++i) {
      if (i > 0) canonical += ',';
      canonical += std::to_string(restricted[i]);
    }
  }
  return obs::fnv1a64(canonical);
}

std::string checkpoint_path(const std::string& dir) {
  return (fs::path(dir) / "campaign.ckpt.json").string();
}

std::string checkpoint_lock_path(const std::string& dir) {
  return (fs::path(dir) / "campaign.lock").string();
}

namespace {

/// True when the pid recorded in an existing lock file no longer names a live
/// process (or the file is unreadable/garbled — only a dead owner leaves a
/// torn pidfile behind, the O_EXCL create + single write is otherwise whole).
bool lock_is_stale(const std::string& path, long* owner_pid) {
  *owner_pid = 0;
  std::ifstream in(path);
  if (!in) return true;
  long pid = 0;
  if (!(in >> pid) || pid <= 0) return true;
  *owner_pid = pid;
#if defined(__unix__) || defined(__APPLE__)
  if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) return true;
#endif
  return false;
}

}  // namespace

CheckpointDirLock::CheckpointDirLock(CheckpointDirLock&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

CheckpointDirLock& CheckpointDirLock::operator=(
    CheckpointDirLock&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

CheckpointDirLock::~CheckpointDirLock() { release(); }

void CheckpointDirLock::release() {
  if (path_.empty()) return;
  std::remove(path_.c_str());
  path_.clear();
}

CheckpointDirLock CheckpointDirLock::acquire(const std::string& dir,
                                             std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return CheckpointDirLock{};
  };
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = checkpoint_lock_path(dir);
#if defined(__unix__) || defined(__APPLE__)
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd >= 0) {
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%ld\n",
                                  static_cast<long>(::getpid()));
      const bool wrote = ::write(fd, buf, static_cast<std::size_t>(n)) == n;
      ::close(fd);
      if (!wrote) {
        std::remove(path.c_str());
        return fail("cannot write lock file " + path);
      }
      CheckpointDirLock lock;
      lock.path_ = path;
      return lock;
    }
    if (errno != EEXIST) {
      return fail("cannot create lock file " + path);
    }
    long owner = 0;
    if (!lock_is_stale(path, &owner)) {
      return fail("checkpoint dir " + dir + " is locked by pid " +
                  std::to_string(owner) +
                  " (another campaign is live there; a second resume would "
                  "corrupt the checkpoint lineage)");
    }
    // Stale lock from a dead owner: break it and retry the exclusive create
    // once. A concurrent breaker losing the O_EXCL race lands in the live
    // branch above on the next iteration.
    BDLFI_LOG_WARN("checkpoint: breaking stale lock %s (owner pid %ld gone)",
                   path.c_str(), owner);
    std::remove(path.c_str());
  }
  return fail("lock contention on " + path);
#else
  // No pid liveness probe on this platform: fall back to plain exclusive
  // create without stale detection.
  std::ofstream out(path, std::ios::app);
  if (!out) return fail("cannot create lock file " + path);
  CheckpointDirLock lock;
  lock.path_ = path;
  return lock;
#endif
}

bool save_checkpoint(const std::string& path, const CampaignCheckpoint& ck) {
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  // The document goes to the file one chain at a time: its sample arrays
  // grow with every round, and a whole-document string would sit beside
  // the campaign's own streams until the fsync returns.
  util::AtomicTextWriter file(path);
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", kCheckpointSchema);
  w.field("version", kCheckpointVersion);
  w.field("fingerprint", obs::hex64(ck.fingerprint));
  w.field("backend", ck.backend);
  w.field_exact("p", ck.p);
  w.field("rounds_completed", static_cast<std::uint64_t>(ck.rounds_completed));
  w.field("converged", ck.converged);
  w.field_exact("prev_mean", ck.prev_mean);
  w.field("prev_evals", static_cast<std::uint64_t>(ck.prev_evals));
  w.key("trajectory").begin_array();
  for (const auto& r : ck.trajectory) {
    w.begin_object();
    w.field("samples", static_cast<std::uint64_t>(r.cumulative_samples));
    w.field_exact("mean_error", r.mean_error);
    w.field_exact("rhat", r.rhat);
    w.field_exact("ess", r.ess);
    w.end_object();
  }
  w.end_array();
  w.key("chains").begin_array();
  for (std::size_t c = 0; c < ck.chains.size(); ++c) {
    const ChainResult& chain = ck.chains[c];
    const ChainHealth& health =
        c < ck.health.size() ? ck.health[c] : ChainHealth{};
    w.begin_object();
    w.field("chain", static_cast<std::uint64_t>(c));
    w.field("status", to_string(health.status));
    w.field("retries", static_cast<std::uint64_t>(health.retries));
    w.field("last_failure", health.last_failure);
    w.field("quarantined_round",
            static_cast<std::uint64_t>(health.quarantined_round));
    if (c < ck.cursors.size() && ck.cursors[c].valid) {
      w.key("cursor").begin_object();
      w.field("rng", words_to_string(ck.cursors[c].rng_state));
      w.key("mask").begin_array();
      for (const std::int64_t bit : ck.cursors[c].mask.bits()) {
        w.number(bit);
      }
      w.end_array();
      w.end_object();
    } else {
      w.key("cursor").null();
    }
    w.field_exact("acceptance_rate", chain.acceptance_rate);
    w.field("network_evals", static_cast<std::uint64_t>(chain.network_evals));
    w.field("forwards_skipped",
            static_cast<std::uint64_t>(chain.forwards_skipped));
    w.field("outcome_masked", static_cast<std::uint64_t>(chain.outcome_masked));
    w.field("outcome_sdc", static_cast<std::uint64_t>(chain.outcome_sdc));
    w.field("outcome_detected",
            static_cast<std::uint64_t>(chain.outcome_detected));
    w.field("outcome_corrected",
            static_cast<std::uint64_t>(chain.outcome_corrected));
    w.field("full_evals", static_cast<std::uint64_t>(chain.full_evals));
    w.field("truncated_evals",
            static_cast<std::uint64_t>(chain.truncated_evals));
    w.field("layers_run", static_cast<std::uint64_t>(chain.layers_run));
    w.field("layers_total", static_cast<std::uint64_t>(chain.layers_total));
    write_double_array(w, "error_samples", chain.error_samples);
    write_double_array(w, "deviation_samples", chain.deviation_samples);
    write_double_array(w, "flips_samples", chain.flips_samples);
    w.end_object();
    file.append(w.str());
    w.clear_text();
  }
  w.end_array();
  w.end_object();

  file.append(w.str());
  if (!file.commit()) {
    BDLFI_LOG_WARN("checkpoint: cannot write %s", path.c_str());
    return false;
  }
  return true;
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const auto doc = obs::json_parse(buffer.str(), &parse_error);
  if (!doc.has_value() || !doc->is_object()) {
    return fail("malformed checkpoint: " + parse_error);
  }
  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kCheckpointSchema) {
    return fail("not a campaign checkpoint");
  }
  const obs::JsonValue* version = doc->find("version");
  if (version == nullptr || !is_count(*version)) {
    return fail("unsupported checkpoint version");
  }
  const auto ver = static_cast<std::uint64_t>(version->as_number());
  if (ver < kCheckpointMinVersion || ver > kCheckpointVersion) {
    return fail("unsupported checkpoint version");
  }

  CampaignCheckpoint ck;
  const obs::JsonValue* fp = doc->find("fingerprint");
  if (fp == nullptr || !fp->is_string() ||
      !parse_hex64(fp->as_string(), &ck.fingerprint)) {
    return fail("missing/invalid fingerprint");
  }
  // Optional for back-compat: pre-backend checkpoints were always scalar.
  const obs::JsonValue* backend = doc->find("backend");
  if (backend != nullptr) {
    if (!backend->is_string() || backend->as_string().empty()) {
      return fail("invalid backend field");
    }
    ck.backend = backend->as_string();
  }
  if (!read_double(*doc, "p", &ck.p) ||
      !read_size(*doc, "rounds_completed", &ck.rounds_completed) ||
      !read_double(*doc, "prev_mean", &ck.prev_mean) ||
      !read_size(*doc, "prev_evals", &ck.prev_evals)) {
    return fail("missing/invalid scalar fields");
  }
  const obs::JsonValue* converged = doc->find("converged");
  if (converged == nullptr || !converged->is_bool()) {
    return fail("missing/invalid converged flag");
  }
  ck.converged = converged->as_bool();

  const obs::JsonValue* trajectory = doc->find("trajectory");
  if (trajectory == nullptr || !trajectory->is_array()) {
    return fail("missing trajectory");
  }
  for (const auto& entry : trajectory->as_array()) {
    CompletenessResult::RoundStats stats{};
    if (!entry.is_object() ||
        !read_size(entry, "samples", &stats.cumulative_samples) ||
        !read_double(entry, "mean_error", &stats.mean_error) ||
        !read_double(entry, "rhat", &stats.rhat) ||
        !read_double(entry, "ess", &stats.ess)) {
      return fail("malformed trajectory entry");
    }
    ck.trajectory.push_back(stats);
  }

  const obs::JsonValue* chains = doc->find("chains");
  if (chains == nullptr || !chains->is_array()) return fail("missing chains");
  for (const auto& entry : chains->as_array()) {
    const std::string at = "chain " + std::to_string(ck.chains.size());
    if (!entry.is_object()) return fail("malformed " + at);
    ChainResult chain;
    ChainHealth health;
    ChainCursor cursor;
    if (!read_size(entry, "chain", &health.chain) ||
        !read_size(entry, "retries", &health.retries) ||
        !read_size(entry, "quarantined_round", &health.quarantined_round) ||
        !read_double(entry, "acceptance_rate", &chain.acceptance_rate) ||
        !read_size(entry, "network_evals", &chain.network_evals) ||
        // Optional: documents from before the counter existed load with 0
        // (the count starts from the resume point); a present one must be
        // a count.
        (entry.find("forwards_skipped") != nullptr &&
         !read_size(entry, "forwards_skipped", &chain.forwards_skipped)) ||
        !read_size(entry, "full_evals", &chain.full_evals) ||
        // v2 taxonomy counters: required at v2, absent at v1 (stay zero —
        // the taxonomy starts tallying from the resume point).
        (ver >= 2 &&
         (!read_size(entry, "outcome_masked", &chain.outcome_masked) ||
          !read_size(entry, "outcome_sdc", &chain.outcome_sdc) ||
          !read_size(entry, "outcome_detected", &chain.outcome_detected) ||
          !read_size(entry, "outcome_corrected",
                     &chain.outcome_corrected))) ||
        !read_size(entry, "truncated_evals", &chain.truncated_evals) ||
        !read_size(entry, "layers_run", &chain.layers_run) ||
        !read_size(entry, "layers_total", &chain.layers_total) ||
        !read_double_array(entry, "error_samples", &chain.error_samples) ||
        !read_double_array(entry, "deviation_samples",
                           &chain.deviation_samples) ||
        !read_double_array(entry, "flips_samples", &chain.flips_samples)) {
      return fail("malformed " + at + " entry");
    }
    if (health.chain != ck.chains.size()) {
      return fail(at + " entry claims to be chain " +
                  std::to_string(health.chain));
    }
    if (chain.deviation_samples.size() != chain.error_samples.size() ||
        chain.flips_samples.size() != chain.error_samples.size()) {
      return fail(at + ": sample arrays have different lengths");
    }
    const obs::JsonValue* status = entry.find("status");
    if (status == nullptr || !status->is_string() ||
        !chain_status_from_string(status->as_string(), &health.status)) {
      return fail("invalid " + at + " status");
    }
    const obs::JsonValue* last_failure = entry.find("last_failure");
    if (last_failure != nullptr && last_failure->is_string()) {
      health.last_failure = last_failure->as_string();
    }
    const obs::JsonValue* cur = entry.find("cursor");
    if (cur == nullptr) return fail(at + ": missing cursor");
    if (cur->is_object()) {
      const obs::JsonValue* rng = cur->find("rng");
      const obs::JsonValue* mask = cur->find("mask");
      if (rng == nullptr || !rng->is_string() ||
          !words_from_string(rng->as_string(), &cursor.rng_state) ||
          mask == nullptr || !mask->is_array()) {
        return fail(at + ": malformed cursor");
      }
      if (util::Rng probe{0}; !probe.state_load(cursor.rng_state)) {
        return fail(at + ": cursor rng is not an engine state");
      }
      std::vector<std::int64_t> bits;
      bits.reserve(mask->as_array().size());
      for (const auto& bit : mask->as_array()) {
        if (!is_count(bit)) return fail(at + ": malformed cursor mask");
        bits.push_back(static_cast<std::int64_t>(bit.as_number()));
      }
      cursor.mask = FaultMask(std::move(bits));
      cursor.valid = true;
    } else if (!cur->is_null()) {
      return fail(at + ": malformed cursor");
    }
    ck.chains.push_back(std::move(chain));
    ck.cursors.push_back(std::move(cursor));
    ck.health.push_back(std::move(health));
  }
  // Healthy chains advance in lockstep, one round at a time; streams of
  // different lengths cannot come from one campaign.
  std::optional<std::size_t> first_healthy;
  for (std::size_t c = 0; c < ck.chains.size(); ++c) {
    if (ck.health[c].status != ChainStatus::healthy) continue;
    if (!first_healthy.has_value()) first_healthy = c;
    const std::size_t n = ck.chains[c].error_samples.size();
    const std::size_t n0 = ck.chains[*first_healthy].error_samples.size();
    if (n != n0) {
      return fail("healthy chains " + std::to_string(*first_healthy) +
                  " and " + std::to_string(c) + " hold " + std::to_string(n0) +
                  " and " + std::to_string(n) + " samples");
    }
  }
  return ck;
}

}  // namespace bdlfi::mcmc
