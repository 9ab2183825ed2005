// BayesianFaultNetwork: the paper's core construct (Fig. 1-②).
//
// It couples (a) a deep copy of a trained "golden" network, (b) an
// InjectionSpace enumerating the Bernoulli fault variables {b_i} attached to
// the selected state bits, and (c) an evaluation set over which the effect of
// a concrete fault pattern e = {b_i} is measured. The corrupted state is
// W' = e ⊙ W (bitwise XOR); XOR's self-inverse property means a mask can be
// applied, measured, and reverted in O(#flips) without copying weights.
// The golden network may be float or quantized: a quantized network's int8
// weight codes are kCode sites of the same space, so int8 deployments run
// every campaign kind (random FI, MCMC, checkpoints, fleets) unchanged.
//
// Evaluation is *truncated* whenever possible: the golden per-layer
// activations of the eval batch are recorded once (ActivationCache), and a
// mask whose earliest affected layer is L replays only layers [L, depth)
// from the cached prefix — an exact O(depth-L) shortcut, since eval-mode
// inference is deterministic. Masks touching the input (or networks whose
// cache exceeds the memory budget) fall back to the full forward.
//
// The network owned here is private to the instance, so independent MCMC
// chains each hold their own BayesianFaultNetwork and run lock-free in
// parallel.
//
// When the eval forward is pure — a function of the mask alone, which holds
// unless an MC-mode Dropout or a calibrating RangeGuard sits in the network
// — the instance remembers the mask and outcome of its last evaluate_mask
// (last_outcome). A chain reads it to reuse the forward its target just ran
// instead of running it again (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/space.h"
#include "nn/activation_cache.h"
#include "nn/network.h"

namespace bdlfi::bayes {

using fault::AvfProfile;
using fault::FaultMask;
using fault::InjectionSpace;
using fault::TargetSpec;

/// Whole-evaluation outcome class of one fault pattern — the classic FI
/// taxonomy, driven only by *actual detection signals* (ABFT checksum
/// mismatches and non-finite output logits; RangeGuard clamps are silent and
/// never count):
///   kMasked    — no detector fired and every prediction matched golden;
///   kSdc       — no detector fired but some prediction silently changed;
///   kDetected  — a detector fired and the corruption was not (fully)
///                repaired: an unrecoverable DUE the system can flag;
///   kCorrected — ABFT recovery repaired every corrupted row and the final
///                predictions match golden exactly.
enum class FaultOutcome { kMasked, kSdc, kDetected, kCorrected };

const char* fault_outcome_name(FaultOutcome outcome);

/// Outcome of evaluating one concrete fault pattern, including the classic
/// fault-injection outcome taxonomy per evaluation sample:
///   benign   — prediction unchanged from the golden run;
///   SDC      — prediction silently changed (finite logits, wrong answer);
///   detected — non-finite values (NaN/Inf) reached the output logits, i.e.
///              the corruption is detectable by a cheap output check.
struct MaskOutcome {
  /// % of evaluation labels misclassified under the corrupted weights.
  double classification_error = 0.0;
  /// % of predictions that differ from the *golden* predictions (the silent
  /// data corruption rate — insensitive to the model's baseline error).
  double deviation = 0.0;
  /// % of samples whose output logits contain NaN/Inf (detectable).
  double detected = 0.0;
  /// % of samples with a silently changed, finite-logit prediction.
  double sdc = 0.0;
  std::size_t flipped_bits = 0;

  /// Whole-evaluation outcome class (see FaultOutcome above).
  FaultOutcome outcome = FaultOutcome::kMasked;
  /// ABFT activity during this evaluation (deltas of the network's counters):
  /// rows flagged-but-left-corrupted, rows recomputed, compute-fault flips
  /// actually applied mid-kernel.
  std::uint64_t abft_detected_rows = 0;
  std::uint64_t abft_corrected_rows = 0;
  std::uint64_t abft_faults_injected = 0;
  /// RangeGuard clamp firings during this evaluation. Telemetry only — the
  /// clamp is silent, so this never drives the outcome classification.
  std::uint64_t guard_corrections = 0;
};

/// Configuration of the golden-activation cache behind truncated evaluation.
struct EvalCacheConfig {
  /// Master switch; off forces every evaluation down the full-forward path.
  bool enable_truncated_replay = true;
  /// Retained golden activations are capped at this many bytes; the cache
  /// keeps the longest layer *prefix* that fits (a replay from layer L needs
  /// exactly the cached output of layer L-1).
  std::size_t memory_budget_bytes = std::size_t{256} << 20;
};

/// Per-instance observability counters for the truncated-replay pipeline.
struct EvalStats {
  std::size_t full_evals = 0;       // evaluations that ran every layer
  std::size_t truncated_evals = 0;  // evaluations resumed from the cache
  std::size_t layers_run = 0;       // layer executions actually performed
  std::size_t layers_total = 0;     // layer executions a full-forward policy
                                    // would have performed
  double layers_saved_pct() const {
    return layers_total == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(layers_total - layers_run) /
                     static_cast<double>(layers_total);
  }
};

/// A list of masks to evaluate, each one exactly as evaluate_mask would
/// (DESIGN.md §10).
struct EvalRequest {
  std::span<const FaultMask> masks;
  /// Ignored: every mask runs through evaluate_mask. Kept so existing
  /// `EvalRequest{masks, k}` callers still compile.
  std::size_t mask_batch = 8;
};

/// Result of one EvalRequest: `outcomes` in input order.
struct EvalOutcome {
  std::vector<MaskOutcome> outcomes;
  /// Always 0; kept for callers that still read it.
  std::size_t batched = 0;
};

class BayesianFaultNetwork {
 public:
  /// Clones `golden`; the original is never mutated. `eval_inputs` is a
  /// [N, ...] batch and `eval_labels` its ground truth.
  BayesianFaultNetwork(const nn::Network& golden, const TargetSpec& target,
                       AvfProfile profile, tensor::Tensor eval_inputs,
                       std::vector<std::int64_t> eval_labels,
                       EvalCacheConfig cache_config = {});

  BayesianFaultNetwork(const BayesianFaultNetwork&) = delete;
  BayesianFaultNetwork& operator=(const BayesianFaultNetwork&) = delete;
  BayesianFaultNetwork(BayesianFaultNetwork&&) = delete;

  /// Independent replica (own network copy, same golden weights/eval set).
  /// Copies the golden predictions and activation cache instead of re-running
  /// the golden forward pass — replication is O(memcpy), not O(inference).
  std::unique_ptr<BayesianFaultNetwork> replicate() const;

  /// The owned network replica (read-only): deployment properties such as
  /// the ABFT checking mode live on the network and feed e.g. the campaign
  /// checkpoint fingerprint.
  const nn::Network& network() const { return net_; }

  const InjectionSpace& space() const { return *space_; }
  /// Mutable access for campaign-level configuration (selective hardening via
  /// InjectionSpace::protect_elements). Note: protections are per-instance
  /// and copied by replicate().
  InjectionSpace& mutable_space() { return *space_; }
  const AvfProfile& profile() const { return profile_; }
  std::size_t eval_size() const { return eval_labels_.size(); }

  /// Golden (fault-free) classification error, %.
  double golden_error() const { return golden_error_; }
  const std::vector<std::int64_t>& golden_predictions() const {
    return golden_preds_;
  }

  /// Evaluates each requested mask in order with evaluate_mask. The weights
  /// are bit-exact golden before and after this call.
  EvalOutcome evaluate(const EvalRequest& request);

  /// Applies one mask, measures, reverts. Allocation-free in steady state:
  /// the forward runs on the network's ExecutionPlan (DESIGN.md §13), and
  /// the remembered mask copy reuses its storage. Always runs the forward.
  MaskOutcome evaluate_mask(const FaultMask& mask);

  /// True when an eval forward is a pure function of the mask: no top-level
  /// Dropout in MC mode and no RangeGuard calibrating. Decided once at
  /// construction (the owned network's layer modes cannot change after it)
  /// and copied by replicate(). Chains skip forwards only when it holds.
  bool eval_is_pure() const { return eval_is_pure_; }

  /// The outcome of the most recent evaluate_mask when that call evaluated
  /// `mask` and the eval forward is pure, so running it again would
  /// reproduce it; nullptr otherwise. Valid until the next evaluate_mask
  /// or transition.
  const MaskOutcome* last_outcome(const FaultMask& mask) const {
    return has_last_ && last_mask_ == mask ? &last_outcome_ : nullptr;
  }

  /// Output logits of the network corrupted by `mask` over the eval batch —
  /// bit-identical between the truncated and full evaluation paths. State is
  /// golden again on return.
  tensor::Tensor logits_under_mask(const FaultMask& mask);

  /// Per-sample indicator: prediction under `mask` differs from golden.
  std::vector<std::uint8_t> deviation_under_mask(const FaultMask& mask);

  /// Applies the XOR delta between the network's current mask state and a new
  /// mask — the O(|Δ|) state transition used by MCMC kernels. The caller is
  /// responsible for tracking which mask is currently applied. Parameter
  /// sites only (transient input/activation sites cannot persist). Forgets
  /// the last outcome: later evaluations start from the new state.
  void transition(const FaultMask& from, const FaultMask& to);

  /// Predictions of the (currently corrupted or clean) network on an
  /// arbitrary batch — used by the decision-boundary experiment, where one
  /// sampled mask is evaluated over a whole grid of inputs.
  std::vector<std::int64_t> predict_current(const tensor::Tensor& inputs);

  /// Draws a mask from the Bernoulli prior at base rate p.
  FaultMask sample_prior_mask(double p, util::Rng& rng) const {
    return space_->sample_mask(profile_, p, rng);
  }

  double log_prior(const FaultMask& mask, double p) const {
    return space_->log_prior(mask, profile_, p);
  }

  /// Truncated-replay observability (full vs truncated evals, layers saved).
  const EvalStats& eval_stats() const { return eval_stats_; }
  void reset_eval_stats() { eval_stats_ = {}; }
  const EvalCacheConfig& cache_config() const { return cache_config_; }
  /// Cached golden-activation prefix length (0 = full-forward fallback only).
  std::size_t cached_layers() const { return cache_.cached_layers(); }

 private:
  struct ReplicaTag {};
  /// Replication path: clones the network and copies all derived golden
  /// state (predictions, error, activation cache) without a forward pass.
  BayesianFaultNetwork(const BayesianFaultNetwork& other, ReplicaTag);

  void rebuild_space();

  /// Borrowed logits of the corrupted network — the allocation-free core of
  /// evaluate_mask (a view of the planned-execution arena on the planned
  /// path). Valid until the next forward on the owned network.
  const tensor::Tensor& logits_view_under_mask(const FaultMask& mask);

  nn::Network net_;
  std::unique_ptr<InjectionSpace> space_;
  bool has_guards_ = false;  // cached: avoids a dynamic_cast scan per eval
  bool eval_is_pure_ = true;
  TargetSpec target_;
  AvfProfile profile_;
  tensor::Tensor eval_inputs_;
  std::vector<std::int64_t> eval_labels_;
  std::vector<std::int64_t> golden_preds_;
  double golden_error_ = 0.0;
  EvalCacheConfig cache_config_;
  nn::ActivationCache cache_;
  fault::ActivationGeometry geometry_;
  EvalStats eval_stats_;
  // Reusable staging tensor for masks that corrupt the replay-start
  // activation or the input batch; its storage amortizes across evaluations.
  tensor::Tensor start_scratch_;
  // The last evaluate_mask of a pure eval forward (see last_outcome). Not
  // copied by replicate(): a replica has run no forward yet.
  bool has_last_ = false;
  FaultMask last_mask_;
  MaskOutcome last_outcome_;
};

}  // namespace bdlfi::bayes
