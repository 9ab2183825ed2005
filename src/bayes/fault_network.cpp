#include "bayes/fault_network.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "fault/bits.h"
#include "nn/dropout.h"
#include "nn/range_guard.h"
#include "obs/metrics.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace bdlfi::bayes {

const char* fault_outcome_name(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kMasked: return "masked";
    case FaultOutcome::kSdc: return "sdc";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kCorrected: return "corrected";
  }
  return "?";
}

namespace {

/// Scores the output logits of one evaluation: one argmax-and-finiteness scan
/// per row (the active backend's argmax_finite_row) against `labels` and
/// `golden_preds`, the four rates, and the outcome class. ABFT counters
/// already in `outcome` count as detection signals.
void score_logits(const tensor::Tensor& logits,
                  const std::vector<std::int64_t>& labels,
                  const std::vector<std::int64_t>& golden_preds,
                  MaskOutcome& outcome) {
  const std::int64_t classes = logits.shape()[1];
  const auto scan = tensor::backend::active().argmax_finite_row;
  std::size_t miss = 0, dev = 0, detected = 0, sdc = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const float* row = logits.data() + static_cast<std::int64_t>(i) * classes;
    // One fused pass per row: argmax and NaN/Inf finiteness together, via
    // the active kernel backend. The argmax matches tensor::argmax_rows — a
    // NaN compare is false, so a NaN never displaces the incumbent.
    std::int64_t best = 0;
    bool finite = false;
    scan(row, classes, &best, &finite);
    const bool deviated = best != golden_preds[i];
    if (best != labels[i]) ++miss;
    if (deviated) ++dev;
    if (!finite) {
      ++detected;
    } else if (deviated) {
      ++sdc;
    }
  }
  const auto n = static_cast<double>(labels.size());
  outcome.classification_error = 100.0 * static_cast<double>(miss) / n;
  outcome.deviation = 100.0 * static_cast<double>(dev) / n;
  outcome.detected = 100.0 * static_cast<double>(detected) / n;
  outcome.sdc = 100.0 * static_cast<double>(sdc) / n;

  // Whole-evaluation taxonomy. Only real detection signals classify: ABFT
  // rows flagged without recovery, or non-finite output logits. RangeGuard
  // clamps are silent (telemetry only) and sub-tolerance compute flips that
  // change nothing land in kMasked by construction.
  const bool detector_fired = outcome.abft_detected_rows > 0 || detected > 0;
  if (detector_fired) {
    outcome.outcome = FaultOutcome::kDetected;
  } else if (dev > 0) {
    outcome.outcome = FaultOutcome::kSdc;
  } else if (outcome.abft_corrected_rows > 0) {
    outcome.outcome = FaultOutcome::kCorrected;
  } else {
    outcome.outcome = FaultOutcome::kMasked;
  }
}

// Process-wide truncated-replay counters, aggregated across every instance
// and chain (the per-instance EvalStats stay authoritative for results; the
// registry view is what live reporters and sinks read).
struct EvalMetrics {
  obs::Counter& full = obs::MetricsRegistry::global().counter("eval.full");
  obs::Counter& truncated =
      obs::MetricsRegistry::global().counter("eval.truncated");
  obs::Counter& layers_run =
      obs::MetricsRegistry::global().counter("eval.layers_run");
  obs::Counter& layers_total =
      obs::MetricsRegistry::global().counter("eval.layers_total");
  static EvalMetrics& get() {
    static EvalMetrics m;
    return m;
  }
};

/// A mask sorted into the site kinds the evaluation pipeline treats
/// differently: persistent parameter and int8 code bits (XOR-able in place),
/// input bits (applied to a copy of the eval batch), and per-layer activation
/// bits (applied in flight via the forward hook). Offsets are element indices
/// *within* the owning tensor.
struct SplitMask {
  std::vector<std::int64_t> param_bits;  // flat space addressing
  std::vector<std::pair<std::int64_t, int>> input_flips;
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, int>>> act_flips;
  /// Per-layer mid-kernel flips, installed on the network for the forward.
  /// Per-layer lists are sorted by element (mask bits are sorted and each
  /// layer's compute range is one contiguous entry), as gemm_checked needs.
  nn::ComputeFaultPlan compute_flips;
};

SplitMask split_mask(const InjectionSpace& space, const FaultMask& mask) {
  SplitMask split;
  for (std::int64_t flat : mask.bits()) {
    const fault::FaultSite site = fault::FaultSite::from_flat(flat);
    const InjectionSpace::Entry& entry = space.entry_of(site.element);
    const std::int64_t elem = site.element - entry.offset;
    switch (entry.site) {
      case InjectionSpace::SiteKind::kParam:
      case InjectionSpace::SiteKind::kCode:
        split.param_bits.push_back(flat);
        break;
      case InjectionSpace::SiteKind::kInput:
        split.input_flips.emplace_back(elem, site.bit);
        break;
      case InjectionSpace::SiteKind::kActivation:
        split.act_flips[entry.layer].emplace_back(elem, site.bit);
        break;
      case InjectionSpace::SiteKind::kCompute:
        split.compute_flips[static_cast<std::size_t>(entry.layer)]
            .emplace_back(elem, site.bit);
        break;
    }
  }
  return split;
}

void flip_into(tensor::Tensor& t,
               const std::vector<std::pair<std::int64_t, int>>& flips) {
  for (const auto& [elem, bit] : flips) {
    t[elem] = fault::flip_bit(t[elem], bit);
  }
}

}  // namespace

BayesianFaultNetwork::BayesianFaultNetwork(
    const nn::Network& golden, const TargetSpec& target, AvfProfile profile,
    tensor::Tensor eval_inputs, std::vector<std::int64_t> eval_labels,
    EvalCacheConfig cache_config)
    : net_(golden.clone()),
      target_(target),
      profile_(std::move(profile)),
      eval_inputs_(std::move(eval_inputs)),
      eval_labels_(std::move(eval_labels)),
      cache_config_(cache_config) {
  BDLFI_CHECK(!eval_labels_.empty());
  BDLFI_CHECK(eval_inputs_.shape()[0] ==
              static_cast<std::int64_t>(eval_labels_.size()));
  // One golden forward serves three purposes: the golden predictions, the
  // activation cache behind truncated replay, and the activation geometry
  // that sizes input/activation fault sites.
  const std::size_t budget = cache_config_.enable_truncated_replay
                                 ? cache_config_.memory_budget_bytes
                                 : 0;
  const tensor::Tensor logits = cache_.capture(net_, eval_inputs_, budget);
  golden_preds_ = tensor::argmax_rows(logits);
  std::size_t miss = 0;
  for (std::size_t i = 0; i < eval_labels_.size(); ++i) {
    if (golden_preds_[i] != eval_labels_[i]) ++miss;
  }
  golden_error_ = 100.0 * static_cast<double>(miss) /
                  static_cast<double>(eval_labels_.size());
  geometry_.input_numel = eval_inputs_.numel();
  geometry_.layer_numel.resize(cache_.num_layers());
  for (std::size_t i = 0; i < cache_.num_layers(); ++i) {
    geometry_.layer_numel[i] = cache_.layer_numel(i);
  }
  // Top-level layers only, as set_mc_dropout and the guard builders place
  // them.
  for (std::size_t i = 0; i < net_.num_layers(); ++i) {
    nn::Layer& layer = net_.layer(i);
    if (const auto* guard = dynamic_cast<nn::RangeGuard*>(&layer)) {
      has_guards_ = true;
      if (guard->calibrating()) eval_is_pure_ = false;
    }
    if (const auto* dropout = dynamic_cast<nn::Dropout*>(&layer)) {
      if (dropout->mc_mode()) eval_is_pure_ = false;
    }
  }
  rebuild_space();
}

BayesianFaultNetwork::BayesianFaultNetwork(const BayesianFaultNetwork& other,
                                           ReplicaTag)
    : net_(other.net_.clone()),
      has_guards_(other.has_guards_),
      eval_is_pure_(other.eval_is_pure_),
      target_(other.target_),
      profile_(other.profile_),
      eval_inputs_(other.eval_inputs_),
      eval_labels_(other.eval_labels_),
      golden_preds_(other.golden_preds_),
      golden_error_(other.golden_error_),
      cache_config_(other.cache_config_),
      cache_(other.cache_),
      geometry_(other.geometry_) {
  rebuild_space();
  // Hardening configuration carries over: replicas must inject into the same
  // vulnerable subset as the original.
  space_->protect_elements(other.space_->protected_elements());
}

void BayesianFaultNetwork::rebuild_space() {
  space_ = std::make_unique<InjectionSpace>(net_, target_, &geometry_);
}

std::unique_ptr<BayesianFaultNetwork> BayesianFaultNetwork::replicate() const {
  return std::unique_ptr<BayesianFaultNetwork>(
      new BayesianFaultNetwork(*this, ReplicaTag{}));
}

EvalOutcome BayesianFaultNetwork::evaluate(const EvalRequest& request) {
  EvalOutcome result;
  result.outcomes.reserve(request.masks.size());
  for (const FaultMask& mask : request.masks) {
    result.outcomes.push_back(evaluate_mask(mask));
  }
  return result;
}

tensor::Tensor BayesianFaultNetwork::logits_under_mask(const FaultMask& mask) {
  return logits_view_under_mask(mask);  // deep copy at the return boundary
}

const tensor::Tensor& BayesianFaultNetwork::logits_view_under_mask(
    const FaultMask& mask) {
  const SplitMask split = split_mask(*space_, mask);
  // Transient compute faults ride on the network for the duration of this
  // forward only; `split` outlives both forward paths below.
  if (!split.compute_flips.empty()) {
    net_.set_compute_fault_plan(&split.compute_flips);
  }
  const std::size_t depth = net_.num_layers();
  // First layer whose execution can differ from golden; replay can begin no
  // later than the cached-prefix length (a replay at B needs act[B-1]). With
  // no cached prefix the scan cannot save anything — skip the replay
  // bookkeeping entirely and take the plain full-forward path.
  const auto cached = static_cast<std::int64_t>(cache_.cached_layers());
  const std::int64_t begin =
      cached == 0 ? 0 : std::min(space_->first_replay_layer(mask), cached);

  nn::Network::ActivationHook hook;
  if (!split.act_flips.empty()) {
    hook = [&split](std::size_t i, tensor::Tensor& act) {
      const auto it = split.act_flips.find(static_cast<std::int64_t>(i));
      if (it != split.act_flips.end()) flip_into(act, it->second);
    };
  }

  space_->apply_bits(split.param_bits);
  const tensor::Tensor* logits = nullptr;
  if (begin > 0) {
    // Weight-fault masks (the common campaign case) replay straight off the
    // cached golden activation — no staging copy. Only masks that corrupt
    // the replay-start activation itself stage into the reusable scratch
    // tensor (whose storage amortizes across evaluations).
    const tensor::Tensor& start =
        cache_.activation(static_cast<std::size_t>(begin - 1));
    const auto it = split.act_flips.find(begin - 1);
    if (it != split.act_flips.end()) {
      start_scratch_ = start;
      flip_into(start_scratch_, it->second);
      logits = &net_.forward_view(static_cast<std::size_t>(begin),
                                  start_scratch_, hook);
    } else {
      logits =
          &net_.forward_view(static_cast<std::size_t>(begin), start, hook);
    }
    ++eval_stats_.truncated_evals;
    eval_stats_.layers_run += depth - static_cast<std::size_t>(begin);
  } else {
    if (!split.input_flips.empty()) {
      start_scratch_ = eval_inputs_;
      flip_into(start_scratch_, split.input_flips);
      logits = &net_.forward_view(0, start_scratch_, hook);
    } else {
      logits = &net_.forward_view(0, eval_inputs_, hook);
    }
    ++eval_stats_.full_evals;
    eval_stats_.layers_run += depth;
  }
  eval_stats_.layers_total += depth;
  if (obs::enabled()) {
    EvalMetrics& m = EvalMetrics::get();
    if (begin > 0) {
      m.truncated.add();
      m.layers_run.add(depth - static_cast<std::size_t>(begin));
    } else {
      m.full.add();
      m.layers_run.add(depth);
    }
    m.layers_total.add(depth);
  }
  space_->apply_bits(split.param_bits);  // XOR self-inverse: golden restored
  if (!split.compute_flips.empty()) net_.set_compute_fault_plan(nullptr);
  return *logits;
}

MaskOutcome BayesianFaultNetwork::evaluate_mask(const FaultMask& mask) {
  // Snapshot the network's cumulative self-checking counters so this
  // evaluation's ABFT/guard activity can be read back as deltas.
  const tensor::abft::Stats& abft = net_.abft_stats();
  const std::uint64_t det0 =
      abft.detected_rows.load(std::memory_order_relaxed);
  const std::uint64_t cor0 =
      abft.corrected_rows.load(std::memory_order_relaxed);
  const std::uint64_t inj0 =
      abft.faults_injected.load(std::memory_order_relaxed);
  const std::uint64_t guard0 =
      has_guards_ ? nn::total_guard_corrections(net_) : 0;

  const tensor::Tensor& logits = logits_view_under_mask(mask);

  MaskOutcome outcome;
  outcome.flipped_bits = mask.num_flips();
  outcome.abft_detected_rows =
      abft.detected_rows.load(std::memory_order_relaxed) - det0;
  outcome.abft_corrected_rows =
      abft.corrected_rows.load(std::memory_order_relaxed) - cor0;
  outcome.abft_faults_injected =
      abft.faults_injected.load(std::memory_order_relaxed) - inj0;
  outcome.guard_corrections =
      has_guards_ ? nn::total_guard_corrections(net_) - guard0 : 0;
  score_logits(logits, eval_labels_, golden_preds_, outcome);
  if (eval_is_pure_) {
    last_mask_ = mask;
    last_outcome_ = outcome;
    has_last_ = true;
  }
  return outcome;
}

std::vector<std::uint8_t> BayesianFaultNetwork::deviation_under_mask(
    const FaultMask& mask) {
  const auto preds = tensor::argmax_rows(logits_view_under_mask(mask));
  std::vector<std::uint8_t> out(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    out[i] = preds[i] != golden_preds_[i] ? 1 : 0;
  }
  return out;
}

void BayesianFaultNetwork::transition(const FaultMask& from,
                                      const FaultMask& to) {
  const auto delta = FaultMask::symmetric_difference(from, to);
  space_->apply_bits(delta);
  has_last_ = false;
}

std::vector<std::int64_t> BayesianFaultNetwork::predict_current(
    const tensor::Tensor& inputs) {
  return net_.predict(inputs);
}

}  // namespace bdlfi::bayes
