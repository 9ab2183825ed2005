// Fault injection into int8 weight codes.
//
// The quantized counterpart of fault::InjectionSpace / bayes::
// BayesianFaultNetwork: fault sites are (int8 word, bit 0..7) addresses over
// every quantized weight buffer of a network. A flipped bit moves a weight by
// at most 128 quantization steps — the mechanism behind the well-known
// robustness of integer formats that bench/tab_quantized quantifies against
// the float32 results of Figs. 2/4.
#pragma once

#include <memory>

#include "bayes/fault_network.h"  // MaskOutcome + score_logits
#include "fault/mask.h"
#include "quant/convert.h"
#include "util/rng.h"

namespace bdlfi::quant {

inline constexpr int kBitsPerCode = 8;

class QuantInjectionSpace {
 public:
  /// Enumerates the int8 buffers of `net` (which must outlive the space).
  explicit QuantInjectionSpace(nn::Network& net);

  std::int64_t total_elements() const { return total_elements_; }
  std::int64_t total_bits() const { return total_elements_ * kBitsPerCode; }
  const std::vector<QuantBufferRef>& buffers() const { return buffers_; }

  std::int8_t* element_ptr(std::int64_t element) const;

  /// XOR-applies a mask (flat bit index = element * 8 + bit). Self-inverse.
  void apply(const fault::FaultMask& mask) const;

  /// Independent Bernoulli(p) per int8 bit; O(#flips) via geometric skipping.
  fault::FaultMask sample_mask(double p, util::Rng& rng) const;

 private:
  struct Entry {
    QuantBufferRef ref;
    std::int64_t offset;
  };
  std::vector<QuantBufferRef> buffers_;
  std::vector<Entry> entries_;
  std::int64_t total_elements_ = 0;
};

/// Quantized analogue of BayesianFaultNetwork: owns a deep copy of the
/// quantized golden network and scores each mask's logits with
/// bayes::score_logits, the float path's scorer.
class QuantFaultNetwork {
 public:
  QuantFaultNetwork(const nn::Network& quantized_golden,
                    tensor::Tensor eval_inputs,
                    std::vector<std::int64_t> eval_labels);

  QuantFaultNetwork(const QuantFaultNetwork&) = delete;
  QuantFaultNetwork& operator=(const QuantFaultNetwork&) = delete;

  std::unique_ptr<QuantFaultNetwork> replicate() const;

  const QuantInjectionSpace& space() const { return *space_; }
  double golden_error() const { return golden_error_; }

  bayes::MaskOutcome evaluate_mask(const fault::FaultMask& mask);

  fault::FaultMask sample_prior_mask(double p, util::Rng& rng) const {
    return space_->sample_mask(p, rng);
  }

 private:
  nn::Network net_;
  std::unique_ptr<QuantInjectionSpace> space_;
  tensor::Tensor eval_inputs_;
  std::vector<std::int64_t> eval_labels_;
  std::vector<std::int64_t> golden_preds_;
  double golden_error_ = 0.0;
};

/// Random-FI campaign over the quantized fault space (parallel workers,
/// deterministic for a given seed).
struct QuantFiResult {
  double mean_error = 0.0;
  double q05 = 0.0, q95 = 0.0;
  double mean_deviation = 0.0;
  double mean_detected = 0.0;
  double mean_flips = 0.0;
  std::size_t injections = 0;
};
QuantFiResult run_quant_random_fi(const QuantFaultNetwork& golden, double p,
                                  std::size_t injections, std::uint64_t seed);

}  // namespace bdlfi::quant
