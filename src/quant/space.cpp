#include "quant/space.h"

#include <algorithm>

#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bdlfi::quant {

QuantInjectionSpace::QuantInjectionSpace(nn::Network& net) {
  buffers_ = collect_quant_buffers(net);
  BDLFI_CHECK_MSG(!buffers_.empty(),
                  "network has no quantized buffers (did you call "
                  "quantize_network?)");
  for (const auto& ref : buffers_) {
    entries_.push_back({ref, total_elements_});
    total_elements_ += static_cast<std::int64_t>(ref.codes->size());
  }
}

std::int8_t* QuantInjectionSpace::element_ptr(std::int64_t element) const {
  BDLFI_DCHECK(element >= 0 && element < total_elements_);
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), element,
      [](std::int64_t e, const Entry& entry) { return e < entry.offset; });
  const Entry& entry = *(it - 1);
  return entry.ref.codes->data() + (element - entry.offset);
}

void QuantInjectionSpace::apply(const fault::FaultMask& mask) const {
  for (std::int64_t flat : mask.bits()) {
    const std::int64_t element = flat / kBitsPerCode;
    const int bit = static_cast<int>(flat % kBitsPerCode);
    std::int8_t* code = element_ptr(element);
    *code = static_cast<std::int8_t>(
        static_cast<std::uint8_t>(*code) ^ (std::uint8_t{1} << bit));
  }
}

fault::FaultMask QuantInjectionSpace::sample_mask(double p,
                                                  util::Rng& rng) const {
  BDLFI_CHECK(p > 0.0 && p < 1.0);
  std::vector<std::int64_t> flips;
  const std::int64_t total = total_bits();
  std::int64_t bit = static_cast<std::int64_t>(rng.geometric(p));
  while (bit < total) {
    flips.push_back(bit);
    bit += 1 + static_cast<std::int64_t>(rng.geometric(p));
  }
  return fault::FaultMask{std::move(flips)};
}

QuantFaultNetwork::QuantFaultNetwork(const nn::Network& quantized_golden,
                                     tensor::Tensor eval_inputs,
                                     std::vector<std::int64_t> eval_labels)
    : net_(quantized_golden.clone()),
      eval_inputs_(std::move(eval_inputs)),
      eval_labels_(std::move(eval_labels)) {
  BDLFI_CHECK(!eval_labels_.empty());
  space_ = std::make_unique<QuantInjectionSpace>(net_);
  golden_preds_ = net_.predict(eval_inputs_);
  std::size_t miss = 0;
  for (std::size_t i = 0; i < eval_labels_.size(); ++i) {
    if (golden_preds_[i] != eval_labels_[i]) ++miss;
  }
  golden_error_ = 100.0 * static_cast<double>(miss) /
                  static_cast<double>(eval_labels_.size());
}

std::unique_ptr<QuantFaultNetwork> QuantFaultNetwork::replicate() const {
  return std::make_unique<QuantFaultNetwork>(net_, eval_inputs_,
                                             eval_labels_);
}

bayes::MaskOutcome QuantFaultNetwork::evaluate_mask(
    const fault::FaultMask& mask) {
  space_->apply(mask);
  const tensor::Tensor& logits = net_.forward_view(0, eval_inputs_);
  space_->apply(mask);
  bayes::MaskOutcome outcome;
  outcome.flipped_bits = mask.num_flips();
  bayes::score_logits(logits, eval_labels_, golden_preds_, outcome);
  return outcome;
}

QuantFiResult run_quant_random_fi(const QuantFaultNetwork& golden, double p,
                                  std::size_t injections,
                                  std::uint64_t seed) {
  BDLFI_CHECK(injections > 0);
  std::size_t workers =
      std::min(injections, util::ThreadPool::global().size());
  std::vector<std::vector<bayes::MaskOutcome>> outcomes(workers);
  util::Rng seeder{seed};
  std::vector<std::uint64_t> seeds(workers);
  for (auto& s : seeds) s = seeder();

  util::parallel_for_chunked(
      0, injections, workers,
      [&](std::size_t worker, std::size_t lo, std::size_t hi) {
        auto replica = golden.replicate();
        util::Rng rng{seeds[worker]};
        for (std::size_t i = lo; i < hi; ++i) {
          const fault::FaultMask mask = replica->sample_prior_mask(p, rng);
          outcomes[worker].push_back(replica->evaluate_mask(mask));
        }
      });

  QuantFiResult result;
  util::SampleSet errors;
  util::RunningStats dev, det, flips;
  for (const auto& chunk : outcomes) {
    for (const auto& o : chunk) {
      errors.add(o.classification_error);
      dev.add(o.deviation);
      det.add(o.detected);
      flips.add(static_cast<double>(o.flipped_bits));
    }
  }
  result.injections = errors.count();
  result.mean_error = errors.mean();
  result.q05 = errors.quantile(0.05);
  result.q95 = errors.quantile(0.95);
  result.mean_deviation = dev.mean();
  result.mean_detected = det.mean();
  result.mean_flips = flips.mean();
  return result;
}

}  // namespace bdlfi::quant
