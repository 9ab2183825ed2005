#include "fault/space.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/backend/backend.h"
#include "util/check.h"

namespace bdlfi::fault {

namespace {

std::string layer_of(const std::string& param_name) {
  const auto dot = param_name.find('.');
  return dot == std::string::npos ? param_name : param_name.substr(0, dot);
}

}  // namespace

bool TargetSpec::matches(const std::string& param_name,
                         nn::ParamRole role) const {
  if (!include_params) return false;
  if (!matches_layer(layer_of(param_name))) return false;
  const bool is_buffer = role == nn::ParamRole::kBnRunningMean ||
                         role == nn::ParamRole::kBnRunningVar;
  if (is_buffer) return include_buffers;
  if (!roles.empty()) {
    return std::find(roles.begin(), roles.end(), role) != roles.end();
  }
  return true;
}

bool TargetSpec::matches_layer(const std::string& layer_name) const {
  return layer_names.empty() ||
         std::find(layer_names.begin(), layer_names.end(), layer_name) !=
             layer_names.end();
}

InjectionSpace::InjectionSpace(nn::Network& net, const TargetSpec& spec,
                               const ActivationGeometry* geometry) {
  num_layers_ = net.num_layers();
  // Layer index of each parameter prefix, for first_replay_layer.
  auto layer_index = [&](const std::string& name) -> std::int64_t {
    const std::string layer = layer_of(name);
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      if (net.layer_name(i) == layer) return static_cast<std::int64_t>(i);
    }
    return 0;  // unknown prefix: conservatively force a full replay
  };
  // int8 code words come first, so the float words form one contiguous
  // range [code_elements_, total) for bits 8..31.
  for (const nn::CodeRef& c : net.codes()) {
    if (!spec.matches(c.name, nn::ParamRole::kWeight)) continue;
    entries_.push_back({c.name, nn::ParamRole::kWeight, nullptr,
                        total_elements_, SiteKind::kCode, layer_index(c.name),
                        c.numel, c.data});
    total_elements_ += c.numel;
  }
  code_elements_ = total_elements_;
  auto add_refs = [&](const std::vector<nn::ParamRef>& refs) {
    for (const auto& r : refs) {
      if (!spec.matches(r.name, r.role)) continue;
      entries_.push_back({r.name, r.role, r.value, total_elements_,
                          SiteKind::kParam, layer_index(r.name),
                          r.value->numel()});
      total_elements_ += r.value->numel();
    }
  };
  add_refs(net.params());
  if (spec.include_buffers) add_refs(net.buffers());
  if (spec.include_input) {
    BDLFI_CHECK_MSG(geometry != nullptr && geometry->input_numel > 0,
                    "input fault sites need an ActivationGeometry");
    entries_.push_back({"<input>", nn::ParamRole::kWeight, nullptr,
                        total_elements_, SiteKind::kInput, -1,
                        geometry->input_numel});
    total_elements_ += geometry->input_numel;
  }
  if (spec.include_activations) {
    BDLFI_CHECK_MSG(geometry != nullptr &&
                        geometry->layer_numel.size() == net.num_layers(),
                    "activation fault sites need an ActivationGeometry");
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      if (!spec.matches_layer(net.layer_name(i))) continue;
      const std::int64_t n = geometry->layer_numel[i];
      if (n <= 0) continue;
      entries_.push_back({net.layer_name(i) + ".act",
                          nn::ParamRole::kWeight, nullptr, total_elements_,
                          SiteKind::kActivation, static_cast<std::int64_t>(i),
                          n});
      total_elements_ += n;
    }
  }
  if (spec.include_compute) {
    BDLFI_CHECK_MSG(geometry != nullptr &&
                        geometry->layer_numel.size() == net.num_layers(),
                    "compute fault sites need an ActivationGeometry");
    // One site range per top-level GEMM-bearing layer, addressing its raw
    // MAC output (same geometry as the layer's activation, but struck before
    // bias/BN/activation, mid-kernel). Blocks are excluded: their output is
    // a residual sum, not a GEMM result.
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      if (!spec.matches_layer(net.layer_name(i))) continue;
      const std::string kind = net.layer_kind(i);
      if (kind != "dense" && kind != "conv") continue;
      const std::int64_t n = geometry->layer_numel[i];
      if (n <= 0) continue;
      entries_.push_back({net.layer_name(i) + ".mac",
                          nn::ParamRole::kWeight, nullptr, total_elements_,
                          SiteKind::kCompute, static_cast<std::int64_t>(i),
                          n});
      total_elements_ += n;
    }
  }
  BDLFI_CHECK_MSG(total_elements_ > 0,
                  "TargetSpec selects no fault targets");
}

std::int64_t InjectionSpace::first_replay_layer(const FaultMask& mask) const {
  auto first = static_cast<std::int64_t>(num_layers_);
  for (std::int64_t flat : mask.bits()) {
    const Entry& e = entry_of(flat / kBitsPerWord);
    std::int64_t layer = 0;
    switch (e.site) {
      case SiteKind::kParam:
      case SiteKind::kCode:
        layer = e.layer;
        break;
      case SiteKind::kInput:
        layer = 0;
        break;
      case SiteKind::kActivation:
        layer = e.layer + 1;
        break;
      case SiteKind::kCompute:
        // The fault strikes inside layer e.layer's own GEMM: that layer must
        // re-run (on its golden input, so the cached prefix still applies).
        layer = e.layer;
        break;
    }
    first = std::min(first, layer);
    if (first == 0) break;
  }
  return first;
}

const InjectionSpace::Entry& InjectionSpace::entry_of(
    std::int64_t element) const {
  BDLFI_DCHECK(element >= 0 && element < total_elements_);
  // Binary search over entry offsets: last entry with offset <= element.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), element,
      [](std::int64_t e, const Entry& entry) { return e < entry.offset; });
  BDLFI_DCHECK(it != entries_.begin());
  return *(it - 1);
}

void InjectionSpace::apply(const FaultMask& mask) const {
  apply_bits(mask.bits());
}

void InjectionSpace::apply_bits(
    std::span<const std::int64_t> flat_bits) const {
  // Resolve float sites into (pointer, xor-word) batches and hand them to
  // the active kernel backend; the stack buffer keeps typical masks (a
  // handful of flips) allocation-free. int8 code words XOR in place.
  constexpr std::size_t kBatch = 128;
  float* ptrs[kBatch];
  std::uint32_t words[kBatch];
  std::size_t count = 0;
  const auto& be = tensor::backend::active();
  for (std::int64_t flat : flat_bits) {
    const FaultSite site = FaultSite::from_flat(flat);
    if (site.element >= code_elements_) {
      ptrs[count] = element_ptr(site.element);
      words[count] = std::uint32_t{1} << site.bit;
      if (++count == kBatch) {
        be.mask_xor(ptrs, words, count);
        count = 0;
      }
    } else if (site.bit < kBitsPerCode) {  // bits 8..31 of a code word: dead
      const Entry& e = entry_of(site.element);
      std::int8_t& code = e.codes[site.element - e.offset];
      code = static_cast<std::int8_t>(static_cast<std::uint8_t>(code) ^
                                      (1u << site.bit));
    }
  }
  if (count > 0) be.mask_xor(ptrs, words, count);
}

float* InjectionSpace::element_ptr(std::int64_t element) const {
  const Entry& entry = entry_of(element);
  BDLFI_CHECK_MSG(entry.site == SiteKind::kParam,
                  "not a float word: int8 code sites are 8-bit, and "
                  "input/activation/compute sites are transient (apply them "
                  "via the mask-evaluation pipeline, not by persistent XOR)");
  return entry.value->data() + (element - entry.offset);
}

FaultMask InjectionSpace::sample_mask(const AvfProfile& profile, double p,
                                      util::Rng& rng) const {
  std::vector<std::int64_t> flips;
  for (int bit = 0; bit < kBitsPerWord; ++bit) {
    const double pb = profile.bit_prob(bit, p);
    if (pb <= 0.0) continue;
    // Geometric skipping across the element axis for this bit position;
    // bits 8..31 skip the code words, which have none.
    std::int64_t element = (bit < kBitsPerCode ? 0 : code_elements_) +
                           static_cast<std::int64_t>(rng.geometric(pb));
    while (element < total_elements_) {
      if (!is_protected(element)) {
        flips.push_back(element * kBitsPerWord + bit);
      }
      element += 1 + static_cast<std::int64_t>(rng.geometric(pb));
    }
  }
  return FaultMask{std::move(flips)};
}

void InjectionSpace::protect_elements(std::vector<std::int64_t> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  for (std::int64_t e : elements) {
    BDLFI_CHECK_MSG(e >= 0 && e < total_elements_,
                    "protected element out of range");
  }
  protected_ = std::move(elements);
}

bool InjectionSpace::is_protected(std::int64_t element) const {
  return std::binary_search(protected_.begin(), protected_.end(), element);
}

double InjectionSpace::log_prior(const FaultMask& mask,
                                 const AvfProfile& profile, double p) const {
  double lp = 0.0;
  // Clean-bit constant: every live bit of every unprotected element
  // unflipped — bits 0..7 of all of them, bits 8..31 of float words only.
  // (Protected bits never flip — probability-1 events contribute 0.)
  const std::int64_t vulnerable =
      total_elements_ - static_cast<std::int64_t>(protected_.size());
  const std::int64_t vulnerable_codes =
      code_elements_ -
      (std::lower_bound(protected_.begin(), protected_.end(), code_elements_) -
       protected_.begin());
  const auto every_word = static_cast<double>(vulnerable);
  const auto float_words = static_cast<double>(vulnerable - vulnerable_codes);
  for (int bit = 0; bit < kBitsPerWord; ++bit) {
    const double pb = profile.bit_prob(bit, p);
    if (pb >= 1.0) {
      // All such bits MUST be flipped; the constant is handled per flip below.
      continue;
    }
    lp += (bit < kBitsPerCode ? every_word : float_words) * std::log1p(-pb);
  }
  for (std::int64_t flat : mask.bits()) {
    lp += log_prior_toggle_delta(flat, profile, p);
  }
  // Consistency: masks using zero-probability bits have -inf prior; masks
  // missing probability-one bits are not detected here (callers sampling from
  // the prior never produce them).
  return lp;
}

double InjectionSpace::log_prior_toggle_delta(std::int64_t flat_bit,
                                              const AvfProfile& profile,
                                              double p) const {
  const std::int64_t element = flat_bit / kBitsPerWord;
  const int bit = static_cast<int>(flat_bit % kBitsPerWord);
  if ((bit >= kBitsPerCode && element < code_elements_) ||
      is_protected(element)) {
    return -std::numeric_limits<double>::infinity();
  }
  const double pb = profile.bit_prob(bit, p);
  if (pb <= 0.0) return -std::numeric_limits<double>::infinity();
  if (pb >= 1.0) return std::numeric_limits<double>::infinity();
  return std::log(pb) - std::log1p(-pb);
}

}  // namespace bdlfi::fault
