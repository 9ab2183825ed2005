// Injection spaces: the addressable set of fault targets of a network.
//
// A TargetSpec selects which state a campaign may corrupt (all parameters,
// one layer, weights only, ...); the InjectionSpace built from it lays those
// tensors out as one flat element axis so fault sites have stable integer
// addresses — the "enormous space of fault locations" of §I made enumerable.
// A quantized network's int8 weight codes are sites of the same axis (kCode):
// they come first, and their words have 8 live bits instead of 32.
//
// Sampling a Bernoulli mask is O(expected #flips), not O(#bits): for each bit
// position we geometric-skip across elements. At p = 1e-5 over a million
// parameters that is ~320 draws instead of 32 million.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fault/avf.h"
#include "fault/mask.h"
#include "nn/network.h"

namespace bdlfi::fault {

struct TargetSpec {
  /// Layer names to include (exact match on the prefix before the first '.');
  /// empty means every layer. Also filters activation sites by owning layer.
  std::vector<std::string> layer_names;
  /// Roles to include; empty means every trainable role.
  std::vector<nn::ParamRole> roles;
  /// Also expose BN running statistics (non-trainable but memory-resident).
  bool include_buffers = false;
  /// Expose parameter tensors and int8 weight codes at all (off for pure
  /// input/activation spaces). Codes filter as role kWeight.
  bool include_params = true;
  /// Expose the evaluation batch itself — §II's "memory units for storing
  /// ... inputs" — as fault sites of pseudo-layer -1.
  bool include_input = false;
  /// Expose per-layer output activations (in-flight corruption, applied by
  /// the mask-evaluation pipeline rather than by persistent XOR).
  bool include_activations = false;
  /// Expose transient compute faults — upsets striking the MAC/accumulator
  /// results of GEMM-bearing layers (dense/conv) *during* the multiply,
  /// before any bias/BN/activation. Applied mid-kernel via the network's
  /// ComputeFaultPlan; this is the fault class ABFT checksums can see.
  bool include_compute = false;

  static TargetSpec all_parameters() { return {}; }
  static TargetSpec single_layer(std::string name) {
    TargetSpec spec;
    spec.layer_names.push_back(std::move(name));
    return spec;
  }
  static TargetSpec weights_only() {
    TargetSpec spec;
    spec.roles = {nn::ParamRole::kWeight};
    return spec;
  }
  static TargetSpec input_only() {
    TargetSpec spec;
    spec.include_params = false;
    spec.include_input = true;
    return spec;
  }
  static TargetSpec activations_only() {
    TargetSpec spec;
    spec.include_params = false;
    spec.include_activations = true;
    return spec;
  }
  static TargetSpec compute_only() {
    TargetSpec spec;
    spec.include_params = false;
    spec.include_compute = true;
    return spec;
  }

  bool matches(const std::string& param_name, nn::ParamRole role) const;
  bool matches_layer(const std::string& layer_name) const;
};

/// Element counts of the transient tensors of one evaluation batch — the
/// geometry input/activation fault sites are addressed against. Produced by
/// the golden forward (nn::ActivationCache records it as a side effect).
struct ActivationGeometry {
  std::int64_t input_numel = 0;
  std::vector<std::int64_t> layer_numel;  // output numel per layer
};

class InjectionSpace {
 public:
  /// What kind of memory a fault site lives in. kParam sites are persistent
  /// tensors XOR-able in place; kCode sites are persistent int8 weight codes,
  /// XOR-able in place with live bits 0..7 only (bits 8..31 of a code word
  /// have zero prior and XOR nothing); kInput/kActivation sites are
  /// transient — the evaluation pipeline applies them to in-flight tensors
  /// instead. kCompute sites are transient upsets of a layer's raw GEMM
  /// output, applied mid-kernel (between the multiply and the ABFT check) via
  /// the network's ComputeFaultPlan.
  enum class SiteKind { kParam, kCode, kInput, kActivation, kCompute };

  struct Entry {
    std::string name;
    nn::ParamRole role;
    tensor::Tensor* value;  // kParam only (nullptr on every other kind)
    std::int64_t offset;  // flat element index of this tensor's first element
    SiteKind site = SiteKind::kParam;
    /// Owning layer index: params/activations → their layer; input → -1.
    std::int64_t layer = -1;
    std::int64_t numel = 0;
    std::int8_t* codes = nullptr;  // kCode only (nullptr on every other kind)
  };

  /// Pointers into `net` are held; the network must outlive the space and not
  /// be structurally modified. `geometry` is required when `spec` selects
  /// input or activation sites (their sizes depend on the evaluation batch).
  InjectionSpace(nn::Network& net, const TargetSpec& spec = {},
                 const ActivationGeometry* geometry = nullptr);

  std::int64_t total_elements() const { return total_elements_; }
  /// Size of the flat bit address space (32 per element; only bits 0..7 of
  /// an int8 code word are live).
  std::int64_t total_bits() const { return total_elements_ * kBitsPerWord; }
  /// Elements [0, code_elements()) are int8 code words; every other site
  /// follows them. 0 for a float network.
  std::int64_t code_elements() const { return code_elements_; }
  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t num_layers() const { return num_layers_; }

  /// The tensor entry containing flat element `element`.
  const Entry& entry_of(std::int64_t element) const;
  /// The float word of a kParam element; check-fails on every other kind.
  float* element_ptr(std::int64_t element) const;

  /// Index of the first layer whose *execution* can differ from golden under
  /// `mask`: weight/bias/BN/code sites → owning layer, input sites → 0,
  /// activation sites of layer L → L+1 (layer L itself still runs golden;
  /// only its stored output is corrupted). Returns num_layers() for an empty
  /// mask — nothing needs re-running and the cached golden logits stand.
  std::int64_t first_replay_layer(const FaultMask& mask) const;

  /// XORs every bit of the mask into the network state. Self-inverse:
  /// applying the same mask twice restores the golden state exactly.
  /// Check-fails on input/activation sites (transient — no state to XOR).
  void apply(const FaultMask& mask) const;
  /// XORs an explicit list of flat bit indices (an MCMC move delta).
  void apply_bits(std::span<const std::int64_t> flat_bits) const;

  /// Draws a mask with independent Bernoulli(profile.bit_prob(b, p)) flips.
  /// Bit positions are drawn in order 0..31, each by geometric skipping along
  /// the element axis (bits 8..31 start past the code words), so a space of
  /// one input or activation tensor draws the flips of one in-flight
  /// corruption of that tensor.
  FaultMask sample_mask(const AvfProfile& profile, double p,
                        util::Rng& rng) const;

  /// Log prior probability of a mask under the Bernoulli model (includes the
  /// constant from all clean live bits; -inf if the mask uses a zero-prob,
  /// protected or dead code bit).
  double log_prior(const FaultMask& mask, const AvfProfile& profile,
                   double p) const;

  /// Change in log prior from toggling one bit into the mask: log(p_b/(1-p_b)).
  double log_prior_toggle_delta(std::int64_t flat_bit,
                                const AvfProfile& profile, double p) const;

  // --- Selective protection (hardening) --------------------------------------
  // Marks elements as protected: hardened cells (ECC/duplication) that faults
  // cannot touch. sample_mask never selects them; their bits have zero prior
  // probability. Supports the §III application of the boundary analysis —
  // "set a threshold on the regions ... that need more protection".

  /// Replaces the protected set (flat element indices; deduped internally).
  void protect_elements(std::vector<std::int64_t> elements);
  bool is_protected(std::int64_t element) const;
  std::size_t num_protected() const { return protected_.size(); }
  const std::vector<std::int64_t>& protected_elements() const {
    return protected_;
  }

 private:
  std::vector<Entry> entries_;
  std::int64_t total_elements_ = 0;
  std::int64_t code_elements_ = 0;
  std::size_t num_layers_ = 0;
  std::vector<std::int64_t> protected_;  // sorted, unique
};

}  // namespace bdlfi::fault
