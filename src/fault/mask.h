// Fault masks: sparse sets of flipped bits.
//
// A FaultMask is the latent variable e of the paper's Bayesian network
// (Fig. 1-②): the set of bits whose XOR with the golden state produces the
// corrupted state W' = e ⊙ W. Masks are sparse — at realistic flip rates the
// overwhelming majority of bits are clean — and addressed by *flat bit index*
// within an InjectionSpace (element-major: bit = flat % 32; an int8 code word
// keeps the 32-bit stride and uses bits 0..7 only).
//
// XOR application is self-inverse, so `apply` both injects and reverts; the
// MCMC kernels exploit this to move between mask states touching only the
// bits in the symmetric difference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace bdlfi::fault {

/// One flipped bit, resolved against a specific InjectionSpace.
struct FaultSite {
  std::int64_t element = 0;  // flat element index within the space
  int bit = 0;  // 0..31 within the binary32 word; 0..7 on an int8 code word

  std::int64_t flat() const { return element * 32 + bit; }
  static FaultSite from_flat(std::int64_t flat) {
    return {flat / 32, static_cast<int>(flat % 32)};
  }
  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

class FaultMask {
 public:
  FaultMask() = default;
  explicit FaultMask(std::vector<std::int64_t> flat_bits);

  std::size_t num_flips() const { return bits_.size(); }
  bool empty() const { return bits_.empty(); }
  bool contains(std::int64_t flat_bit) const;

  /// Adds the bit if absent, removes it if present. Returns true if the bit
  /// is set after the call.
  bool toggle(std::int64_t flat_bit);
  void insert(std::int64_t flat_bit);
  void erase(std::int64_t flat_bit);
  void clear() { bits_.clear(); }

  /// Sorted ascending flat bit indices.
  const std::vector<std::int64_t>& bits() const { return bits_; }

  /// Flat bits present in exactly one of the two masks (the XOR delta a
  /// sampler must apply to move from `a`'s state to `b`'s).
  static std::vector<std::int64_t> symmetric_difference(const FaultMask& a,
                                                        const FaultMask& b);

  friend bool operator==(const FaultMask&, const FaultMask&) = default;

  std::string to_string(std::size_t max_sites = 8) const;

 private:
  std::vector<std::int64_t> bits_;  // sorted, unique
};

}  // namespace bdlfi::fault
