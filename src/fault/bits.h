// IEEE-754 binary32 bit manipulation.
//
// The paper's fault model: "transient faults in the memory units storing NN
// parameters, inputs, intermediate activations and outputs", each bit an
// independent Bernoulli(p), applied by XOR. These helpers implement that XOR
// on float storage without invoking undefined behaviour (bit_cast, not
// pointer punning).
#pragma once

#include <bit>
#include <cstdint>

namespace bdlfi::fault {

inline constexpr int kBitsPerWord = 32;
/// Live bits of an int8 weight-code word (InjectionSpace::SiteKind::kCode).
inline constexpr int kBitsPerCode = 8;
inline constexpr int kSignBit = 31;
inline constexpr int kExponentLow = 23;   // bits 23..30 are the exponent
inline constexpr int kExponentHigh = 30;

constexpr std::uint32_t float_to_bits(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

constexpr float bits_to_float(std::uint32_t bits) {
  return std::bit_cast<float>(bits);
}

/// Flips one bit of a float's binary32 encoding. Self-inverse.
constexpr float flip_bit(float v, int bit) {
  return bits_to_float(float_to_bits(v) ^ (std::uint32_t{1} << bit));
}

/// Applies a 32-bit XOR error word (the paper's e ⊙ W).
constexpr float xor_bits(float v, std::uint32_t error_word) {
  return bits_to_float(float_to_bits(v) ^ error_word);
}

constexpr bool is_sign_bit(int bit) { return bit == kSignBit; }
constexpr bool is_exponent_bit(int bit) {
  return bit >= kExponentLow && bit <= kExponentHigh;
}
constexpr bool is_mantissa_bit(int bit) { return bit < kExponentLow; }

}  // namespace bdlfi::fault
