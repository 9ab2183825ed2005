// Post-training quantization of a trained float network.
//
// Walks a trained nn::Network and produces an inference-only twin where every
// Dense / Conv2d / BasicBlock carries int8 weight codes (per-tensor symmetric
// calibration over the trained values); BatchNorm, activations and pooling
// are cloned as-is. The twin preserves layer names, so campaign tooling and
// per-layer reports line up with the float original.
#pragma once

#include "nn/network.h"
#include "quant/layers.h"

namespace bdlfi::quant {

struct QuantizeOptions {
  /// One scale per output channel (tighter round-trip error) instead of one
  /// per tensor.
  bool per_channel = false;
};

/// Converts `golden` (a trained float network) into its int8-weight twin.
/// Aborts on layers the converter does not recognize.
nn::Network quantize_network(const nn::Network& golden,
                             const QuantizeOptions& options = {});

}  // namespace bdlfi::quant
