#include "quant/convert.h"

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/layers.h"
#include "nn/resblock.h"
#include "util/check.h"

namespace bdlfi::quant {

namespace {

std::unique_ptr<QuantConv2d> quantize_conv(nn::Conv2d& conv,
                                           const QuantizeOptions& options) {
  return std::make_unique<QuantConv2d>(conv.weight(), conv.bias(),
                                       conv.spec(), options.per_channel);
}

std::unique_ptr<Layer> quantize_layer(Layer& layer,
                                      const QuantizeOptions& options) {
  if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    return std::make_unique<QuantDense>(dense->weight(), dense->bias(),
                                        options.per_channel);
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    return quantize_conv(*conv, options);
  }
  if (auto* block = dynamic_cast<nn::BasicBlock*>(&layer)) {
    std::unique_ptr<QuantConv2d> proj;
    std::unique_ptr<Layer> proj_bn;
    if (block->has_projection()) {
      proj = quantize_conv(*block->proj_conv(), options);
      proj_bn = block->proj_bn()->clone();
    }
    return std::make_unique<QuantBasicBlock>(
        quantize_conv(block->conv1(), options), block->bn1().clone(),
        quantize_conv(block->conv2(), options), block->bn2().clone(),
        std::move(proj), std::move(proj_bn));
  }
  // Stateless / normalization layers carry over unchanged. Restrict to the
  // kinds we know are weight-free so silent mishandling is impossible.
  const std::string kind = layer.kind();
  const bool passthrough = kind == "relu" || kind == "flatten" ||
                           kind == "maxpool" || kind == "avgpool" ||
                           kind == "bn" || kind == "dropout";
  BDLFI_CHECK_MSG(passthrough, "quantize_network: unsupported layer kind");
  return layer.clone();
}

}  // namespace

nn::Network quantize_network(const nn::Network& golden,
                             const QuantizeOptions& options) {
  // Clone first: quantize_layer reads weights through non-const accessors.
  nn::Network scratch = golden.clone();
  nn::Network out;
  for (std::size_t i = 0; i < scratch.num_layers(); ++i) {
    out.add(scratch.layer_name(i),
            quantize_layer(scratch.layer(i), options));
  }
  return out;
}

}  // namespace bdlfi::quant
