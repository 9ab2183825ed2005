// Numeric kernels on fp32 buffers: GEMM, elementwise, softmax, im2col-based
// convolution and pooling. These are the primitives the nn layers build on;
// keeping them free functions over spans makes them independently testable
// against naive reference implementations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/abft.h"
#include "tensor/tensor.h"

namespace bdlfi::tensor {

// --- GEMM -------------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C with row-major dense storage.
/// op(A) is m×k, op(B) is k×n, C is m×n. Cache-blocked; parallel over row
/// blocks when m*n*k is large.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

/// Tensor-level matmul: a is [m,k], b is [k,n] → [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

// --- Elementwise ------------------------------------------------------------

/// out += x (shapes must match).
void add_inplace(Tensor& out, const Tensor& x);
/// out += alpha * x.
void axpy_inplace(Tensor& out, float alpha, const Tensor& x);
/// Elementwise max(0, x).
void relu_inplace(Tensor& x);
/// grad_in = grad_out where pre_activation > 0 else 0 (in place on grad).
void relu_backward_inplace(Tensor& grad, const Tensor& pre_activation);
/// out[r][c] += bias[c] for a [rows, cols] matrix (dense-layer bias).
void bias_add_rows(Tensor& out, const Tensor& bias);

// --- Softmax / classification ----------------------------------------------

/// Row-wise numerically stable softmax over a [rows, cols] matrix.
Tensor softmax_rows(const Tensor& logits);
/// Row-wise log-softmax.
Tensor log_softmax_rows(const Tensor& logits);
/// Index of the max element of each row of a [rows, cols] matrix.
std::vector<std::int64_t> argmax_rows(const Tensor& m);

// --- Convolution (NCHW, OIHW kernels) ----------------------------------------

struct Conv2dSpec {
  std::int64_t kernel_h = 3, kernel_w = 3;
  std::int64_t stride = 1;
  std::int64_t pad_h = 1, pad_w = 1;

  /// Convenience: sets both paddings (square-kernel "same" use).
  void set_pad(std::int64_t pad) { pad_h = pad_w = pad; }

  std::int64_t out_h(std::int64_t in_h) const {
    return (in_h + 2 * pad_h - kernel_h) / stride + 1;
  }
  std::int64_t out_w(std::int64_t in_w) const {
    return (in_w + 2 * pad_w - kernel_w) / stride + 1;
  }
};

/// Unfolds one sample [C,H,W] into columns [C*kh*kw, OH*OW].
void im2col(const float* input, std::int64_t channels, std::int64_t h,
            std::int64_t w, const Conv2dSpec& spec, float* cols);
/// Accumulating inverse of im2col (used by conv backward-to-input).
void col2im(const float* cols, std::int64_t channels, std::int64_t h,
            std::int64_t w, const Conv2dSpec& spec, float* input_grad);

/// input [N,C,H,W], weight [O,C,kh,kw], bias [O] (may be empty) → [N,O,OH,OW].
/// Allocating wrapper around conv2d_forward_into; a default OpContext (ABFT
/// off, no flips) is the plain convolution.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      const abft::OpContext& ctx = {});

/// Allocation-free conv2d: writes the [N,O,OH,OW] result into `output`
/// (pre-shaped by the caller, must not alias `input`). The batch runs as
/// fused multi-sample [patch, T*OH*OW] panels, one GEMM per tile of T
/// samples, bit-identical per element to one im2col GEMM per sample. Each
/// sample's [O, OH*OW] window of the product then goes through
/// abft::check_product before the bias: transient compute faults in
/// ctx.flips (flat indices into the [N,O,OH,OW] output) land on the raw
/// pre-bias MAC results, and the ABFT row checksums verify/recover per
/// ctx.config, exactly as a per-sample abft::gemm_checked would. An inactive
/// ctx leaves the product untouched, and then the only per-call storage is
/// the thread-local panel and staging scratch, which is grow-once.
void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         const abft::OpContext& ctx, Tensor& output);

/// Gradients of conv2d. grad_output is [N,O,OH,OW]; fills grad_input
/// (same shape as input), grad_weight, grad_bias (accumulated over batch).
/// The batch runs on the pool in two passes over an im2col panel of
/// consecutive samples (bounded by a fixed budget; a larger batch runs in
/// chunks, in sample order): sample tiles compute the column gradient as one
/// wide GEMM each and scatter it back per sample, then grad_weight tiles add
/// every sample's contribution onto their own elements, sample by sample,
/// and sum grad_bias the same way. Every element of all three gradients goes
/// through exactly the floating-point operations, in the same order, of one
/// im2col, one dW gemm_rows (beta 1), one dCols gemm_rows and one col2im per
/// sample in batch order, on either backend: the results are bit-identical
/// to that per-sample loop.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const Conv2dSpec& spec,
                     Tensor& grad_input, Tensor& grad_weight,
                     Tensor& grad_bias);

// --- Pooling -----------------------------------------------------------------

/// 2×2 (or k×k) max pooling with stride = kernel; non-divisible spatial dims
/// floor-divide (the trailing remainder is dropped). Returns output and
/// records the linear index of each selected element for the backward pass.
Tensor maxpool2d_forward(const Tensor& input, std::int64_t kernel,
                         std::vector<std::int64_t>& argmax);
/// Allocation-free variant writing into a pre-shaped output; `argmax` may be
/// null for eval-mode forwards that never run backward.
void maxpool2d_forward_into(const Tensor& input, std::int64_t kernel,
                            Tensor& output, std::vector<std::int64_t>* argmax);
Tensor maxpool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax);

/// Global average pooling: [N,C,H,W] → [N,C].
Tensor global_avgpool_forward(const Tensor& input);
/// Allocation-free variant writing into a pre-shaped [N,C] output.
void global_avgpool_forward_into(const Tensor& input, Tensor& output);
Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape);

}  // namespace bdlfi::tensor
