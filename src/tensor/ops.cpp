#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/backend/backend.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bdlfi::tensor {

namespace {

// Per-thread grow-only scratch arena for the im2col panels and the GEMM
// output staging. A campaign evaluates the same geometry millions of times,
// so the buffers are sized high-water-mark once per thread. Slots keep the
// simultaneously-live buffers of one call apart: the forward's panel (0) and
// staged product (1), the backward's columns (0) and their gradient (1).
// Calls never nest within a thread: every conv entry point uses its slots
// only inside its own loop bodies, a forward tile's GEMM, ABFT verification
// and row recovery are serial, the backward's only parallel call is gemm's
// row split (whose chunks touch no scratch), and a thread waiting in
// parallel_for runs chunks of its own call only (util/thread_pool.h). A
// slot grows to at least kMinScratchFloats at once: which tiles a thread
// claims varies from call to call, and the floor keeps a thread that has run
// any tile from allocating again for every later small panel.
float* scratch_floats(std::size_t slot, std::size_t n) {
  constexpr std::size_t kMinScratchFloats = 64 * 1024;
  thread_local std::vector<float> buffers[2];
  std::vector<float>& buf = buffers[slot];
  if (buf.size() < n) buf.resize(std::max(n, kMinScratchFloats));
  return buf.data();
}

// im2col into a panel with an explicit destination leading dimension: row r
// of the patch axis lands at cols[r * dst_ld + dst_col0 ...]. This is how
// several samples' columns fuse side by side into one wide [patch, T*OH*OW]
// panel. im2col is the dst_ld == OH*OW, dst_col0 == 0 case.
void im2col_ld(const float* input, std::int64_t channels, std::int64_t h,
               std::int64_t w, const Conv2dSpec& spec, float* cols,
               std::int64_t dst_ld, std::int64_t dst_col0) {
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw, ++row) {
        float* dst = cols + row * dst_ld + dst_col0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.pad_h + kh;
          if (iy < 0 || iy >= h) {
            std::fill(dst + oy * ow, dst + (oy + 1) * ow, 0.0f);
            continue;
          }
          const float* src_row = input + (c * h + iy) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * spec.stride - spec.pad_w + kw;
            dst[oy * ow + ox] = (ix >= 0 && ix < w) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace

// The per-element kernels live in the active backend::KernelBackend table
// (scalar reference or AVX2; see backend/backend.h). This file keeps the
// shape checking, threading, and the loop nests whose cost is index math
// rather than arithmetic (im2col, pooling).

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  BDLFI_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  const backend::KernelBackend& be = backend::active();
  const std::int64_t flops = m * n * k;
  if (flops < (1 << 18) || m < 4) {
    be.gemm_rows(trans_a, trans_b, 0, m, n, k, alpha, a, lda, b, ldb, beta, c,
                 ldc);
    return;
  }
  util::parallel_for_chunked(
      0, static_cast<std::size_t>(m), util::ThreadPool::global().size(),
      [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
        be.gemm_rows(trans_a, trans_b, static_cast<std::int64_t>(lo),
                     static_cast<std::int64_t>(hi), n, k, alpha, a, lda, b,
                     ldb, beta, c, ldc);
      });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  BDLFI_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  const std::int64_t m = a.shape()[0], k = a.shape()[1];
  BDLFI_CHECK_MSG(b.shape()[0] == k, "matmul inner dimensions differ");
  const std::int64_t n = b.shape()[1];
  Tensor c{Shape{m, n}};
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
       n);
  return c;
}

void add_inplace(Tensor& out, const Tensor& x) {
  BDLFI_CHECK(out.shape() == x.shape());
  backend::active().add(out.data(), x.data(), out.numel());
}

void axpy_inplace(Tensor& out, float alpha, const Tensor& x) {
  BDLFI_CHECK(out.shape() == x.shape());
  backend::active().axpy(out.data(), alpha, x.data(), out.numel());
}

void relu_inplace(Tensor& x) {
  backend::active().relu(x.data(), x.numel());
}

void relu_backward_inplace(Tensor& grad, const Tensor& pre_activation) {
  BDLFI_CHECK(grad.shape() == pre_activation.shape());
  backend::active().relu_backward(grad.data(), pre_activation.data(),
                                  grad.numel());
}

void bias_add_rows(Tensor& out, const Tensor& bias) {
  BDLFI_CHECK(out.shape().rank() == 2);
  BDLFI_CHECK_MSG(bias.numel() == out.shape()[1],
                  "bias length must match row width");
  backend::active().bias_add_rows(out.data(), bias.data(), out.shape()[0],
                                  out.shape()[1]);
}

Tensor softmax_rows(const Tensor& logits) {
  BDLFI_CHECK(logits.shape().rank() == 2);
  const std::int64_t rows = logits.shape()[0], cols = logits.shape()[1];
  Tensor out{logits.shape()};
  const backend::KernelBackend& be = backend::active();
  for (std::int64_t r = 0; r < rows; ++r) {
    be.softmax_row(logits.data() + r * cols, out.data() + r * cols, cols);
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  BDLFI_CHECK(logits.shape().rank() == 2);
  const std::int64_t rows = logits.shape()[0], cols = logits.shape()[1];
  Tensor out{logits.shape()};
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < cols; ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) sum += std::exp(in[c] - mx);
    const float lse = mx + std::log(sum);
    for (std::int64_t c = 0; c < cols; ++c) o[c] = in[c] - lse;
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& m) {
  BDLFI_CHECK(m.shape().rank() == 2);
  const std::int64_t rows = m.shape()[0], cols = m.shape()[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const backend::KernelBackend& be = backend::active();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t best = 0;
    bool finite = false;
    be.argmax_finite_row(m.data() + r * cols, cols, &best, &finite);
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

void im2col(const float* input, std::int64_t channels, std::int64_t h,
            std::int64_t w, const Conv2dSpec& spec, float* cols) {
  im2col_ld(input, channels, h, w, spec, cols, spec.out_h(h) * spec.out_w(w),
            0);
}

void col2im(const float* cols, std::int64_t channels, std::int64_t h,
            std::int64_t w, const Conv2dSpec& spec, float* input_grad) {
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  const std::int64_t cols_w = oh * ow;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw, ++row) {
        const float* src = cols + row * cols_w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.pad_h + kh;
          if (iy < 0 || iy >= h) continue;
          float* dst_row = input_grad + (c * h + iy) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * spec.stride - spec.pad_w + kw;
            if (ix >= 0 && ix < w) dst_row[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      const abft::OpContext& ctx) {
  const std::int64_t n = input.shape()[0], h = input.shape()[2],
                     w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  Tensor output{Shape{n, o, spec.out_h(h), spec.out_w(w)}};
  conv2d_forward_into(input, weight, bias, spec, ctx, output);
  return output;
}

void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         const abft::OpContext& ctx, Tensor& output) {
  BDLFI_CHECK(input.shape().rank() == 4 && weight.shape().rank() == 4);
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  BDLFI_CHECK_MSG(weight.shape()[1] == c, "conv2d channel mismatch");
  BDLFI_CHECK(weight.shape()[2] == spec.kernel_h &&
              weight.shape()[3] == spec.kernel_w);
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  const std::int64_t ohow = oh * ow;
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  const std::int64_t chw = c * h * w;
  BDLFI_CHECK(output.shape() == Shape({n, o, oh, ow}));
  BDLFI_CHECK_MSG(output.data() != input.data(),
                  "conv2d_forward_into cannot run in place");
  if (n == 0) return;

  // Samples per panel. At most ~256 KiB of panel (cache-resident across the
  // row-block passes) and a bounded per-tile output staging buffer. Within
  // that, the batch splits into up to one tile per pool thread, as long as
  // every tile keeps kMinPanelCols columns: a layer whose whole batch fits
  // one panel (late ResNet blocks, OH*OW = 4) still spreads over the cores,
  // without shrinking panels into the kernels' scalar column remainder.
  // Tiles are then evened out so the last one is not a sliver.
  constexpr std::int64_t kPanelFloats = 64 * 1024;
  constexpr std::int64_t kMinPanelCols = 64;
  const std::int64_t max_tile = std::min(
      std::clamp<std::int64_t>(
          kPanelFloats / std::max<std::int64_t>(1, patch * ohow), 1, n),
      std::max<std::int64_t>(1, (4 << 20) / (o * ohow)));
  const auto threads =
      static_cast<std::int64_t>(util::ThreadPool::global().size());
  const std::int64_t want_tiles = std::clamp<std::int64_t>(
      std::max((n + max_tile - 1) / max_tile,
               std::min(threads, n * ohow / kMinPanelCols)),
      1, n);
  const std::int64_t tile = (n + want_tiles - 1) / want_tiles;
  const std::int64_t num_tiles = (n + tile - 1) / tile;

  const float* bias_data = bias.empty() ? nullptr : bias.data();
  const backend::KernelBackend& be = backend::active();
  util::parallel_for(0, static_cast<std::size_t>(num_tiles), [&](std::size_t ti) {
    const std::int64_t t0 = static_cast<std::int64_t>(ti) * tile;
    const std::int64_t t_n = std::min(tile, n - t0);
    const std::int64_t pw = t_n * ohow;  // fused panel width
    float* panel =
        scratch_floats(0, static_cast<std::size_t>(patch * pw));
    for (std::int64_t t = 0; t < t_n; ++t) {
      im2col_ld(input.data() + (t0 + t) * chw, c, h, w, spec, panel, pw,
                t * ohow);
    }
    // [O, patch] x [patch, T*OH*OW]. gemm_variants with one variant bakes
    // in alpha = 1 and beta = 0 (6-row blocks on AVX2) and is bit-identical
    // per element to per-sample gemm_rows (backend.h: panel width never
    // changes a GEMM element).
    float* staged = scratch_floats(1, static_cast<std::size_t>(o * pw));
    const float* a_list[1] = {weight.data()};
    float* c_list[1] = {staged};
    be.gemm_variants(o, pw, patch, a_list, 1, patch, panel, pw, c_list, pw);
    for (std::int64_t t = 0; t < t_n; ++t) {
      const std::int64_t s = t0 + t;
      // Sample s's [O, OH*OW] window of the product, over its own panel
      // columns, is the checked product a per-sample GEMM would be: its
      // compute flips start at s*O*OH*OW, and both strides are the panel
      // width. Checked before the bias, like gemm_checked's callers.
      abft::check_product(false, false, o, ohow, patch, 1.0f, weight.data(),
                          patch, panel + t * ohow, pw, staged + t * ohow, pw,
                          ctx, s * o * ohow);
      float* out = output.data() + s * o * ohow;
      for (std::int64_t oc = 0; oc < o; ++oc) {
        std::copy_n(staged + oc * pw + t * ohow, ohow, out + oc * ohow);
      }
      if (bias_data != nullptr) {
        for (std::int64_t oc = 0; oc < o; ++oc) {
          be.add_const(out + oc * ohow, bias_data[oc], ohow);
        }
      }
    }
  });
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const Conv2dSpec& spec,
                     Tensor& grad_input, Tensor& grad_weight,
                     Tensor& grad_bias) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;

  grad_input = Tensor{input.shape()};
  grad_weight = Tensor{weight.shape()};
  grad_bias = Tensor{Shape{o}};

  // Serial over batch: grad_weight accumulation would race otherwise, and the
  // inner GEMMs already parallelize.
  float* cols = scratch_floats(0, static_cast<std::size_t>(patch * oh * ow));
  float* dcols = scratch_floats(1, static_cast<std::size_t>(patch * oh * ow));
  for (std::int64_t s = 0; s < n; ++s) {
    const float* in = input.data() + s * c * h * w;
    const float* dout = grad_output.data() + s * o * oh * ow;
    im2col(in, c, h, w, spec, cols);
    // dW += dOut [O, OH*OW] x cols^T [OH*OW, patch]
    gemm(false, true, o, patch, oh * ow, 1.0f, dout, oh * ow, cols,
         oh * ow, 1.0f, grad_weight.data(), patch);
    // dCols = W^T [patch, O] x dOut [O, OH*OW]
    gemm(true, false, patch, oh * ow, o, 1.0f, weight.data(), patch, dout,
         oh * ow, 0.0f, dcols, oh * ow);
    col2im(dcols, c, h, w, spec, grad_input.data() + s * c * h * w);
    for (std::int64_t oc = 0; oc < o; ++oc) {
      const float* plane = dout + oc * oh * ow;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < oh * ow; ++i) acc += plane[i];
      grad_bias[oc] += acc;
    }
  }
}

Tensor maxpool2d_forward(const Tensor& input, std::int64_t kernel,
                         std::vector<std::int64_t>& argmax) {
  BDLFI_CHECK(input.shape().rank() == 4);
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  Tensor out{Shape{n, c, h / kernel, w / kernel}};
  maxpool2d_forward_into(input, kernel, out, &argmax);
  return out;
}

void maxpool2d_forward_into(const Tensor& input, std::int64_t kernel,
                            Tensor& out, std::vector<std::int64_t>* argmax) {
  BDLFI_CHECK(input.shape().rank() == 4);
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  // Floor division: a trailing remainder of rows/columns narrower than the
  // window is dropped, matching the common framework default for this
  // stride-=-kernel pooling. Previously non-divisible dims hard-failed.
  BDLFI_CHECK_MSG(kernel > 0 && h >= kernel && w >= kernel,
                  "maxpool2d input smaller than the pooling window");
  const std::int64_t oh = h / kernel, ow = w / kernel;
  BDLFI_CHECK(out.shape() == Shape({n, c, oh, ow}));
  if (argmax != nullptr) {
    argmax->assign(static_cast<std::size_t>(out.numel()), 0);
  }
  std::int64_t oi = 0;
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (s * c + ch) * h * w;
      const std::int64_t plane_off = (s * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = plane_off + (oy * kernel) * w + ox * kernel;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * kernel + ky;
              const std::int64_t ix = ox * kernel + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_off + iy * w + ix;
              }
            }
          }
          out[oi] = best;
          if (argmax != nullptr) {
            (*argmax)[static_cast<std::size_t>(oi)] = best_idx;
          }
        }
      }
    }
  }
}

Tensor maxpool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax) {
  Tensor grad_in{input_shape};
  BDLFI_CHECK(argmax.size() ==
              static_cast<std::size_t>(grad_output.numel()));
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_in[argmax[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_in;
}

Tensor global_avgpool_forward(const Tensor& input) {
  BDLFI_CHECK(input.shape().rank() == 4);
  Tensor out{Shape{input.shape()[0], input.shape()[1]}};
  global_avgpool_forward_into(input, out);
  return out;
}

void global_avgpool_forward_into(const Tensor& input, Tensor& out) {
  BDLFI_CHECK(input.shape().rank() == 4);
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  BDLFI_CHECK(out.shape() == Shape({n, c}));
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (s * c + ch) * h * w;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < h * w; ++i) acc += plane[i];
      out.at(s, ch) = acc * inv;
    }
  }
}

Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape) {
  BDLFI_CHECK(grad_output.shape().rank() == 2 && input_shape.rank() == 4);
  const std::int64_t n = input_shape[0], c = input_shape[1],
                     h = input_shape[2], w = input_shape[3];
  Tensor grad_in{input_shape};
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at(s, ch) * inv;
      float* plane = grad_in.data() + (s * c + ch) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

}  // namespace bdlfi::tensor
