#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "tensor/backend/backend.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bdlfi::tensor {

namespace {

// Per-thread grow-only scratch arena for the per-tile panels and the GEMM
// output staging. A campaign evaluates the same geometry millions of times,
// so the buffers are sized high-water-mark once per thread. Slots keep the
// simultaneously-live buffers of one tile apart: the forward's panel (0) and
// staged product (1), the backward's column gradient (0) and gathered output
// gradient (1). Both directions size their tiles by panel_tile, so a
// backward tile needs no more scratch than the forward tile of the same
// geometry. Calls never nest within a thread: every conv entry point uses
// its slots only inside its own loop bodies, a tile's GEMM, ABFT
// verification and row recovery are serial, and a thread waiting in
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

// Accumulating inverse of im2col_ld: row r of the patch axis is read from
// cols[r * src_ld + src_col0 ...], so one sample's window of a wide panel
// scatters back into its own [C, H, W] gradient. col2im is the
// src_ld == OH*OW, src_col0 == 0 case.
void col2im_ld(const float* cols, std::int64_t src_ld, std::int64_t src_col0,
               std::int64_t channels, std::int64_t h, std::int64_t w,
               const Conv2dSpec& spec, float* input_grad) {
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw, ++row) {
        const float* src = cols + row * src_ld + src_col0;
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

// Samples per panel tile of a conv over n samples, shared by the forward and
// the backward's first pass. At most ~256 KiB of [patch, T*OH*OW] panel
// (cache-resident across the row-block passes) and a bounded [O, T*OH*OW]
// staging buffer. Within that, the batch splits into up to one tile per pool
// thread, as long as every tile keeps kMinPanelCols columns: a layer whose
// whole batch fits one panel (late ResNet blocks, OH*OW = 4) still spreads
// over the cores, without shrinking panels into the kernels' scalar column
// remainder. Tiles are then evened out so the last one is not a sliver.
std::int64_t panel_tile(std::int64_t n, std::int64_t patch, std::int64_t ohow,
                        std::int64_t o) {
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
  return (n + want_tiles - 1) / want_tiles;
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
  col2im_ld(cols, spec.out_h(h) * spec.out_w(w), 0, channels, h, w, spec,
            input_grad);
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

  const std::int64_t tile = panel_tile(n, patch, ohow, o);
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
  BDLFI_CHECK(input.shape().rank() == 4 && weight.shape().rank() == 4);
  const std::int64_t n = input.shape()[0], c = input.shape()[1],
                     h = input.shape()[2], w = input.shape()[3];
  const std::int64_t o = weight.shape()[0];
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  const std::int64_t ohow = oh * ow;
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  const std::int64_t chw = c * h * w;
  BDLFI_CHECK(patch > 0 && o > 0 && ohow > 0);
  BDLFI_CHECK(grad_output.shape() == Shape({n, o, oh, ow}));

  grad_input = Tensor{input.shape()};
  grad_weight = Tensor{weight.shape()};
  grad_bias = Tensor{Shape{o}};
  if (n == 0) return;

  // The batch runs in consecutive chunks whose im2col columns, side by side,
  // fit one [patch, chunk*OH*OW] panel of at most kPanelBudgetFloats (4 MiB;
  // one sample at least). The panel is allocated per call: a grow-once
  // thread-local one would stay on the calling thread through every later
  // campaign.
  constexpr std::int64_t kPanelBudgetFloats = 1 << 20;
  const std::int64_t chunk =
      std::clamp<std::int64_t>(kPanelBudgetFloats / (patch * ohow), 1, n);
  const auto panel = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(patch * chunk * ohow));

  // grad_weight [O, patch] splits into tiles of kTileRows rows, and their
  // columns into blocks of at least kMinTileCols only as far as needed for a
  // few tiles per pool thread, so that uneven tiles even out.
  constexpr std::int64_t kTileRows = 4, kMinTileCols = 8;
  const auto threads =
      static_cast<std::int64_t>(util::ThreadPool::global().size());
  const std::int64_t tile_rows = std::min(o, kTileRows);
  const std::int64_t row_tiles = (o + tile_rows - 1) / tile_rows;
  const std::int64_t col_split = std::clamp<std::int64_t>(
      (4 * threads + row_tiles - 1) / row_tiles, 1,
      std::max<std::int64_t>(1, patch / kMinTileCols));
  const std::int64_t tile_cols = (patch + col_split - 1) / col_split;
  const std::int64_t col_tiles = (patch + tile_cols - 1) / tile_cols;

  const backend::KernelBackend& be = backend::active();
  for (std::int64_t s0 = 0; s0 < n; s0 += chunk) {
    const std::int64_t cn = std::min(chunk, n - s0);
    const std::int64_t pw = cn * ohow;  // batch panel width

    // Pass 1, over sample tiles: im2col into the batch panel, then
    // dCols = W^T [patch, O] x dOut [O, T*OH*OW] on the tile's gathered
    // output gradient, scattered back per sample by col2im.
    const std::int64_t tile = panel_tile(cn, patch, ohow, o);
    const std::int64_t num_tiles = (cn + tile - 1) / tile;
    util::parallel_for(0, static_cast<std::size_t>(num_tiles),
                       [&](std::size_t ti) {
      const std::int64_t t0 = static_cast<std::int64_t>(ti) * tile;
      const std::int64_t t_n = std::min(tile, cn - t0);
      const std::int64_t tw = t_n * ohow;  // tile panel width
      float* dout = scratch_floats(1, static_cast<std::size_t>(o * tw));
      for (std::int64_t t = 0; t < t_n; ++t) {
        const std::int64_t s = s0 + t0 + t;
        im2col_ld(input.data() + s * chw, c, h, w, spec, panel.get(), pw,
                  (t0 + t) * ohow);
        const float* g = grad_output.data() + s * o * ohow;
        for (std::int64_t oc = 0; oc < o; ++oc) {
          std::copy_n(g + oc * ohow, ohow, dout + oc * tw + t * ohow);
        }
      }
      float* dcols = scratch_floats(0, static_cast<std::size_t>(patch * tw));
      be.gemm_rows(true, false, 0, patch, tw, o, 1.0f, weight.data(), patch,
                   dout, tw, 0.0f, dcols, tw);
      for (std::int64_t t = 0; t < t_n; ++t) {
        col2im_ld(dcols, tw, t * ohow, c, h, w, spec,
                  grad_input.data() + (s0 + t0 + t) * chw);
      }
    });

    // Pass 2, over grad_weight tiles: each tile adds every sample's
    // dOut [rows, OH*OW] x cols^T [OH*OW, cols] onto its own elements in
    // sample order, then the first column of tiles sums grad_bias.
    util::parallel_for(0, static_cast<std::size_t>(row_tiles * col_tiles),
                       [&](std::size_t gi) {
      const std::int64_t r0 = static_cast<std::int64_t>(gi) / col_tiles *
                              tile_rows;
      const std::int64_t r1 = std::min(o, r0 + tile_rows);
      const std::int64_t c0 = static_cast<std::int64_t>(gi) % col_tiles *
                              tile_cols;
      const std::int64_t c1 = std::min(patch, c0 + tile_cols);
      for (std::int64_t s = s0; s < s0 + cn; ++s) {
        be.gemm_rows(false, true, r0, r1, c1 - c0, ohow, 1.0f,
                     grad_output.data() + s * o * ohow, ohow,
                     panel.get() + c0 * pw + (s - s0) * ohow, pw, 1.0f,
                     grad_weight.data() + c0, patch);
      }
      if (c0 != 0) return;
      for (std::int64_t s = s0; s < s0 + cn; ++s) {
        for (std::int64_t oc = r0; oc < r1; ++oc) {
          const float* plane = grad_output.data() + (s * o + oc) * ohow;
          float acc = 0.0f;
          for (std::int64_t i = 0; i < ohow; ++i) acc += plane[i];
          grad_bias[oc] += acc;
        }
      }
    });
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
