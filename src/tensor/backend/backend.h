// Runtime-dispatched kernel backends. Every hot numeric primitive the
// campaign loop touches — the GEMM microkernel, elementwise ops, softmax,
// the fused argmax+finiteness logits scan, and the fault-mask XOR — goes
// through one table of function pointers so a SIMD implementation can be
// swapped in per process without recompiling callers.
//
// Policy (DESIGN.md §8): the `scalar` table is the reference semantics and
// the default — checkpoints, tests, and resume all assume it. Vectorized
// backends are opt-in via BDLFI_BACKEND=avx2 (or `auto` for CPUID-best) and
// may differ from scalar by rounding (FMA contraction) but never by shape,
// NaN policy, or argmax tie-breaking.
//
// Threading stays ABOVE this table: tensor::gemm keeps its
// util::parallel_for row tiling and hands each backend a serial row range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bdlfi::tensor::backend {

struct KernelBackend {
  const char* name;

  /// Serial GEMM microkernel over row range [r0, r1) of C:
  /// C = alpha * op(A) * op(B) + beta * C, row-major.
  void (*gemm_rows)(bool trans_a, bool trans_b, std::int64_t r0,
                    std::int64_t r1, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float beta, float* c,
                    std::int64_t ldc);

  /// Multi-variant GEMM against one shared panel: C_v = A_v * B for each of
  /// `variants` weight matrices, with A_v [m x k] row-major (lda), B [k x n]
  /// row-major (ldb) shared by every variant, and C_v [m x n] (ldc). Fixed
  /// alpha = 1, beta = 0. Per-element results are REQUIRED to be bit-identical
  /// to gemm_rows(false, false, 0, m, n, k, 1, A_v, lda, B, ldb, 0, C_v, ldc)
  /// on the same table — the panel conv (one variant) relies on that for
  /// exact parity with per-sample GEMMs, ABFT-checked ones included. With
  /// alpha and beta baked in, the AVX2 kernel runs 6-row blocks where
  /// gemm_rows runs 4.
  void (*gemm_variants)(std::int64_t m, std::int64_t n, std::int64_t k,
                        const float* const* a, std::size_t variants,
                        std::int64_t lda, const float* b, std::int64_t ldb,
                        float* const* c, std::int64_t ldc);

  /// out[i] += x[i].
  void (*add)(float* out, const float* x, std::int64_t n);
  /// out[i] += alpha * x[i].
  void (*axpy)(float* out, float alpha, const float* x, std::int64_t n);
  /// x[i] = max(0, x[i]).
  void (*relu)(float* x, std::int64_t n);
  /// grad[i] = 0 where z[i] <= 0.
  void (*relu_backward)(float* grad, const float* z, std::int64_t n);
  /// out[r*cols + c] += bias[c] for every row r.
  void (*bias_add_rows)(float* out, const float* bias, std::int64_t rows,
                        std::int64_t cols);
  /// x[i] += value (conv per-plane bias).
  void (*add_const)(float* x, float value, std::int64_t n);

  /// One numerically hardened softmax row (the scalar reference defines the
  /// +inf mass-split / all-NaN-uniform policy; see tensor::softmax_rows).
  void (*softmax_row)(const float* in, float* out, std::int64_t cols);

  /// Fused argmax + finiteness scan of one logits row. Argmax semantics are
  /// sequential and NaN-insensitive: a candidate displaces the incumbent only
  /// when strictly greater, so NaNs never win and ties keep the first index.
  void (*argmax_finite_row)(const float* row, std::int64_t cols,
                            std::int64_t* best, bool* all_finite);

  /// Fault-mask XOR apply/revert: *ptrs[i] ^= xor_masks[i] on the binary32
  /// encoding. Self-inverse; pointers may repeat.
  void (*mask_xor)(float* const* ptrs, const std::uint32_t* xor_masks,
                   std::size_t count);

  /// ABFT checksum reductions (tensor/abft.cpp). All accumulate in double;
  /// backends may differ from scalar by summation order (and thus rounding)
  /// — the checksum tolerance absorbs that, like GEMM's FMA contraction.
  ///
  /// Input checksums of op(B) [k x n]: w[l] += sum_j op(B)[l,j] and
  /// wabs[l] += sum_j |op(B)[l,j]| (callers pass zeroed w/wabs).
  void (*abft_col_sums)(bool trans_b, std::int64_t n, std::int64_t k,
                        const float* b, std::int64_t ldb, double* w,
                        double* wabs);
  /// Checksum dot of one op(A) row (elements x[0], x[stride], ...):
  /// *dot = sum_l x[l*stride] * w[l], *mag = sum_l |x[l*stride]| * wabs[l].
  void (*abft_row_dot)(const float* x, std::int64_t stride, const double* w,
                       const double* wabs, std::int64_t k, double* dot,
                       double* mag);
  /// Returns sum_j row[j] in double. Because double accumulation of binary32
  /// values cannot overflow, the result is non-finite iff the row holds a
  /// non-finite element — callers use std::isfinite(sum) as the row scan.
  double (*abft_row_sum)(const float* row, std::int64_t n);
};

/// The scalar reference table (always available, always the default).
const KernelBackend& scalar_backend();

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2+FMA table; compiled on x86-64 only. Callers must gate on
/// avx2_supported() before activating it.
const KernelBackend& avx2_backend();
#endif

/// True when this build has an AVX2 table AND the CPU reports AVX2+FMA.
bool avx2_supported();

/// The currently active table. Resolved on first use from BDLFI_BACKEND
/// ("scalar", "avx2", or "auto" = best supported); unset/empty means scalar.
const KernelBackend& active();
/// Name of the active table ("scalar" or "avx2").
const char* active_name();

/// Backend names this process can activate (scalar first).
std::vector<std::string> available();

/// Activates a backend by name ("scalar", "avx2", "auto"). Returns false and
/// fills *error (if non-null) when the name is unknown or unsupported on
/// this CPU — the active backend is left unchanged in that case.
bool set_active(const std::string& name, std::string* error = nullptr);

/// Result of resolve(): which backend ended up active and why.
struct Resolution {
  std::string name;          // active backend name after resolution
  const char* source = "";   // "flag", "env", or "default"
  bool ok = true;            // false: the explicit request was unusable;
                             // `error` says why and the active backend is
                             // unchanged (callers typically exit 2)
  std::string error;
};

/// One-stop backend selection policy shared by the CLI, the benches, and
/// fleet workers — the single place the "flag beats env beats default"
/// precedence lives:
///   1. a non-empty `flag` (from --backend=...) is applied strictly: an
///      unusable name returns ok = false without touching the active table,
///      because silently falling back would invalidate a backend comparison;
///   2. else a non-empty `env` (normally the BDLFI_BACKEND value) is applied
///      with fallback-to-scalar on error plus a stderr note, matching the
///      lazy env resolution active() performs on first use;
///   3. else the current resolution stands (scalar unless something already
///      switched tables).
Resolution resolve(const std::string& flag, const char* env);

/// Overload reading BDLFI_BACKEND from the process environment.
Resolution resolve(const std::string& flag);

}  // namespace bdlfi::tensor::backend
