// Algorithm-based fault tolerance (ABFT) for the GEMM that carries every
// dense and convolution forward. Classic Huang–Abraham row checksums, adapted
// to float: for C = alpha * op(A) * op(B) with beta = 0, each output row must
// satisfy
//
//   rowsum_i(C) = alpha * sum_l op(A)[i,l] * w[l],   w[l] = sum_j op(B)[l,j]
//
// so one extra pass over the operands predicts every row's checksum. A row
// whose actual sum disagrees beyond a calibrated float tolerance has been
// corrupted *between* the multiply and the check — exactly the transient
// compute-fault model (`SiteKind::kCompute`) — and is either flagged
// (detect-only DUE) or recomputed from the still-clean inputs (recovery).
//
// Tolerance: all checksum arithmetic runs in double, so the only slack needed
// covers the float rounding of the GEMM itself. The standard forward-error
// bound for a length-k float dot product is |fl(x·y) − x·y| ≤ γ_k Σ|x_l y_l|
// with γ_k ≈ k·eps32; summing a row adds at most one more eps32 per stored
// element. We bound row i's magnitude by M_i = Σ_l |op(A)[i,l]| · wabs[l]
// (wabs[l] = Σ_j |op(B)[l,j]|) and accept
//
//   |actual − predicted| ≤ tolerance_scale · eps32 · (k + 2) · M_i
//
// With tolerance_scale ≥ 1 this is a strict worst-case bound — zero false
// positives on any clean GEMM, scalar or AVX2 (FMA only shrinks the error).
// The default of 4 adds headroom for future backends. The flip side: a flip
// of a low mantissa bit can hide inside the tolerance; such faults are
// numerically negligible and land in the masked outcome class anyway.
//
// ABFT here is a *deployment property* of a network (nn::Network::set_abft),
// orthogonal to fault injection: compute faults are injected whether or not
// checking is on, which is what lets campaigns compare unprotected vs
// detect-only vs detect+recover deployments under the same fault model.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bdlfi::tensor::abft {

enum class Mode {
  kOff,      // no checksums: bit-exact with the unchecked forward
  kDetect,   // verify, count mismatched rows, leave them corrupted (DUE)
  kCorrect,  // verify and recompute mismatched rows from the clean inputs
};

const char* mode_name(Mode mode);
/// Parses "off" / "detect" / "correct"; returns false on anything else.
bool parse_mode(const std::string& name, Mode* out);

struct Config {
  Mode mode = Mode::kOff;
  /// Multiplier on the worst-case rounding bound (see file comment). Values
  /// below 1 void the zero-false-positive guarantee.
  double tolerance_scale = 4.0;
};

/// Cumulative ABFT counters. Atomic because conv forwards verify their
/// samples' output windows from tile-parallel loops (util::parallel_for), and
/// every window's check shares one Stats instance.
struct Stats {
  std::atomic<std::uint64_t> checks{0};  // verified products (one per conv
                                         // sample, one per dense GEMM)
  std::atomic<std::uint64_t> rows_checked{0};
  std::atomic<std::uint64_t> detected_rows{0};    // flagged, left corrupted
  std::atomic<std::uint64_t> corrected_rows{0};   // flagged and recomputed
  std::atomic<std::uint64_t> faults_injected{0};  // compute-fault bit flips

  void reset();
};

/// Transient compute faults for one op: (flat element index within the op's
/// full output tensor, bit). Must be sorted by element index.
using FlipList = std::vector<std::pair<std::int64_t, int>>;

/// Per-op checking context a network installs on a layer for one forward.
/// `flips` (optional) are applied to the raw GEMM output before verification
/// — faults strike mid-compute, so recovery recomputes *without* them.
struct OpContext {
  Config config;
  Stats* stats = nullptr;    // optional counter sink
  const FlipList* flips = nullptr;
};

/// C = alpha * op(A) * op(B) (beta = 0 by construction: every forward GEMM
/// overwrites its output), then check_product on the result.
void gemm_checked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                  std::int64_t ldc, const OpContext& ctx,
                  std::int64_t elem_base);

/// The checking half of gemm_checked, for a product C = alpha * op(A) * op(B)
/// the caller has already computed: compute-fault injection, then
/// row-checksum verification (and, in kCorrect, recomputation) per
/// ctx.config. `elem_base` is the flat index of C's element (0,0) within the
/// op's full output tensor; the logical output block is the row-major [m, n]
/// window whose rows sit ldc apart. A conv verifies each sample's
/// [O, OH*OW] window of its panel product this way, with ldb = ldc = the
/// panel width. Verification is serial — conv callers already run their
/// tiles in parallel above this.
void check_product(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc, const OpContext& ctx,
                   std::int64_t elem_base);

}  // namespace bdlfi::tensor::abft
