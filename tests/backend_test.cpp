// Kernel-backend parity suite (DESIGN.md §8): every KernelBackend entry is
// swept over randomized shapes and compared against the scalar reference —
// exactly equal where the contract promises bit-identical semantics
// (elementwise, softmax, argmax, mask XOR), and within an FMA rounding bound
// against a double-precision oracle where it does not (gemm, axpy).
//
// The vectorized half of every parity test self-skips on CPUs without
// AVX2+FMA; the registry and scalar-oracle halves always run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace bdlfi::tensor::backend {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> random_vec(util::Rng& rng, std::size_t n,
                              double scale = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(scale * (rng.uniform() - 0.5));
  return v;
}

const KernelBackend* vector_backend_or_skip_marker() {
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2_supported()) return &avx2_backend();
#endif
  return nullptr;
}

#define VECTOR_BACKEND_OR_SKIP(var)                                    \
  const KernelBackend* var = vector_backend_or_skip_marker();          \
  if (var == nullptr) GTEST_SKIP() << "CPU/build lacks the AVX2 table"

// ---------------------------------------------------------------------------
// Registry behavior.

TEST(BackendRegistry, ScalarIsAlwaysAvailableAndRestorable) {
  const auto names = available();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_TRUE(set_active("scalar"));
  EXPECT_STREQ(active_name(), "scalar");
  EXPECT_EQ(active().gemm_rows, scalar_backend().gemm_rows);
}

TEST(BackendRegistry, UnknownNameIsRejectedWithoutSwitching) {
  ASSERT_TRUE(set_active("scalar"));
  std::string error;
  EXPECT_FALSE(set_active("sse9000", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_STREQ(active_name(), "scalar");
}

TEST(BackendRegistry, AutoPicksTheBestSupportedTable) {
  std::string error;
  ASSERT_TRUE(set_active("auto", &error)) << error;
  if (avx2_supported()) {
    EXPECT_STREQ(active_name(), "avx2");
  } else {
    EXPECT_STREQ(active_name(), "scalar");
  }
  ASSERT_TRUE(set_active("scalar"));  // restore the suite-wide default
}

TEST(BackendRegistry, Avx2RequiresCpuSupport) {
  std::string error;
  const bool ok = set_active("avx2", &error);
  EXPECT_EQ(ok, avx2_supported());
  if (!ok) {
    EXPECT_FALSE(error.empty());
  }
  ASSERT_TRUE(set_active("scalar"));
}

// ---------------------------------------------------------------------------
// GEMM: both tables against a double-precision oracle, all transpose flags.

void reference_gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const std::vector<float>& a,
                    const std::vector<float>& b, float beta,
                    std::vector<float>& c) {
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = trans_a ? a[kk * lda + i] : a[i * lda + kk];
        const float bkj = trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += static_cast<double>(aik) * static_cast<double>(bkj);
      }
      const double base =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * c[i * n + j];
      c[i * n + j] = static_cast<float>(base + alpha * acc);
    }
  }
}

void check_gemm_against_oracle(const KernelBackend& be, bool trans_a,
                               bool trans_b, std::int64_t m, std::int64_t n,
                               std::int64_t k, float alpha, float beta,
                               util::Rng& rng) {
  const auto a = random_vec(rng, static_cast<std::size_t>(m * k));
  const auto b = random_vec(rng, static_cast<std::size_t>(k * n));
  auto c = random_vec(rng, static_cast<std::size_t>(m * n));
  auto expected = c;
  reference_gemm(trans_a, trans_b, m, n, k, alpha, a, b, beta, expected);
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  be.gemm_rows(trans_a, trans_b, 0, m, n, k, alpha, a.data(), lda, b.data(),
               ldb, beta, c.data(), n);
  // FMA vs separate rounding: each of the k products carries at most one
  // half-ulp difference, so bound the error relative to the accumulated
  // magnitude rather than demanding bit equality.
  const double tol = 1e-5 * (std::sqrt(static_cast<double>(k)) + 4.0);
  for (std::int64_t i = 0; i < m * n; ++i) {
    const double mag =
        std::max(1.0, std::abs(static_cast<double>(expected[i])));
    ASSERT_NEAR(c[i], expected[i], tol * mag)
        << be.name << " ta=" << trans_a << " tb=" << trans_b << " m=" << m
        << " n=" << n << " k=" << k << " i=" << i;
  }
}

TEST(BackendParity, GemmMatchesDoubleOracleOverRandomShapes) {
  util::Rng rng{101};
  const KernelBackend* vec = vector_backend_or_skip_marker();
  for (int round = 0; round < 24; ++round) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng() % 17);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng() % 33);
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng() % 47);
    const bool trans_a = (rng() & 1) != 0;
    const bool trans_b = (rng() & 1) != 0;
    const float alpha = (round % 5 == 0) ? -0.5f : 1.0f;
    const float beta = (round % 3 == 0) ? 0.0f : (round % 3 == 1 ? 1.0f : 0.25f);
    check_gemm_against_oracle(scalar_backend(), trans_a, trans_b, m, n, k,
                              alpha, beta, rng);
    if (vec != nullptr) {
      check_gemm_against_oracle(*vec, trans_a, trans_b, m, n, k, alpha, beta,
                                rng);
    }
  }
}

TEST(BackendParity, GemmBetaZeroIgnoresGarbageC) {
  // beta == 0 must overwrite C even when it holds NaN (freshly allocated
  // buffers are not zeroed); 0 * NaN would otherwise poison the result.
  util::Rng rng{102};
  const std::int64_t m = 7, n = 19, k = 11;
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, k * n);
  auto check = [&](const KernelBackend& be) {
    std::vector<float> c(static_cast<std::size_t>(m * n), kNan);
    be.gemm_rows(false, false, 0, m, n, k, 1.0f, a.data(), k, b.data(), n,
                 0.0f, c.data(), n);
    for (const float v : c) ASSERT_TRUE(std::isfinite(v)) << be.name;
  };
  check(scalar_backend());
  VECTOR_BACKEND_OR_SKIP(vec);
  check(*vec);
}

// ---------------------------------------------------------------------------
// Elementwise kernels: bit-identical to scalar, NaN policy included.

TEST(BackendParity, AddAndAddConstAndBiasAreExact) {
  VECTOR_BACKEND_OR_SKIP(vec);
  util::Rng rng{103};
  for (const std::size_t n : {1u, 7u, 8u, 9u, 64u, 1000u}) {
    const auto x = random_vec(rng, n);
    auto a = random_vec(rng, n);
    auto b = a;
    scalar_backend().add(a.data(), x.data(), static_cast<std::int64_t>(n));
    vec->add(b.data(), x.data(), static_cast<std::int64_t>(n));
    EXPECT_EQ(a, b) << "add n=" << n;

    a = b;
    auto a2 = a;
    scalar_backend().add_const(a.data(), 0.375f,
                               static_cast<std::int64_t>(n));
    vec->add_const(a2.data(), 0.375f, static_cast<std::int64_t>(n));
    EXPECT_EQ(a, a2) << "add_const n=" << n;
  }
  const std::int64_t rows = 5, cols = 37;
  const auto bias = random_vec(rng, cols);
  auto m1 = random_vec(rng, rows * cols);
  auto m2 = m1;
  scalar_backend().bias_add_rows(m1.data(), bias.data(), rows, cols);
  vec->bias_add_rows(m2.data(), bias.data(), rows, cols);
  EXPECT_EQ(m1, m2);
}

TEST(BackendParity, ReluAndBackwardMatchScalarIncludingNaN) {
  VECTOR_BACKEND_OR_SKIP(vec);
  util::Rng rng{104};
  for (const std::size_t n : {3u, 8u, 23u, 256u}) {
    auto x = random_vec(rng, n);
    if (n >= 8) {
      x[1] = kNan;
      x[5] = -kInf;
      x[6] = kInf;
      x[7] = -0.0f;
    }
    auto y = x;
    scalar_backend().relu(x.data(), static_cast<std::int64_t>(n));
    vec->relu(y.data(), static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x[i]),
                std::bit_cast<std::uint32_t>(y[i]))
          << "relu n=" << n << " i=" << i;
    }

    auto z = random_vec(rng, n);
    if (n >= 8) {
      z[2] = kNan;  // scalar keeps the gradient when z is NaN (!(z <= 0))
      z[3] = 0.0f;
      z[4] = -0.0f;
    }
    auto g1 = random_vec(rng, n);
    auto g2 = g1;
    scalar_backend().relu_backward(g1.data(), z.data(),
                                   static_cast<std::int64_t>(n));
    vec->relu_backward(g2.data(), z.data(), static_cast<std::int64_t>(n));
    EXPECT_EQ(g1, g2) << "relu_backward n=" << n;
  }
}

TEST(BackendParity, AxpyWithinFmaRounding) {
  VECTOR_BACKEND_OR_SKIP(vec);
  util::Rng rng{105};
  for (const std::size_t n : {1u, 8u, 17u, 500u}) {
    const auto x = random_vec(rng, n);
    auto a = random_vec(rng, n);
    auto b = a;
    scalar_backend().axpy(a.data(), 1.5f, x.data(),
                          static_cast<std::int64_t>(n));
    vec->axpy(b.data(), 1.5f, x.data(), static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-5 * std::max(1.0f, std::abs(a[i])))
          << "axpy n=" << n << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Softmax / argmax: exact parity, corrupt rows included.

TEST(BackendParity, SoftmaxRowExactParity) {
  VECTOR_BACKEND_OR_SKIP(vec);
  util::Rng rng{106};
  std::vector<std::vector<float>> rows;
  for (const std::size_t n : {2u, 7u, 8u, 10u, 100u}) {
    rows.push_back(random_vec(rng, n, 8.0));
  }
  rows.push_back({1.0f, kInf, 3.0f, kInf, -2.0f, 0.0f, 1.0f, 2.0f});  // ties
  rows.push_back(std::vector<float>(12, kNan));                 // all NaN
  rows.push_back(std::vector<float>(9, -kInf));                 // all -inf
  rows.push_back({88.0f, 89.0f, 90.0f, 91.0f, 87.5f, 90.5f, 1.0f, 2.0f,
                  3.0f});  // large logits: exp overflow guarded by max-shift
  for (const auto& row : rows) {
    const auto cols = static_cast<std::int64_t>(row.size());
    std::vector<float> o1(row.size()), o2(row.size());
    scalar_backend().softmax_row(row.data(), o1.data(), cols);
    vec->softmax_row(row.data(), o2.data(), cols);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(o1[i]),
                std::bit_cast<std::uint32_t>(o2[i]))
          << "cols=" << cols << " i=" << i;
    }
  }
}

TEST(BackendParity, ArgmaxFiniteRowExactParity) {
  VECTOR_BACKEND_OR_SKIP(vec);
  util::Rng rng{107};
  std::vector<std::vector<float>> rows;
  for (const std::size_t n : {1u, 2u, 10u, 15u, 16u, 17u, 40u, 129u}) {
    rows.push_back(random_vec(rng, n, 6.0));
  }
  {
    auto tie = random_vec(rng, 48, 1.0);
    tie[7] = tie[29] = tie[41] = 5.0f;  // the first max index must win
    rows.push_back(tie);
    auto nan_first = random_vec(rng, 32, 1.0);
    nan_first[0] = kNan;  // NaN incumbent at index 0 is never displaced
    nan_first[20] = 9.0f;
    rows.push_back(nan_first);
    auto nan_late = random_vec(rng, 32, 1.0);
    nan_late[31] = kNan;
    rows.push_back(nan_late);
    auto has_inf = random_vec(rng, 24, 1.0);
    has_inf[13] = kInf;
    rows.push_back(has_inf);
    rows.push_back(std::vector<float>(64, -3.25f));  // total tie → index 0
  }
  for (const auto& row : rows) {
    const auto cols = static_cast<std::int64_t>(row.size());
    std::int64_t b1 = -1, b2 = -1;
    bool f1 = true, f2 = true;
    scalar_backend().argmax_finite_row(row.data(), cols, &b1, &f1);
    vec->argmax_finite_row(row.data(), cols, &b2, &f2);
    EXPECT_EQ(b1, b2) << "cols=" << cols;
    EXPECT_EQ(f1, f2) << "cols=" << cols;
  }
}

TEST(BackendParity, MaskXorIsSelfInverseOnBothTables) {
  util::Rng rng{108};
  auto data = random_vec(rng, 40);
  const auto original = data;
  std::vector<float*> ptrs;
  std::vector<std::uint32_t> masks;
  for (std::size_t i = 0; i < data.size(); i += 3) {
    ptrs.push_back(&data[i]);
    masks.push_back(std::uint32_t{1} << (i % 32));
  }
  const KernelBackend* tables[] = {&scalar_backend(),
                                   vector_backend_or_skip_marker()};
  for (const KernelBackend* be : tables) {
    if (be == nullptr) continue;
    be->mask_xor(ptrs.data(), masks.data(), ptrs.size());
    for (std::size_t i = 0; i < data.size(); i += 3) {
      EXPECT_NE(std::bit_cast<std::uint32_t>(data[i]),
                std::bit_cast<std::uint32_t>(original[i]));
    }
    be->mask_xor(ptrs.data(), masks.data(), ptrs.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(data[i]),
                std::bit_cast<std::uint32_t>(original[i]))
          << be->name << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatched tensor ops agree across backends (the rewired call sites).

TEST(BackendDispatch, GemmThroughActiveBackendMatchesScalar) {
  if (!avx2_supported()) GTEST_SKIP() << "CPU/build lacks the AVX2 table";
  util::Rng rng{109};
  Tensor a{Shape{13, 21}}, b{Shape{21, 18}};
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform() - 0.5);
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b.data()[i] = static_cast<float>(rng.uniform() - 0.5);
  }
  ASSERT_TRUE(set_active("scalar"));
  Tensor c_scalar = matmul(a, b);
  ASSERT_TRUE(set_active("avx2"));
  Tensor c_avx2 = matmul(a, b);
  ASSERT_TRUE(set_active("scalar"));
  for (std::int64_t i = 0; i < c_scalar.numel(); ++i) {
    EXPECT_NEAR(c_scalar.data()[i], c_avx2.data()[i], 1e-4)
        << "i=" << i;
  }
}

// gemm_variants must match gemm_rows bit for bit on each table: the
// unchecked panel conv relies on it for parity with the per-sample path.

void check_gemm_variants(const tensor::backend::KernelBackend& be) {
  const std::int64_t m = 7, n = 13, k = 9;
  constexpr std::size_t kVariants = 3;
  util::Rng rng{409};
  std::vector<std::vector<float>> a(kVariants);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& x : b) x = static_cast<float>(rng.normal());
  std::vector<const float*> a_ptrs(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    a[v].resize(static_cast<std::size_t>(m * k));
    for (std::size_t i = 0; i < a[v].size(); ++i) {
      // Sprinkle exact zeros: the scalar kernel's zero-skip must behave
      // identically through both entry points.
      a[v][i] = (i % 5 == v) ? 0.0f : static_cast<float>(rng.normal());
    }
    a_ptrs[v] = a[v].data();
  }
  std::vector<std::vector<float>> got(kVariants), want(kVariants);
  std::vector<float*> c_ptrs(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    got[v].assign(static_cast<std::size_t>(m * n), -1.0f);
    want[v].assign(static_cast<std::size_t>(m * n), -2.0f);
    c_ptrs[v] = got[v].data();
  }
  be.gemm_variants(m, n, k, a_ptrs.data(), kVariants, k, b.data(), n,
                   c_ptrs.data(), n);
  for (std::size_t v = 0; v < kVariants; ++v) {
    be.gemm_rows(false, false, 0, m, n, k, 1.0f, a[v].data(), k, b.data(), n,
                 0.0f, want[v].data(), n);
    EXPECT_EQ(std::memcmp(got[v].data(), want[v].data(),
                          want[v].size() * sizeof(float)),
              0)
        << be.name << " variant " << v;
  }
}

TEST(MultiMaskKernels, GemmVariantsMatchesGemmRowsScalar) {
  check_gemm_variants(tensor::backend::scalar_backend());
}

TEST(MultiMaskKernels, GemmVariantsMatchesGemmRowsAvx2) {
  if (!tensor::backend::avx2_supported()) GTEST_SKIP() << "no AVX2";
  check_gemm_variants(tensor::backend::avx2_backend());
}

// ---------------------------------------------------------------------------
// Satellite bugfix: maxpool floor division on non-divisible spatial dims.

TEST(MaxpoolFloorDivision, NonDivisibleSpatialDimsDropRemainder) {
  // 1x1x5x5 input, kernel 2 → 2x2 output; row/col 4 fall outside every
  // window and must not influence the result (previously a hard CHECK fail).
  Tensor input = Tensor::arange(Shape{1, 1, 5, 5});
  input.data()[4] = 1000.0f;  // in the dropped last column: must be ignored
  std::vector<std::int64_t> argmax;
  const Tensor out = maxpool2d_forward(input, 2, argmax);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  // Window maxima of the 4x4 covered region: max at bottom-right of each.
  EXPECT_FLOAT_EQ(out.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 8.0f);
  EXPECT_FLOAT_EQ(out.data()[2], 16.0f);
  EXPECT_FLOAT_EQ(out.data()[3], 18.0f);

  // Backward routes gradients through the recorded argmax indices only.
  Tensor grad_out = Tensor::full(out.shape(), 1.0f);
  const Tensor grad_in =
      maxpool2d_backward(grad_out, input.shape(), argmax);
  ASSERT_EQ(grad_in.shape(), input.shape());
  double total = 0.0;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    total += grad_in.data()[i];
  }
  EXPECT_DOUBLE_EQ(total, 4.0);
  EXPECT_EQ(grad_in.data()[4], 0.0f);  // dropped column got no gradient
}

TEST(MaxpoolFloorDivision, InputSmallerThanWindowStillFails) {
  Tensor input{Shape{1, 1, 1, 1}};
  std::vector<std::int64_t> argmax;
  EXPECT_DEATH((void)maxpool2d_forward(input, 2, argmax), "pooling window");
}

}  // namespace
}  // namespace bdlfi::tensor::backend
