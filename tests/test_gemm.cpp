// GEMM kernel tests: the tiled, packed-SIMD and parallel kernels must
// agree with the naive oracle on arbitrary (including degenerate)
// shapes -- randomized rectangular sweeps, unaligned sub-window views,
// every dispatch tier -- and all kernels must accumulate rather than
// overwrite. The FMA micro-kernels must also match a scalar std::fma
// oracle bit for bit, whatever their register tile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/tuning.hpp"
#include "util/rng.hpp"

namespace hmxp::matrix {
namespace {

Matrix reference_product(const Matrix& a, const Matrix& b, const Matrix& c0) {
  Matrix c = c0;
  gemm_naive(a.view(), b.view(), c.view());
  return c;
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, AllKernelsMatchNaive) {
  const auto [m, k, n] = GetParam();
  // Mix the shape into a seed in 64-bit unsigned arithmetic (the int
  // products overflow for the larger shapes, which UBSan rejects).
  util::Rng rng(static_cast<std::uint64_t>(m) * 73856093u ^
                static_cast<std::uint64_t>(k) * 19349663u ^
                static_cast<std::uint64_t>(n) * 83492791u);
  const Matrix a = Matrix::random(static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k), rng);
  const Matrix b = Matrix::random(static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n), rng);
  const Matrix c0 = Matrix::random(static_cast<std::size_t>(m),
                                   static_cast<std::size_t>(n), rng);
  const Matrix expected = reference_product(a, b, c0);

  Matrix tiled = c0;
  gemm_tiled(a.view(), b.view(), tiled.view());
  EXPECT_LT(Matrix::max_abs_diff(tiled, expected), 1e-11);

  Matrix simd = c0;
  gemm_simd(a.view(), b.view(), simd.view());
  EXPECT_LT(Matrix::max_abs_diff(simd, expected), 1e-11);

  Matrix parallel = c0;
  gemm_parallel(a.view(), b.view(), parallel.view(), 3);
  EXPECT_LT(Matrix::max_abs_diff(parallel, expected), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 1),
                      std::make_tuple(3, 1, 5), std::make_tuple(4, 4, 4),
                      std::make_tuple(5, 3, 2), std::make_tuple(16, 16, 16),
                      std::make_tuple(17, 13, 11), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 64, 63), std::make_tuple(80, 80, 80),
                      std::make_tuple(100, 128, 96),
                      std::make_tuple(33, 129, 65)));

TEST(Gemm, AccumulatesIntoC) {
  // C starts at identity * 10; product adds on top.
  const Matrix a = Matrix::identity(3);
  Matrix b(3, 3, 1.0);
  Matrix c(3, 3, 10.0);
  gemm_tiled(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(c.at(i, j), 11.0);
}

TEST(Gemm, IdentityLeavesOperandIntact) {
  util::Rng rng(3);
  const Matrix b = Matrix::random(5, 4, rng);
  Matrix c(5, 4, 0.0);
  gemm_tiled(Matrix::identity(5).view(), b.view(), c.view());
  EXPECT_LT(Matrix::max_abs_diff(c, b), 1e-14);
}

TEST(Gemm, ViewsWithStride) {
  // Multiply windows of larger matrices: strides != cols.
  util::Rng rng(17);
  Matrix big_a = Matrix::random(10, 10, rng);
  Matrix big_b = Matrix::random(10, 10, rng);
  Matrix big_c(10, 10, 0.0);

  Matrix small_a(4, 3), small_b(3, 5), small_c(4, 5, 0.0);
  copy_into(big_a.window(2, 1, 4, 3), small_a.view());
  copy_into(big_b.window(0, 4, 3, 5), small_b.view());

  gemm_tiled(big_a.window(2, 1, 4, 3), big_b.window(0, 4, 3, 5),
             big_c.window(5, 5, 4, 5));
  gemm_naive(small_a.view(), small_b.view(), small_c.view());

  Matrix extracted(4, 5);
  copy_into(big_c.window(5, 5, 4, 5), extracted.view());
  EXPECT_LT(Matrix::max_abs_diff(extracted, small_c), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(gemm_tiled(a.view(), b.view(), c.view()),
               std::invalid_argument);
  Matrix b2(3, 2), c_bad(3, 2);
  EXPECT_THROW(gemm_tiled(a.view(), b2.view(), c_bad.view()),
               std::invalid_argument);
}

TEST(Gemm, ParallelThreadCountVariants) {
  util::Rng rng(23);
  const Matrix a = Matrix::random(37, 29, rng);
  const Matrix b = Matrix::random(29, 41, rng);
  Matrix expected(37, 41, 0.0);
  gemm_naive(a.view(), b.view(), expected.view());
  for (const int threads : {0, 1, 2, 7, 64}) {
    Matrix c(37, 41, 0.0);
    gemm_parallel(a.view(), b.view(), c.view(), threads);
    EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-11) << threads;
  }
}

TEST(Gemm, WholeMatrixConvenience) {
  util::Rng rng(31);
  const Matrix a = Matrix::random(6, 7, rng);
  const Matrix b = Matrix::random(7, 8, rng);
  Matrix c(6, 8, 0.0);
  Matrix expected = c;
  gemm(a, b, c);
  gemm_naive(a.view(), b.view(), expected.view());
  EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-12);
}

TEST(Gemm, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(80, 80, 80), 2.0 * 80 * 80 * 80);
  EXPECT_DOUBLE_EQ(gemm_flops(0, 5, 5), 0.0);
}

// ---- randomized kernel-equivalence sweep ------------------------------------

struct Shape {
  std::size_t m, k, n;
};

/// ~50 rectangular shapes: forced degenerate rows (1 x n, n x 1, 1-deep
/// inner dimension) plus random draws spanning micro-tile remainders.
std::vector<Shape> sweep_shapes() {
  std::vector<Shape> shapes = {
      {1, 1, 1},   {1, 37, 1},  {1, 1, 129},  {129, 1, 1},  {1, 200, 9},
      {200, 5, 1}, {2, 256, 2}, {131, 1, 67}, {1, 131, 67}, {67, 131, 1},
  };
  util::Rng rng(0xC0FFEE);
  while (shapes.size() < 50) {
    shapes.push_back({static_cast<std::size_t>(rng.uniform_int(1, 150)),
                      static_cast<std::size_t>(rng.uniform_int(1, 300)),
                      static_cast<std::size_t>(rng.uniform_int(1, 150))});
  }
  return shapes;
}

TEST(Gemm, RandomizedKernelEquivalenceSweep) {
  util::Rng rng(99);
  for (const Shape& shape : sweep_shapes()) {
    const Matrix a = Matrix::random(shape.m, shape.k, rng);
    const Matrix b = Matrix::random(shape.k, shape.n, rng);
    const Matrix c0 = Matrix::random(shape.m, shape.n, rng);
    const Matrix expected = reference_product(a, b, c0);
    const std::string label = std::to_string(shape.m) + "x" +
                              std::to_string(shape.k) + "x" +
                              std::to_string(shape.n);

    Matrix tiled = c0;
    gemm_tiled(a.view(), b.view(), tiled.view());
    EXPECT_LT(Matrix::max_abs_diff(tiled, expected), 1e-10) << label;

    Matrix simd = c0;
    gemm_simd(a.view(), b.view(), simd.view());
    EXPECT_LT(Matrix::max_abs_diff(simd, expected), 1e-10) << label;

    Matrix parallel = c0;
    gemm_parallel(a.view(), b.view(), parallel.view(), 4);
    EXPECT_LT(Matrix::max_abs_diff(parallel, expected), 1e-10) << label;
  }
}

TEST(Gemm, RandomizedUnalignedSubWindowSweep) {
  // Operands live at odd offsets inside larger matrices, so every view
  // has stride != cols and deliberately misaligned row starts -- the
  // packed path must not depend on operand alignment.
  util::Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 60));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 80));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    Matrix big_a = Matrix::random(m + 5, k + 3, rng);
    Matrix big_b = Matrix::random(k + 7, n + 9, rng);
    Matrix big_c = Matrix::random(m + 3, n + 5, rng);
    const ConstView a = big_a.window(3, 1, m, k);
    const ConstView b = big_b.window(5, 3, k, n);

    Matrix small_a(m, k), small_b(k, n), expected(m, n);
    copy_into(a, small_a.view());
    copy_into(b, small_b.view());
    copy_into(big_c.window(1, 3, m, n), expected.view());
    gemm_naive(small_a.view(), small_b.view(), expected.view());

    Matrix c_simd = big_c;
    gemm_simd(a, b, c_simd.window(1, 3, m, n));
    Matrix got(m, n);
    copy_into(c_simd.window(1, 3, m, n), got.view());
    EXPECT_LT(Matrix::max_abs_diff(got, expected), 1e-10) << trial;

    Matrix c_par = big_c;
    gemm_parallel(a, b, c_par.window(1, 3, m, n), 3);
    copy_into(c_par.window(1, 3, m, n), got.view());
    EXPECT_LT(Matrix::max_abs_diff(got, expected), 1e-10) << trial;
  }
}

// ---- dispatch tiers ---------------------------------------------------------

TEST(Gemm, KernelTierNamesRoundTrip) {
  EXPECT_EQ(parse_kernel_tier("naive"), KernelTier::kNaive);
  EXPECT_EQ(parse_kernel_tier("Tiled"), KernelTier::kTiled);
  EXPECT_EQ(parse_kernel_tier("SIMD"), KernelTier::kPacked);
  EXPECT_EQ(parse_kernel_tier("atlas"), std::nullopt);
  for (const KernelTier tier :
       {KernelTier::kNaive, KernelTier::kTiled, KernelTier::kPacked})
    EXPECT_EQ(parse_kernel_tier(kernel_tier_name(tier)), tier);
}

TEST(Gemm, ForcedTierDrivesAutoDispatch) {
  util::Rng rng(41);
  const Matrix a = Matrix::random(33, 21, rng);
  const Matrix b = Matrix::random(21, 29, rng);
  Matrix expected(33, 29, 0.0);
  gemm_naive(a.view(), b.view(), expected.view());

  for (const KernelTier tier :
       {KernelTier::kNaive, KernelTier::kTiled, KernelTier::kPacked}) {
    force_kernel_tier(tier);
    EXPECT_EQ(active_kernel_tier(), tier);
    Matrix c(33, 29, 0.0);
    gemm_auto(a.view(), b.view(), c.view());
    EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-11)
        << kernel_tier_name(tier);
    Matrix c_par(33, 29, 0.0);
    gemm_parallel(a.view(), b.view(), c_par.view(), 2);
    EXPECT_LT(Matrix::max_abs_diff(c_par, expected), 1e-11)
        << kernel_tier_name(tier);
  }
  force_kernel_tier(std::nullopt);
}

TEST(Gemm, PortableMicroKernelMatchesAvx2Path) {
  // On an AVX2 host this compares the two micro-kernel implementations;
  // elsewhere both runs take the portable one and trivially agree.
  util::Rng rng(43);
  const Matrix a = Matrix::random(70, 90, rng);
  const Matrix b = Matrix::random(90, 75, rng);
  Matrix expected(70, 75, 0.0);
  gemm_naive(a.view(), b.view(), expected.view());

  force_portable_micro_kernel(true);
  EXPECT_STREQ(packed_kernel_variant(), "portable");
  Matrix portable(70, 75, 0.0);
  gemm_simd(a.view(), b.view(), portable.view());
  force_portable_micro_kernel(false);
  EXPECT_LT(Matrix::max_abs_diff(portable, expected), 1e-10);

  Matrix native(70, 75, 0.0);
  gemm_simd(a.view(), b.view(), native.view());
  EXPECT_LT(Matrix::max_abs_diff(native, expected), 1e-10);
}

// ---- AVX-512 micro-kernel ---------------------------------------------------

TEST(Gemm, Avx512MatchesNaiveOracleOnRandomShapes) {
  if (!cpu_supports_avx512())
    GTEST_SKIP() << "host has no AVX-512F; kernel not executable here";
  util::Rng rng(0x512);
  force_micro_kernel_variant(MicroKernelVariant::kAvx512);
  EXPECT_STREQ(packed_kernel_variant(), "avx512");
  // Randomized rectangular shapes spanning full register tiles, ragged
  // edges, and degenerate rows/columns.
  std::vector<Shape> shapes = {{8, 8, 8},   {64, 64, 64}, {1, 50, 9},
                               {9, 1, 17},  {120, 256, 8}, {7, 7, 7},
                               {129, 33, 65}};
  for (int trial = 0; trial < 20; ++trial)
    shapes.push_back({static_cast<std::size_t>(rng.uniform_int(1, 140)),
                      static_cast<std::size_t>(rng.uniform_int(1, 260)),
                      static_cast<std::size_t>(rng.uniform_int(1, 140))});
  for (const Shape& shape : shapes) {
    const Matrix a = Matrix::random(shape.m, shape.k, rng);
    const Matrix b = Matrix::random(shape.k, shape.n, rng);
    const Matrix c0 = Matrix::random(shape.m, shape.n, rng);
    const Matrix expected = reference_product(a, b, c0);
    Matrix c = c0;
    gemm_simd(a.view(), b.view(), c.view());
    EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-10)
        << shape.m << "x" << shape.k << "x" << shape.n;
  }
  force_micro_kernel_variant(std::nullopt);
}

TEST(Gemm, Avx512PinRejectedOnIncapableHost) {
  if (cpu_supports_avx512())
    GTEST_SKIP() << "host executes AVX-512; the rejection path is "
                    "exercised on narrower machines";
  EXPECT_THROW(force_micro_kernel_variant(MicroKernelVariant::kAvx512),
               std::invalid_argument);
  EXPECT_THROW(apply_kernel_pin("avx512"), std::invalid_argument);
}

TEST(Gemm, EverySupportedVariantMatchesOracle) {
  util::Rng rng(0xABCD);
  const Matrix a = Matrix::random(77, 130, rng);
  const Matrix b = Matrix::random(130, 91, rng);
  const Matrix c0 = Matrix::random(77, 91, rng);
  const Matrix expected = reference_product(a, b, c0);
  for (const MicroKernelVariant variant :
       {MicroKernelVariant::kPortable, MicroKernelVariant::kAvx2Fma,
        MicroKernelVariant::kAvx512}) {
    if (!micro_kernel_supported(variant)) continue;
    force_micro_kernel_variant(variant);
    EXPECT_STREQ(packed_kernel_variant(),
                 micro_kernel_variant_name(variant));
    Matrix c = c0;
    gemm_simd(a.view(), b.view(), c.view());
    EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-10)
        << micro_kernel_variant_name(variant);
  }
  force_micro_kernel_variant(std::nullopt);
}

/// C0 + A*B accumulated the way every FMA micro-kernel does it: per KC
/// panel of the inner dimension, each C element sums its products in k
/// order into a zeroed accumulator with one fused multiply-add per
/// step, then adds the accumulator to C. The register tile (MR x NR)
/// and the MC/NC blocking do not enter: they only group elements.
Matrix fma_oracle(const Matrix& a, const Matrix& b, const Matrix& c0,
                  std::size_t kc) {
  Matrix c = c0;
  for (std::size_t k0 = 0; k0 < a.cols(); k0 += kc) {
    const std::size_t k1 = std::min(a.cols(), k0 + kc);
    for (std::size_t i = 0; i < c.rows(); ++i)
      for (std::size_t j = 0; j < c.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t k = k0; k < k1; ++k)
          acc = std::fma(a.at(i, k), b.at(k, j), acc);
        c.at(i, j) += acc;
      }
  }
  return c;
}

TEST(Gemm, FmaVariantsBitIdenticalToScalarFmaOracle) {
  // Exact equality, not a tolerance: C must not change by one bit when
  // a micro-kernel's register tile or the blocking's MC/NC change.
  util::Rng rng(0xB17E);
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1},    {7, 300, 9},  {67, 43, 29},
                {611, 13, 5}, {5, 13, 611}, {121, 260, 131}};
  std::size_t checked = 0;
  for (const MicroKernelVariant variant :
       {MicroKernelVariant::kAvx2Fma, MicroKernelVariant::kAvx512}) {
    if (!micro_kernel_supported(variant)) continue;
    const std::size_t mr = micro_kernel_mr(variant);
    const std::size_t nr = micro_kernel_nr(variant);
    const BlockingParams blockings[] = {
        kDefaultBlocking,
        {mr * 1, 4, nr * 1},
        {mr * 2, 5, nr * 2},
        {mr * 5, 37, nr * 3},
        {mr * 10, 512, nr * 8},
    };
    for (const BlockingParams& blocking : blockings) {
      for (const auto& shape : shapes) {
        const Matrix a = Matrix::random(shape.m, shape.k, rng);
        const Matrix b = Matrix::random(shape.k, shape.n, rng);
        const Matrix c0 = Matrix::random(shape.m, shape.n, rng);
        const Matrix expected = fma_oracle(a, b, c0, blocking.kc);
        Matrix c = c0;
        gemm_simd_with_blocking(a.view(), b.view(), c.view(), blocking,
                                variant);
        EXPECT_TRUE(c == expected)
            << micro_kernel_variant_name(variant) << " "
            << blocking_to_string(blocking) << " @ " << shape.m << "x"
            << shape.k << "x" << shape.n << ": max |diff| "
            << Matrix::max_abs_diff(c, expected);
        ++checked;
      }
    }
    // The parallel driver splits C only, never K, so it is exact too.
    force_micro_kernel_variant(variant);
    force_blocking(kDefaultBlocking);
    const Matrix a = Matrix::random(250, 300, rng);
    const Matrix b = Matrix::random(300, 270, rng);
    const Matrix c0 = Matrix::random(250, 270, rng);
    Matrix c = c0;
    gemm_parallel(a.view(), b.view(), c.view(), 3);
    force_blocking(std::nullopt);
    force_micro_kernel_variant(std::nullopt);
    EXPECT_TRUE(c == fma_oracle(a, b, c0, kDefaultBlocking.kc))
        << micro_kernel_variant_name(variant) << " gemm_parallel";
  }
  if (checked == 0) GTEST_SKIP() << "host runs no FMA micro-kernel";
}

// ---- kernel pins ------------------------------------------------------------

TEST(Gemm, KernelPinParsesTiersAndVariants) {
  // Tier names pin only the tier.
  const auto tiled = parse_kernel_pin("tiled");
  ASSERT_TRUE(tiled.has_value());
  EXPECT_EQ(tiled->tier, KernelTier::kTiled);
  EXPECT_EQ(tiled->variant, std::nullopt);
  // Variant names imply the packed tier.
  for (const char* name : {"portable", "avx2", "AVX2+FMA", "avx512"}) {
    const auto pin = parse_kernel_pin(name);
    ASSERT_TRUE(pin.has_value()) << name;
    EXPECT_EQ(pin->tier, KernelTier::kPacked) << name;
    EXPECT_TRUE(pin->variant.has_value()) << name;
  }
  EXPECT_EQ(parse_kernel_pin("atlas"), std::nullopt);
}

TEST(Gemm, KernelPinErrorListsEveryValidName) {
  // A typo'd pin must name every accepted spelling -- including the
  // avx512 tier -- so the error is self-documenting.
  try {
    apply_kernel_pin("sse9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    for (const char* name :
         {"naive", "tiled", "simd", "portable", "avx2", "avx512"})
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(Gemm, ApplyKernelPinDrivesDispatch) {
  apply_kernel_pin("tiled");
  EXPECT_EQ(active_kernel_tier(), KernelTier::kTiled);
  EXPECT_EQ(forced_micro_kernel_variant(), std::nullopt);
  apply_kernel_pin("portable");
  EXPECT_EQ(active_kernel_tier(), KernelTier::kPacked);
  EXPECT_STREQ(packed_kernel_variant(), "portable");
  force_kernel_tier(std::nullopt);
  force_micro_kernel_variant(std::nullopt);
}

// ---- runtime blocking parameters --------------------------------------------

TEST(Gemm, ExplicitBlockingEdgeShapes) {
  // Blockings that do NOT divide the problem (ragged final panels in
  // every dimension), plus tall-skinny and short-wide operands, must
  // agree with the oracle bit-for-tolerance.
  util::Rng rng(0xB10C);
  const std::size_t mr = micro_kernel_mr(active_micro_kernel_variant());
  const std::size_t nr = micro_kernel_nr(active_micro_kernel_variant());
  const BlockingParams cases[] = {
      {mr * 1, 4, nr * 1},     // minimal legal blocking
      {mr * 2, 5, nr * 2},     // tiny KC, non-dividing everything
      {mr * 5, 37, nr * 3},    // odd KC
      {mr * 10, 512, nr * 8},  // KC deeper than the problem
  };
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{67, 43, 29}, {611, 13, 5}, {5, 13, 611}, {128, 128, 128}};
  for (const BlockingParams& blocking : cases) {
    for (const auto& shape : shapes) {
      const Matrix a = Matrix::random(shape.m, shape.k, rng);
      const Matrix b = Matrix::random(shape.k, shape.n, rng);
      const Matrix c0 = Matrix::random(shape.m, shape.n, rng);
      const Matrix expected = reference_product(a, b, c0);
      Matrix c = c0;
      gemm_simd_with_blocking(a.view(), b.view(), c.view(), blocking);
      EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-10)
          << blocking_to_string(blocking) << " @ " << shape.m << "x"
          << shape.k << "x" << shape.n;
    }
  }
}

TEST(Gemm, AbsurdBlockingRejected) {
  const std::size_t mr = micro_kernel_mr(active_micro_kernel_variant());
  const std::size_t nr = micro_kernel_nr(active_micro_kernel_variant());
  util::Rng rng(7);
  const Matrix a = Matrix::random(8, 8, rng);
  const Matrix b = Matrix::random(8, 8, rng);
  Matrix c(8, 8, 0.0);
  const BlockingParams absurd[] = {
      {0, 256, 512},             // zero extent
      {mr + 1, 256, 512},        // MC not a multiple of MR
      {mr, 256, nr + 1},         // NC not a multiple of NR
      {mr, 2, nr},               // KC below the floor
      {mr, 1 << 20, nr},         // KC beyond the ceiling
      {1 << 20, 256, nr},        // MC beyond the ceiling
      {4096, 8192, 16384},       // footprint past 256 MiB
  };
  for (const BlockingParams& params : absurd) {
    EXPECT_THROW(validate_blocking(params, mr, nr), std::invalid_argument)
        << blocking_to_string(params);
    EXPECT_THROW(
        gemm_simd_with_blocking(a.view(), b.view(), c.view(), params),
        std::invalid_argument)
        << blocking_to_string(params);
    EXPECT_THROW(force_blocking(params), std::invalid_argument)
        << blocking_to_string(params);
  }
  // A rejected force leaves no pin behind.
  EXPECT_EQ(forced_blocking(), std::nullopt);
}

TEST(Gemm, ForcedBlockingGovernsPackedPath) {
  util::Rng rng(0xF0);
  const Matrix a = Matrix::random(90, 70, rng);
  const Matrix b = Matrix::random(70, 80, rng);
  const Matrix c0 = Matrix::random(90, 80, rng);
  const Matrix expected = reference_product(a, b, c0);
  force_blocking(BlockingParams{48, 96, 128});
  EXPECT_EQ(active_blocking(), (BlockingParams{48, 96, 128}));
  Matrix c = c0;
  gemm_simd(a.view(), b.view(), c.view());
  EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-10);
  force_blocking(std::nullopt);
  EXPECT_EQ(forced_blocking(), std::nullopt);
}

TEST(Gemm, PackBuffersGrowOnlyAcrossBlockingChanges) {
  util::Rng rng(0xA110C);
  const Matrix a = Matrix::random(140, 140, rng);
  const Matrix b = Matrix::random(140, 140, rng);
  Matrix c(140, 140, 0.0);
  // Warm up at the LARGEST blocking this test will use.
  gemm_simd_with_blocking(a.view(), b.view(), c.view(),
                          BlockingParams{120, 256, 512});
  const std::size_t warm = pack_buffer_allocations();
  // Repeat runs -- including runs that SHRINK the blocking and then
  // restore it -- must not touch the heap: the buffers are grow-only.
  for (int repeat = 0; repeat < 3; ++repeat) {
    gemm_simd_with_blocking(a.view(), b.view(), c.view(),
                            BlockingParams{120, 256, 512});
    gemm_simd_with_blocking(a.view(), b.view(), c.view(),
                            BlockingParams{24, 64, 64});
    gemm_simd_with_blocking(a.view(), b.view(), c.view(),
                            BlockingParams{48, 128, 256});
  }
  EXPECT_EQ(pack_buffer_allocations(), warm)
      << "steady-state GEMM must perform zero pack-buffer allocation";
}

TEST(Gemm, ConcurrentParallelGemmUnderFreshlyInstalledTuning) {
  // The TSan-covered scenario: force_blocking installs a non-default
  // tuned configuration, then several threads run gemm_parallel (whose
  // helpers share the process-wide pool) concurrently. All results
  // must match the oracle and the blocking reads must not race.
  util::Rng rng(0x7541);
  const Matrix a = Matrix::random(96, 88, rng);
  const Matrix b = Matrix::random(88, 104, rng);
  Matrix expected(96, 104, 0.0);
  gemm_naive(a.view(), b.view(), expected.view());

  force_blocking(BlockingParams{24, 48, 64});
  std::vector<Matrix> results(3, Matrix(96, 104, 0.0));
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (Matrix& result : results)
      threads.emplace_back([&a, &b, &result] {
        gemm_parallel(a.view(), b.view(), result.view(), 2);
      });
    for (std::thread& thread : threads) thread.join();
  }
  force_blocking(std::nullopt);
  for (const Matrix& result : results)
    EXPECT_LT(Matrix::max_abs_diff(result, expected), 1e-10);
}

// ---- parallel split degeneracies --------------------------------------------

TEST(Gemm, ParallelTallSkinnyAndShortWide) {
  // The old rows/threads split left trailing threads idle on tall-
  // skinny C and serialized short-wide C entirely; tile work-stealing
  // must both stay correct and split these shapes.
  util::Rng rng(47);
  const struct {
    std::size_t m, k, n;
  } cases[] = {{611, 13, 5}, {5, 13, 611}, {1024, 3, 3}, {2, 500, 2}};
  for (const auto& shape : cases) {
    const Matrix a = Matrix::random(shape.m, shape.k, rng);
    const Matrix b = Matrix::random(shape.k, shape.n, rng);
    Matrix expected(shape.m, shape.n, 0.0);
    gemm_naive(a.view(), b.view(), expected.view());
    for (const int threads : {2, 7, 64}) {
      Matrix c(shape.m, shape.n, 0.0);
      gemm_parallel(a.view(), b.view(), c.view(), threads);
      EXPECT_LT(Matrix::max_abs_diff(c, expected), 1e-10)
          << shape.m << "x" << shape.n << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace hmxp::matrix
