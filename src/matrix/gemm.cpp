#include "matrix/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "matrix/kernel_dispatch.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define HMXP_X86_TARGETS 1
#include <immintrin.h>
#endif

namespace hmxp::matrix {

namespace {
void check_shapes(ConstView a, ConstView b, const View& c) {
  HMXP_REQUIRE(a.cols() == b.rows(), "inner dimensions differ");
  HMXP_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "output shape mismatch");
}

ConstView subview(ConstView v, std::size_t row0, std::size_t col0,
                  std::size_t rows, std::size_t cols) {
  return ConstView(v.row(row0) + col0, rows, cols, v.stride());
}

View subview(View v, std::size_t row0, std::size_t col0, std::size_t rows,
             std::size_t cols) {
  return View(v.row(row0) + col0, rows, cols, v.stride());
}

// ---------------------------------------------------------------------------
// Tiled scalar kernel (the "tiled" tier, kept as the portable baseline).
// Tile sizes: MC x KC panel of A resident in L2, KC x NR slab of B
// streamed, 1 x NR register accumulation.
constexpr std::size_t kTiledMc = 64;
constexpr std::size_t kTiledKc = 128;
constexpr std::size_t kTiledNr = 4;

void tile_kernel(ConstView a, ConstView b, View c, std::size_t i0,
                 std::size_t i1, std::size_t k0, std::size_t k1) {
  const std::size_t n = c.cols();
  for (std::size_t i = i0; i < i1; ++i) {
    const double* a_row = a.row(i);
    double* c_row = c.row(i);
    std::size_t j = 0;
    // 4-wide register-blocked main loop.
    for (; j + kTiledNr <= n; j += kTiledNr) {
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t k = k0; k < k1; ++k) {
        const double aik = a_row[k];
        const double* b_row = b.row(k);
        acc0 += aik * b_row[j];
        acc1 += aik * b_row[j + 1];
        acc2 += aik * b_row[j + 2];
        acc3 += aik * b_row[j + 3];
      }
      c_row[j] += acc0;
      c_row[j + 1] += acc1;
      c_row[j + 2] += acc2;
      c_row[j + 3] += acc3;
    }
    // Remainder columns.
    for (; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = k0; k < k1; ++k) acc += a_row[k] * b.row(k)[j];
      c_row[j] += acc;
    }
  }
}

void gemm_tiled_unchecked(ConstView a, ConstView b, View c) {
  const std::size_t kk = a.cols();
  for (std::size_t i0 = 0; i0 < c.rows(); i0 += kTiledMc) {
    const std::size_t i1 = std::min(i0 + kTiledMc, c.rows());
    for (std::size_t k0 = 0; k0 < kk; k0 += kTiledKc) {
      const std::size_t k1 = std::min(k0 + kTiledKc, kk);
      tile_kernel(a, b, c, i0, i1, k0, k1);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed path (the "simd" tier): BLIS-style blocking. A is packed into
// MC x KC panels of MR-row slivers (sliver layout a[k*MR + r], zero-
// padded to MR), B into KC x NC panels of NR-column slivers
// (b[k*NR + c], zero-padded to NR), both in 64-byte-aligned
// thread-local buffers; the micro-kernel then runs unconditionally on
// full MR x NR register tiles, with short edge tiles accumulated
// through a small stack buffer.
//
// MC/KC/NC -- the A panel sized for L2, the B panel for L3 -- are no
// longer compile-time constants: they are runtime BlockingParams
// resolved by matrix/tuning.hpp (forced pin > per-host tuning cache >
// at-first-use measured search > the historical 120/256/512 default).
// Only the register-tile bound stays static: it sizes the edge-tile
// stack buffer for the largest micro-kernel tile, the AVX-512 12x16.
constexpr std::size_t kMaxMr = 12;
constexpr std::size_t kMaxNr = 16;

/// C[MR x NR] += packed_a (KC x MR slivers) * packed_b (KC x NR slivers).
/// `c` has row stride ldc and is NOT assumed aligned.
using MicroKernel = void (*)(std::size_t kc, const double* a, const double* b,
                             double* c, std::size_t ldc);

struct MicroKernelInfo {
  std::size_t mr = 0;
  std::size_t nr = 0;
  MicroKernel fn = nullptr;
};

/// Portable 4x8 micro-kernel: 32 scalar accumulators the compiler keeps
/// in registers and auto-vectorizes (SSE2 on baseline x86-64).
void micro_kernel_portable_4x8(std::size_t kc, const double* a,
                               const double* b, double* c, std::size_t ldc) {
  double acc[4][8] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    const double* bk = b + k * 8;
    const double* ak = a + k * 4;
    for (std::size_t r = 0; r < 4; ++r) {
      const double ar = ak[r];
      for (std::size_t j = 0; j < 8; ++j) acc[r][j] += ar * bk[j];
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    double* c_row = c + r * ldc;
    for (std::size_t j = 0; j < 8; ++j) c_row[j] += acc[r][j];
  }
}

#ifdef HMXP_X86_TARGETS
/// AVX2+FMA 6x8 micro-kernel: 12 ymm accumulators (6 rows x 2 vectors),
/// 2 ymm B loads (aligned: slivers are 64-byte aligned and each k-step
/// advances 8 doubles) and 1 broadcast per row per k. Compiled with a
/// target attribute so the rest of the binary stays baseline-ISA; only
/// dispatched when cpuid reports AVX2 and FMA.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x8(
    std::size_t kc, const double* a, const double* b, double* c,
    std::size_t ldc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_load_pd(b + k * 8);
    const __m256d b1 = _mm256_load_pd(b + k * 8 + 4);
    const double* ak = a + k * 6;
    __m256d ar = _mm256_broadcast_sd(ak + 0);
    c00 = _mm256_fmadd_pd(ar, b0, c00);
    c01 = _mm256_fmadd_pd(ar, b1, c01);
    ar = _mm256_broadcast_sd(ak + 1);
    c10 = _mm256_fmadd_pd(ar, b0, c10);
    c11 = _mm256_fmadd_pd(ar, b1, c11);
    ar = _mm256_broadcast_sd(ak + 2);
    c20 = _mm256_fmadd_pd(ar, b0, c20);
    c21 = _mm256_fmadd_pd(ar, b1, c21);
    ar = _mm256_broadcast_sd(ak + 3);
    c30 = _mm256_fmadd_pd(ar, b0, c30);
    c31 = _mm256_fmadd_pd(ar, b1, c31);
    ar = _mm256_broadcast_sd(ak + 4);
    c40 = _mm256_fmadd_pd(ar, b0, c40);
    c41 = _mm256_fmadd_pd(ar, b1, c41);
    ar = _mm256_broadcast_sd(ak + 5);
    c50 = _mm256_fmadd_pd(ar, b0, c50);
    c51 = _mm256_fmadd_pd(ar, b1, c51);
  }
  double* r0 = c;
  double* r1 = c + ldc;
  double* r2 = c + 2 * ldc;
  double* r3 = c + 3 * ldc;
  double* r4 = c + 4 * ldc;
  double* r5 = c + 5 * ldc;
  _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c00));
  _mm256_storeu_pd(r0 + 4, _mm256_add_pd(_mm256_loadu_pd(r0 + 4), c01));
  _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c10));
  _mm256_storeu_pd(r1 + 4, _mm256_add_pd(_mm256_loadu_pd(r1 + 4), c11));
  _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c20));
  _mm256_storeu_pd(r2 + 4, _mm256_add_pd(_mm256_loadu_pd(r2 + 4), c21));
  _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c30));
  _mm256_storeu_pd(r3 + 4, _mm256_add_pd(_mm256_loadu_pd(r3 + 4), c31));
  _mm256_storeu_pd(r4, _mm256_add_pd(_mm256_loadu_pd(r4), c40));
  _mm256_storeu_pd(r4 + 4, _mm256_add_pd(_mm256_loadu_pd(r4 + 4), c41));
  _mm256_storeu_pd(r5, _mm256_add_pd(_mm256_loadu_pd(r5), c50));
  _mm256_storeu_pd(r5 + 4, _mm256_add_pd(_mm256_loadu_pd(r5 + 4), c51));
}

/// AVX-512F 12x16 micro-kernel: 24 zmm accumulators (12 rows x 2
/// vectors), 2 aligned zmm B loads per k (each k-step advances 16 doubles
/// = two cache lines of the 64-byte-aligned sliver) and 1 broadcast + 2
/// FMAs per row per k. The fixed-bound loops unroll fully, so the
/// accumulators stay in registers with 8 zmm left for B and broadcasts.
__attribute__((target("avx512f"))) void micro_kernel_avx512_12x16(
    std::size_t kc, const double* a, const double* b, double* c,
    std::size_t ldc) {
  __m512d acc[12][2];
#pragma GCC unroll 12
  for (auto& row : acc) row[0] = row[1] = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m512d b0 = _mm512_load_pd(b + k * 16);
    const __m512d b1 = _mm512_load_pd(b + k * 16 + 8);
    const double* ak = a + k * 12;
#pragma GCC unroll 12
    for (std::size_t r = 0; r < 12; ++r) {
      const __m512d ar = _mm512_set1_pd(ak[r]);
      acc[r][0] = _mm512_fmadd_pd(ar, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(ar, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 12
  for (std::size_t r = 0; r < 12; ++r) {
    double* row = c + r * ldc;
    _mm512_storeu_pd(row, _mm512_add_pd(_mm512_loadu_pd(row), acc[r][0]));
    _mm512_storeu_pd(row + 8,
                     _mm512_add_pd(_mm512_loadu_pd(row + 8), acc[r][1]));
  }
}
#endif  // HMXP_X86_TARGETS

/// Implementation table for a variant. The caller guarantees the host
/// can execute it (force_micro_kernel_variant and the env pin both
/// reject unsupported ISAs, and the default is cpuid-derived).
MicroKernelInfo micro_kernel_info(MicroKernelVariant variant) {
#ifdef HMXP_X86_TARGETS
  if (variant == MicroKernelVariant::kAvx512)
    return {12, 16, &micro_kernel_avx512_12x16};
  if (variant == MicroKernelVariant::kAvx2Fma)
    return {6, 8, &micro_kernel_avx2_6x8};
#else
  (void)variant;
#endif
  return {4, 8, &micro_kernel_portable_4x8};
}

/// Selected per call from the pin/env/cpuid resolution -- one relaxed
/// atomic load, negligible next to packing.
MicroKernelInfo micro_kernel_info() {
  return micro_kernel_info(active_micro_kernel_variant());
}

/// Packs A[i0:i0+mc, k0:k0+kc] into MR-row slivers: sliver s holds rows
/// [i0+s*mr, i0+s*mr+mr) column-major within the sliver
/// (out[s*kc*mr + k*mr + r]), short slivers zero-padded to mr. The
/// scattered writes land in a kc*mr (<= 12 KiB) region that stays in L1.
void pack_a(ConstView a, std::size_t i0, std::size_t mc, std::size_t k0,
            std::size_t kc, std::size_t mr, double* out) {
  for (std::size_t s = 0; s * mr < mc; ++s) {
    const std::size_t row0 = s * mr;
    const std::size_t rows = std::min(mr, mc - row0);
    double* dst = out + s * kc * mr;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = a.row(i0 + row0 + r) + k0;
      for (std::size_t k = 0; k < kc; ++k) dst[k * mr + r] = src[k];
    }
    for (std::size_t r = rows; r < mr; ++r)
      for (std::size_t k = 0; k < kc; ++k) dst[k * mr + r] = 0.0;
  }
}

/// Packs B[k0:k0+kc, j0:j0+nc] into NR-column slivers
/// (out[s*kc*nr + k*nr + c]), short slivers zero-padded to nr.
void pack_b(ConstView b, std::size_t k0, std::size_t kc, std::size_t j0,
            std::size_t nc, std::size_t nr, double* out) {
  for (std::size_t s = 0; s * nr < nc; ++s) {
    const std::size_t col0 = s * nr;
    const std::size_t cols = std::min(nr, nc - col0);
    double* dst = out + s * kc * nr;
    for (std::size_t k = 0; k < kc; ++k) {
      const double* src = b.row(k0 + k) + j0 + col0;
      double* row = dst + k * nr;
      for (std::size_t c = 0; c < cols; ++c) row[c] = src[c];
      for (std::size_t c = cols; c < nr; ++c) row[c] = 0.0;
    }
  }
}

/// Runs the micro-kernel over every MR x NR register tile of a packed
/// MC x NC block. Interior tiles accumulate straight into C; edge tiles
/// compute into a zeroed stack buffer and fold the valid region in.
void macro_kernel(const MicroKernelInfo& mk, std::size_t mc, std::size_t nc,
                  std::size_t kc, const double* apack, const double* bpack,
                  View c, std::size_t i0, std::size_t j0) {
  for (std::size_t js = 0; js * mk.nr < nc; ++js) {
    const std::size_t col0 = js * mk.nr;
    const std::size_t cols = std::min(mk.nr, nc - col0);
    const double* b_sliver = bpack + js * kc * mk.nr;
    for (std::size_t is = 0; is * mk.mr < mc; ++is) {
      const std::size_t row0 = is * mk.mr;
      const std::size_t rows = std::min(mk.mr, mc - row0);
      const double* a_sliver = apack + is * kc * mk.mr;
      double* c_tile = c.row(i0 + row0) + j0 + col0;
      if (rows == mk.mr && cols == mk.nr) {
        mk.fn(kc, a_sliver, b_sliver, c_tile, c.stride());
      } else {
        alignas(util::kCacheLineBytes) double tmp[kMaxMr * kMaxNr] = {};
        mk.fn(kc, a_sliver, b_sliver, tmp, mk.nr);
        for (std::size_t r = 0; r < rows; ++r) {
          double* c_row = c_tile + r * c.stride();
          const double* t_row = tmp + r * mk.nr;
          for (std::size_t j = 0; j < cols; ++j) c_row[j] += t_row[j];
        }
      }
    }
  }
}

/// Per-thread pack buffers: grow-only, reused for the lifetime of the
/// thread. Growth only happens when a run needs MORE capacity than any
/// previous run on this thread -- changing BlockingParams between runs
/// (re-tuning, a forced pin) never shrinks or reallocates downward, so
/// after one warm-up at the largest blocking in play, steady-state GEMM
/// performs zero heap allocation (asserted by tests, the same contract
/// PR-3 established for BufferPool).
struct PackBuffers {
  util::AlignedVector<double> a;
  util::AlignedVector<double> b;
};

PackBuffers& thread_pack_buffers() {
  thread_local PackBuffers buffers;
  return buffers;
}

std::atomic<std::size_t> pack_buffer_allocation_count{0};

/// Grows `buffer` to hold `needed` doubles; counts only actual heap
/// growth, never a same-or-smaller request.
double* ensure_pack_capacity(util::AlignedVector<double>& buffer,
                             std::size_t needed) {
  if (needed > buffer.size()) {
    if (needed > buffer.capacity())
      pack_buffer_allocation_count.fetch_add(1, std::memory_order_relaxed);
    buffer.resize(needed);
  }
  return buffer.data();
}

constexpr std::size_t round_up(std::size_t value, std::size_t unit) {
  return (value + unit - 1) / unit * unit;
}

void gemm_packed_unchecked(ConstView a, ConstView b, View c,
                           const MicroKernelInfo& mk,
                           const BlockingParams& blocking) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a.cols();
  if (m == 0 || n == 0 || kk == 0) return;

  PackBuffers& buffers = thread_pack_buffers();
  // Sliver zero-padding means the packed extents round up to MR/NR.
  double* apack = ensure_pack_capacity(
      buffers.a,
      round_up(std::min(m, blocking.mc), mk.mr) * std::min(kk, blocking.kc));
  double* bpack = ensure_pack_capacity(
      buffers.b,
      round_up(std::min(n, blocking.nc), mk.nr) * std::min(kk, blocking.kc));

  for (std::size_t jc = 0; jc < n; jc += blocking.nc) {
    const std::size_t nc = std::min(blocking.nc, n - jc);
    for (std::size_t kc0 = 0; kc0 < kk; kc0 += blocking.kc) {
      const std::size_t kc = std::min(blocking.kc, kk - kc0);
      pack_b(b, kc0, kc, jc, nc, mk.nr, bpack);
      for (std::size_t ic = 0; ic < m; ic += blocking.mc) {
        const std::size_t mc = std::min(blocking.mc, m - ic);
        pack_a(a, ic, mc, kc0, kc, mk.mr, apack);
        macro_kernel(mk, mc, nc, kc, apack, bpack, c, ic, jc);
      }
    }
  }
}

void gemm_packed_unchecked(ConstView a, ConstView b, View c) {
  gemm_packed_unchecked(a, b, c, micro_kernel_info(), active_blocking());
}

void gemm_naive_unchecked(ConstView a, ConstView b, View c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) += acc;
    }
  }
}

void dispatch_serial(ConstView a, ConstView b, View c) {
  switch (active_kernel_tier()) {
    case KernelTier::kNaive:
      gemm_naive_unchecked(a, b, c);
      return;
    case KernelTier::kTiled:
      gemm_tiled_unchecked(a, b, c);
      return;
    case KernelTier::kPacked:
      gemm_packed_unchecked(a, b, c);
      return;
  }
}

// ---------------------------------------------------------------------------
// Parallel driver: a 2-D grid of C tiles claimed from an atomic cursor
// (work-stealing: fast threads simply claim more tiles), each tile run
// through the active serial kernel on a disjoint C window. The pool is
// shared and persistent -- no per-call thread spawn.

/// Extents of the C-tile grid the parallel driver fans out.
struct TileGrid {
  std::size_t tile_m = 0, tile_n = 0;
  std::size_t grid_m = 0, grid_n = 0;
  std::size_t count() const { return grid_m * grid_n; }
};

/// Picks tile extents: start from the packed blocking (the RUNTIME
/// MC x NC when the packed tier is active -- a tuned NC changes the
/// natural tile width) and shrink toward micro-tile multiples until
/// the grid feeds every participant, so tall-skinny / short-wide
/// shapes still split evenly. Aligning tiles to the runtime NC keeps
/// each worker's packed-B panel private to its own thread-local
/// buffer: every thread packs (first-touches) the B columns it
/// multiplies, which places the panels on the worker's own NUMA node
/// instead of sharing one master-packed copy across sockets.
TileGrid choose_tiles(std::size_t m, std::size_t n, std::size_t workers) {
  // Non-packed tiers never consult BlockingParams; using the default
  // seed there avoids triggering an autotune search from a tiled run.
  const BlockingParams blocking = active_kernel_tier() == KernelTier::kPacked
                                      ? active_blocking()
                                      : kDefaultBlocking;
  TileGrid tiles{blocking.mc, blocking.nc};
  const std::size_t target = 4 * workers;
  auto count = [&] {
    tiles.grid_m = (m + tiles.tile_m - 1) / tiles.tile_m;
    tiles.grid_n = (n + tiles.tile_n - 1) / tiles.tile_n;
    return tiles.count();
  };
  // Shrink no further than two register tiles of the active
  // micro-kernel, so smaller tiles keep a finer grid.
  const MicroKernelVariant variant = active_micro_kernel_variant();
  const std::size_t nr = micro_kernel_nr(variant);
  const std::size_t min_m = 2 * micro_kernel_mr(variant);
  const std::size_t min_n = 2 * nr;
  while (count() < target && (tiles.tile_m > min_m || tiles.tile_n > min_n)) {
    // Halve the larger extent, keeping micro-tile-multiple sizes.
    if (tiles.tile_m > min_m &&
        (tiles.tile_m >= tiles.tile_n || tiles.tile_n <= min_n))
      tiles.tile_m = round_up(tiles.tile_m / 2, min_m);
    else
      tiles.tile_n = round_up(tiles.tile_n / 2, nr);
  }
  count();
  return tiles;
}

}  // namespace

void gemm_naive(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_naive_unchecked(a, b, c);
}

void gemm_tiled(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_tiled_unchecked(a, b, c);
}

void gemm_simd(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_packed_unchecked(a, b, c);
}

void gemm_simd_with_blocking(ConstView a, ConstView b, View c,
                             const BlockingParams& blocking,
                             std::optional<MicroKernelVariant> variant) {
  check_shapes(a, b, c);
  const MicroKernelVariant chosen =
      variant.value_or(active_micro_kernel_variant());
  HMXP_REQUIRE(micro_kernel_supported(chosen),
               std::string("micro-kernel ") +
                   micro_kernel_variant_name(chosen) +
                   " cannot execute on this CPU");
  validate_blocking(blocking, micro_kernel_mr(chosen),
                    micro_kernel_nr(chosen));
  gemm_packed_unchecked(a, b, c, micro_kernel_info(chosen), blocking);
}

std::size_t pack_buffer_allocations() {
  return pack_buffer_allocation_count.load(std::memory_order_relaxed);
}

void gemm_auto(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  dispatch_serial(a, b, c);
}

void gemm_parallel(ConstView a, ConstView b, View c, int threads) {
  check_shapes(a, b, c);
  if (c.rows() == 0 || c.cols() == 0) return;
  util::ThreadPool& pool = util::shared_pool();
  // Default: hardware_concurrency participants TOTAL (the caller counts
  // as one), matching the old per-call-spawn thread budget.
  const std::size_t want = threads > 0 ? static_cast<std::size_t>(threads)
                                       : static_cast<std::size_t>(pool.size());

  const TileGrid grid = choose_tiles(c.rows(), c.cols(), want);
  if (want <= 1 || grid.count() <= 1) {
    dispatch_serial(a, b, c);
    return;
  }
  util::parallel_drain(pool, grid.count(), want, [&](std::size_t t) {
    const std::size_t i0 = t / grid.grid_n * grid.tile_m;
    const std::size_t j0 = t % grid.grid_n * grid.tile_n;
    const std::size_t rows = std::min(grid.tile_m, c.rows() - i0);
    const std::size_t cols = std::min(grid.tile_n, c.cols() - j0);
    dispatch_serial(subview(a, i0, 0, rows, a.cols()),
                    subview(b, 0, j0, b.rows(), cols),
                    subview(c, i0, j0, rows, cols));
  });
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  HMXP_REQUIRE(a.cols() == b.rows(), "inner dimensions differ");
  HMXP_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "output shape mismatch");
  gemm_auto(a.view(), b.view(), c.view());
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hmxp::matrix
