// Tests for the blocking-parameter autotuner: candidate generation,
// the persistent host-keyed tuning cache (round-trip, corruption and
// stale-version fallback), the forced > cache > search > default
// resolution order, and cross-transport parity with a non-default
// tuned blocking installed (every registered scheduler, thread vs
// process vs shm, bit-for-bit).
//
// The TuningSmoke suite deliberately reads the REAL environment
// (HMXP_TUNE / HMXP_TUNE_CACHE): CI runs it as
//   HMXP_TUNE=smoke HMXP_TUNE_CACHE=$TMP/tuning
//       ./test_tuning --gtest_filter='TuningSmoke.*'
// to prove a bounded deterministic search resolves, installs and
// persists a valid blocking end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/matrix.hpp"
#include "matrix/tuning.hpp"
#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "sched/registry.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#endif

// fork(2) from a multithreaded parent is unsupported by TSan (the child
// inherits a broken runtime); gate explicitly instead of hiding the
// tests from the build.
#if defined(HMXP_TSAN)
#define HMXP_SKIP_UNDER_TSAN()                                     \
  GTEST_SKIP() << "the forked transports are exercised elsewhere; " \
                  "ThreadSanitizer does not support fork()"
#else
#define HMXP_SKIP_UNDER_TSAN() \
  do {                         \
  } while (false)
#endif

namespace hmxp::matrix {
namespace {

/// Restores every piece of tuning state a test may touch, so tests
/// compose in any order and never leak a pin into the rest of the
/// binary.
struct TuningStateGuard {
  ~TuningStateGuard() {
    force_blocking(std::nullopt);
    set_tune_mode(std::nullopt);
    set_tuning_cache_override(std::nullopt);
    invalidate_resolved_blocking();
  }
};

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "hmxp-" + leaf + "-" +
         std::to_string(::getpid());
}

// ---- basics -----------------------------------------------------------------

TEST(Tuning, BlockingToStringAndValidate) {
  EXPECT_EQ(blocking_to_string(kDefaultBlocking), "120x256x512");
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 4, 8));
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 6, 8));
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 8, 8));
  // MC not a multiple of MR.
  EXPECT_THROW(validate_blocking({121, 256, 512}, 4, 8),
               std::invalid_argument);
  // NC not a multiple of NR.
  EXPECT_THROW(validate_blocking({120, 256, 100}, 4, 8),
               std::invalid_argument);
  // Zero extents.
  EXPECT_THROW(validate_blocking({0, 256, 512}, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(validate_blocking({120, 0, 512}, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(validate_blocking({120, 256, 0}, 4, 8),
               std::invalid_argument);
}

TEST(Tuning, DefaultBlockingValidForEveryMicroKernel) {
  // kDefaultBlocking is the fallback and the search's safety candidate
  // for every variant, including ones this host cannot execute, so it
  // must fit every register tile.
  for (const MicroKernelVariant variant :
       {MicroKernelVariant::kPortable, MicroKernelVariant::kAvx2Fma,
        MicroKernelVariant::kAvx512})
    EXPECT_NO_THROW(validate_blocking(kDefaultBlocking,
                                      micro_kernel_mr(variant),
                                      micro_kernel_nr(variant)))
        << micro_kernel_variant_name(variant);
}

TEST(Tuning, TuneModeNamesParseBothWays) {
  for (const TuneMode mode : {TuneMode::kOff, TuneMode::kAuto,
                              TuneMode::kForce, TuneMode::kSmoke}) {
    const auto parsed = parse_tune_mode(tune_mode_name(mode));
    ASSERT_TRUE(parsed.has_value()) << tune_mode_name(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(parse_tune_mode("on"), TuneMode::kAuto);
  EXPECT_EQ(parse_tune_mode("retune"), TuneMode::kForce);
  EXPECT_EQ(parse_tune_mode("SMOKE"), TuneMode::kSmoke);
  EXPECT_EQ(parse_tune_mode("bogus"), std::nullopt);
}

TEST(Tuning, CandidatesAreValidDeterministicAndIncludeTheBaseline) {
  const CacheHierarchy& caches = detect_cache_hierarchy();
  for (const std::size_t mr : {std::size_t{4}, std::size_t{6},
                               std::size_t{8}}) {
    SCOPED_TRACE(mr);
    const auto full = blocking_candidates(caches, mr, 8, /*smoke=*/false);
    const auto smoke = blocking_candidates(caches, mr, 8, /*smoke=*/true);
    ASSERT_FALSE(full.empty());
    ASSERT_FALSE(smoke.empty());
    EXPECT_LE(smoke.size(), 3u);
    // The historical baseline is always candidate zero: the search can
    // never pick something slower than the hardcoded blocking.
    EXPECT_EQ(full.front(), kDefaultBlocking);
    EXPECT_EQ(smoke.front(), kDefaultBlocking);
    for (const auto& candidate : full)
      EXPECT_NO_THROW(validate_blocking(candidate, mr, 8))
          << blocking_to_string(candidate);
    // Deterministic: same hierarchy in, same candidates out.
    EXPECT_EQ(blocking_candidates(caches, mr, 8, false), full);
    EXPECT_EQ(blocking_candidates(caches, mr, 8, true), smoke);
  }
}

TEST(Tuning, CacheKeyNamesTheVariantAndRegisterTile) {
  const auto tile = [](MicroKernelVariant variant) {
    return "mr" + std::to_string(micro_kernel_mr(variant)) + "nr" +
           std::to_string(micro_kernel_nr(variant));
  };
  const std::string portable = tuning_cache_key(MicroKernelVariant::kPortable);
  EXPECT_NE(portable.find("portable"), std::string::npos);
  EXPECT_NE(portable.find(tile(MicroKernelVariant::kPortable)),
            std::string::npos);
  const std::string avx2 = tuning_cache_key(MicroKernelVariant::kAvx2Fma);
  EXPECT_NE(avx2.find("avx2+fma"), std::string::npos);
  EXPECT_NE(avx2.find(tile(MicroKernelVariant::kAvx2Fma)), std::string::npos);
  const std::string avx512 = tuning_cache_key(MicroKernelVariant::kAvx512);
  EXPECT_NE(avx512.find("avx512"), std::string::npos);
  EXPECT_NE(avx512.find(tile(MicroKernelVariant::kAvx512)), std::string::npos);
  // Distinct variants can never collide on one host.
  EXPECT_NE(portable, avx2);
  EXPECT_NE(avx2, avx512);
}

// ---- the persistent cache file ----------------------------------------------

TEST(Tuning, CacheRoundTripsAndPreservesOtherEntries) {
  const std::string path = temp_path("cache-roundtrip");
  const BlockingParams mine{96, 192, 1024};
  const BlockingParams theirs{48, 128, 512};
  ASSERT_TRUE(store_tuned_blocking(path, "other-host|portable|mr4nr8",
                                   theirs));
  ASSERT_TRUE(store_tuned_blocking(path, "this-host|avx512|mr8nr8", mine));

  EXPECT_EQ(load_tuned_blocking(path, "this-host|avx512|mr8nr8"), mine);
  EXPECT_EQ(load_tuned_blocking(path, "other-host|portable|mr4nr8"), theirs);
  EXPECT_EQ(load_tuned_blocking(path, "absent-key"), std::nullopt);

  // Re-storing the same key replaces it without duplicating.
  const BlockingParams updated{120, 256, 2048};
  ASSERT_TRUE(store_tuned_blocking(path, "this-host|avx512|mr8nr8", updated));
  EXPECT_EQ(load_tuned_blocking(path, "this-host|avx512|mr8nr8"), updated);
  EXPECT_EQ(load_tuned_blocking(path, "other-host|portable|mr4nr8"), theirs);
  std::remove(path.c_str());
}

TEST(Tuning, CorruptOrStaleCacheReadsAsAbsentNeverThrows) {
  const std::string path = temp_path("cache-corrupt");
  const auto write_file = [&](const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  };
  // Missing file.
  std::remove(path.c_str());
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  // Stale/foreign version header.
  write_file("hmxp-tune v0\nkey\t96 192 1024\n");
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  // Binary garbage.
  write_file("\x7f\x45\x4c\x46 not a cache at all");
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  // Right header, malformed entry line: the WHOLE file is suspect.
  write_file("hmxp-tune v1\nkey\t96 onehundred 1024\n");
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  write_file("hmxp-tune v1\nno-tab-separator 96 192 1024\n");
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  write_file("hmxp-tune v1\nkey\t96 192 1024 trailing-junk\n");
  EXPECT_EQ(load_tuned_blocking(path, "key"), std::nullopt);
  // A corrupt file is also safe to store through (rewritten whole).
  write_file("garbage");
  EXPECT_TRUE(store_tuned_blocking(path, "key", {96, 192, 1024}));
  EXPECT_EQ(load_tuned_blocking(path, "key"),
            (BlockingParams{96, 192, 1024}));
  std::remove(path.c_str());
}

TEST(Tuning, CacheOffDisablesPersistence) {
  const TuningStateGuard guard;
  set_tuning_cache_override("off");
  EXPECT_TRUE(tuning_cache_path().empty());
  EXPECT_FALSE(store_tuned_blocking(tuning_cache_path(), "key",
                                    kDefaultBlocking));
  set_tuning_cache_override(temp_path("cache-on"));
  EXPECT_FALSE(tuning_cache_path().empty());
}

// ---- resolution order -------------------------------------------------------

TEST(Tuning, ResolutionWalksForcedCacheSearchDefault) {
  const TuningStateGuard guard;
  const MicroKernelVariant variant = active_micro_kernel_variant();
  const std::size_t mr = micro_kernel_mr(variant);
  const std::size_t nr = micro_kernel_nr(variant);
  const std::string path = temp_path("cache-resolution");
  std::remove(path.c_str());
  set_tuning_cache_override(path);

  // Tuning off: the historical default, nothing measured.
  set_tune_mode(TuneMode::kOff);
  invalidate_resolved_blocking();
  TuneOutcome outcome = resolve_blocking(variant);
  EXPECT_STREQ(outcome.source, "off");
  EXPECT_EQ(outcome.params, kDefaultBlocking);
  EXPECT_EQ(outcome.candidates_measured, 0u);

  // Auto with a pre-seeded cache: the cached winner installs without a
  // search. 24 is a multiple of every register-tile MR (4, 6, 8).
  const BlockingParams seeded{24, 64, nr * 32};
  ASSERT_NO_THROW(validate_blocking(seeded, mr, nr));
  ASSERT_TRUE(store_tuned_blocking(path, tuning_cache_key(variant), seeded));
  set_tune_mode(TuneMode::kAuto);
  invalidate_resolved_blocking();
  outcome = resolve_blocking(variant);
  EXPECT_STREQ(outcome.source, "cache");
  EXPECT_EQ(outcome.params, seeded);
  EXPECT_EQ(outcome.candidates_measured, 0u);
  EXPECT_EQ(active_blocking(), seeded);

  // An ABSURD cached entry must not install: corruption falls back to a
  // real search, never a crash.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "hmxp-tune v1\n"
        << tuning_cache_key(variant) << "\t7 3 11\n";
  }
  invalidate_resolved_blocking();
  outcome = resolve_blocking(variant);
  EXPECT_STREQ(outcome.source, "search");
  EXPECT_GT(outcome.candidates_measured, 0u);
  EXPECT_NO_THROW(validate_blocking(outcome.params, mr, nr));

  // The search persisted its winner: resolving again reads the cache.
  EXPECT_EQ(load_tuned_blocking(path, tuning_cache_key(variant)),
            outcome.params);
  invalidate_resolved_blocking();
  const TuneOutcome again = resolve_blocking(variant);
  EXPECT_STREQ(again.source, "cache");
  EXPECT_EQ(again.params, outcome.params);

  // A forced pin beats everything.
  const BlockingParams pinned{mr * 6, 96, nr * 16};
  force_blocking(pinned);
  EXPECT_STREQ(resolve_blocking(variant).source, "forced");
  EXPECT_EQ(resolve_blocking(variant).params, pinned);
  EXPECT_EQ(active_blocking(), pinned);
  std::remove(path.c_str());
}

TEST(Tuning, SmokeSearchIsBoundedAndIgnoresTheCache) {
  const TuningStateGuard guard;
  const MicroKernelVariant variant = active_micro_kernel_variant();
  const std::string path = temp_path("cache-smoke");
  std::remove(path.c_str());
  set_tuning_cache_override(path);
  // Seed a cache entry smoke mode must NOT short-circuit through.
  const BlockingParams seeded{micro_kernel_mr(variant) * 4, 64,
                              micro_kernel_nr(variant) * 8};
  ASSERT_TRUE(store_tuned_blocking(path, tuning_cache_key(variant), seeded));

  set_tune_mode(TuneMode::kSmoke);
  invalidate_resolved_blocking();
  const TuneOutcome outcome = resolve_blocking(variant);
  EXPECT_STREQ(outcome.source, "search");
  EXPECT_GT(outcome.candidates_measured, 0u);
  EXPECT_LE(outcome.candidates_measured, 3u);
  EXPECT_NO_THROW(validate_blocking(outcome.params,
                                    micro_kernel_mr(variant),
                                    micro_kernel_nr(variant)));
  std::remove(path.c_str());
}

TEST(Tuning, NonDefaultResolvedBlockingComputesCorrectly) {
  // The tuner's winner is not just installed -- the packed path computes
  // the right product under it (exercised against the naive oracle).
  const TuningStateGuard guard;
  set_tune_mode(TuneMode::kSmoke);
  set_tuning_cache_override("off");
  invalidate_resolved_blocking();
  const BlockingParams params = active_blocking();

  util::Rng rng(404);
  const auto a = Matrix::random(137, 61, rng);
  const auto b = Matrix::random(61, 149, rng);
  Matrix c(137, 149, 0.0);
  Matrix oracle = c;
  gemm_simd(a.view(), b.view(), c.view());
  gemm_naive(a.view(), b.view(), oracle.view());
  EXPECT_LT(Matrix::max_abs_diff(c, oracle), 1e-9)
      << "blocking " << blocking_to_string(params);
}

// ---- cross-transport parity under a tuned blocking --------------------------

TEST(Tuning, EverySchedulerRepliesIdenticallyOnAllTransportsWhenTuned) {
  HMXP_SKIP_UNDER_TSAN();
  // The acceptance bar for the fork-boundary propagation: install a
  // NON-default blocking (valid for every micro-kernel tile), then for
  // every registered scheduler replay one simulated schedule on the
  // thread, process and shm transports. The hello handshake proves each
  // forked worker booted with the identical tuned configuration, and
  // the three C matrices must agree bit for bit.
  const TuningStateGuard guard;
  force_blocking(BlockingParams{48, 96, 128});
  ASSERT_EQ(active_blocking(), (BlockingParams{48, 96, 128}));

  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(52, 70, 100, 8);
  util::Rng rng(11);
  const auto a = Matrix::random(part.n_a(), part.n_ab(), rng);
  util::Rng rng_b(12);
  const auto b = Matrix::random(part.n_ab(), part.n_b(), rng_b);
  util::Rng rng_c(13);
  const Matrix c_initial = Matrix::random(part.n_a(), part.n_b(), rng_c);

  const runtime::TransportKind kinds[3] = {runtime::TransportKind::kThread,
                                           runtime::TransportKind::kProcess,
                                           runtime::TransportKind::kShm};
  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    auto probe = sched::Registry::instance().make(algorithm, plat, part);
    std::vector<sim::Decision> simulated;
    sim::simulate(*probe, plat, part, false, &simulated);

    Matrix results[3] = {c_initial, c_initial, c_initial};
    for (int which = 0; which < 3; ++which) {
      sim::ReplayScheduler replay(algorithm, simulated);
      runtime::ExecutorOptions options;
      options.transport = kinds[which];
      const runtime::ExecutorReport report = runtime::execute_online(
          replay, plat, part, a, b, results[which], options);
      EXPECT_TRUE(report.verified)
          << runtime::transport_kind_name(kinds[which]);
      // The report names the tuned configuration it ran under.
      EXPECT_EQ(report.kernel_blocking, (BlockingParams{48, 96, 128}));
    }
    EXPECT_EQ(Matrix::max_abs_diff(results[1], results[0]), 0.0);
    EXPECT_EQ(Matrix::max_abs_diff(results[2], results[0]), 0.0);
  }
}

}  // namespace
}  // namespace hmxp::matrix

// ---- CI smoke: the real environment -----------------------------------------

namespace hmxp::matrix {
namespace {

TEST(TuningSmoke, ResolvesInstallsAndPersistsUnderTheRealEnvironment) {
  // No overrides: HMXP_TUNE / HMXP_TUNE_CACHE govern, exactly as a user
  // run would. CI invokes this filter with HMXP_TUNE=smoke and a temp
  // cache dir; locally it exercises whatever the environment says.
  invalidate_resolved_blocking();
  const MicroKernelVariant variant = active_micro_kernel_variant();
  const TuneOutcome outcome = resolve_blocking(variant);
  EXPECT_NO_THROW(validate_blocking(outcome.params, micro_kernel_mr(variant),
                                    micro_kernel_nr(variant)));
  const std::string source(outcome.source);
  EXPECT_TRUE(source == "off" || source == "cache" || source == "search" ||
              source == "forced")
      << source;

  // Idempotent: the second resolve reads the installed slot.
  const TuneOutcome again = resolve_blocking(variant);
  EXPECT_EQ(again.params, outcome.params);

  // When a search ran and persistence is on, the winner must be on disk
  // under this host's key.
  if (source == "search" && !tuning_cache_path().empty()) {
    EXPECT_EQ(load_tuned_blocking(tuning_cache_path(),
                                  tuning_cache_key(variant)),
              outcome.params);
  }

  // And the installed blocking computes the right product.
  util::Rng rng(505);
  const auto a = Matrix::random(96, 48, rng);
  const auto b = Matrix::random(48, 112, rng);
  Matrix c(96, 112, 0.0);
  Matrix oracle = c;
  gemm_simd(a.view(), b.view(), c.view());
  gemm_naive(a.view(), b.view(), oracle.view());
  EXPECT_LT(Matrix::max_abs_diff(c, oracle), 1e-9);
}

}  // namespace
}  // namespace hmxp::matrix
