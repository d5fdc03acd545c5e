// Blocking-parameter autotuning for the packed GEMM path.
//
// The packed tier blocks A into MC x KC panels (sized for L2), B into
// KC x NC panels (sized for L3, streamed through L1 in KC x NR
// slivers). One fixed MC/KC/NC cannot fit every cache hierarchy, so
// the blocking is a runtime value resolved at first use, per
// micro-kernel variant, in this order:
//
//   1. force_blocking()            -- programmatic pin (tests, forked
//                                     workers re-asserting the master's
//                                     tuned configuration);
//   2. the host tuning cache       -- winners persisted per
//                                     (cpu model, variant) key, so the
//                                     search cost is paid once per host;
//   3. an at-first-use search      -- candidates seeded from the
//                                     detected cache hierarchy
//                                     (sysfs/fallback) plus the
//                                     historical 120/256/512 baseline,
//                                     each measured on a short
//                                     fixed-work GEMM; the fastest wins
//                                     and is persisted;
//   4. the 120/256/512 default     -- when tuning is off.
//
// Knobs:
//   HMXP_TUNE        off | auto | force | smoke  (--tune on benches /
//                    examples maps here; force ignores the cache and
//                    re-searches, smoke is a bounded deterministic
//                    candidate set for CI).
//   HMXP_TUNE_CACHE  cache file path, or "off" to disable persistence.
//                    Default: $XDG_CACHE_HOME/hmxp/tuning (falling back
//                    to $HOME/.cache/hmxp/tuning; no HOME = disabled).
//
// This is the per-host adaptivity the paper assumes when it takes each
// worker's speed w_i as a measured given: every host runs the packed
// kernel as fast as its own hierarchy allows.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "matrix/kernel_dispatch.hpp"

namespace hmxp::matrix {

/// Cache-blocking extents of the packed path: A panels are MC x KC,
/// B panels KC x NC.
struct BlockingParams {
  std::size_t mc = 0;
  std::size_t kc = 0;
  std::size_t nc = 0;
  friend bool operator==(const BlockingParams&,
                         const BlockingParams&) = default;
};

/// The historical hardcoded blocking (valid for every micro-kernel:
/// 120 is a multiple of MR = 4, 6, 12; 512 of NR = 8, 16). Also the
/// search's safety candidate: the winner can never regress below it.
inline constexpr BlockingParams kDefaultBlocking{120, 256, 512};

/// "MCxKCxNC", e.g. "120x256x512".
std::string blocking_to_string(const BlockingParams& params);

/// Throws std::invalid_argument unless `params` is a sane blocking for
/// a micro-kernel with the given register tile: all extents nonzero,
/// MC a multiple of MR (<= 4096), NC a multiple of NR (<= 16384),
/// KC in [4, 8192], and the packed-panel footprint below 256 MiB --
/// deliberately absurd tuned parameters must never install.
void validate_blocking(const BlockingParams& params, std::size_t mr,
                       std::size_t nr);

/// Detected data-cache sizes in bytes; `detected` is false when sysfs
/// was unreadable and the conservative defaults (32 KiB / 1 MiB /
/// 8 MiB) were substituted.
struct CacheHierarchy {
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t l3_bytes = 8 * 1024 * 1024;
  bool detected = false;
};

/// Reads /sys/devices/system/cpu/cpu0/cache (Linux); falls back to the
/// defaults above anywhere else. Cached after the first call.
const CacheHierarchy& detect_cache_hierarchy();

/// Candidate blockings for a register tile on a hierarchy: the
/// analytic BLIS seeding (KC from L1d, MC from L2, NC from L3) plus
/// scaled neighbors, always including kDefaultBlocking. `smoke` bounds
/// the set to <= 3 deterministic candidates for CI smoke runs. Every
/// candidate passes validate_blocking.
std::vector<BlockingParams> blocking_candidates(const CacheHierarchy& caches,
                                                std::size_t mr,
                                                std::size_t nr, bool smoke);

enum class TuneMode { kOff, kAuto, kForce, kSmoke };
const char* tune_mode_name(TuneMode mode);
std::optional<TuneMode> parse_tune_mode(const std::string& name);

/// Programmatic override (--tune) > HMXP_TUNE > kAuto.
void set_tune_mode(std::optional<TuneMode> mode);
TuneMode active_tune_mode();

/// Programmatic cache-location override (> HMXP_TUNE_CACHE). Pass the
/// path, "off" to disable persistence, or nullopt to fall back to the
/// environment.
void set_tuning_cache_override(std::optional<std::string> path_or_off);

/// Resolved cache file path; empty when persistence is disabled.
std::string tuning_cache_path();

/// Host key for a variant's tuned blocking: cpu model + variant name +
/// register tile, so a cache file copied across hosts (or an upgraded
/// kernel) can never install a foreign blocking.
std::string tuning_cache_key(MicroKernelVariant variant);

/// Reads `key` from the cache file at `path`. Returns nullopt -- never
/// throws -- on a missing/corrupt/stale-version file or an absent key;
/// a bad cache always falls back to re-tuning.
std::optional<BlockingParams> load_tuned_blocking(const std::string& path,
                                                  const std::string& key);

/// Inserts/updates `key` in the cache file (atomic tmp+rename; other
/// valid entries are preserved). Returns false -- never throws -- when
/// the file cannot be written.
bool store_tuned_blocking(const std::string& path, const std::string& key,
                          const BlockingParams& params);

/// Where an installed blocking came from.
struct TuneOutcome {
  BlockingParams params;
  /// "forced" | "off" | "cache" | "search".
  const char* source = "";
  std::size_t candidates_measured = 0;
};

/// Resolves (and installs) the blocking for `variant`: forced pin >
/// cache > measured search > default, per the mode. Idempotent and
/// thread-safe; the first caller pays the search, everyone after reads
/// the installed value.
TuneOutcome resolve_blocking(MicroKernelVariant variant);

/// The blocking the packed path uses right now (resolves the active
/// micro-kernel variant on first call).
BlockingParams active_blocking();

/// Pins (or unpins) the blocking for every variant, validated against
/// the ACTIVE variant's register tile. Takes precedence over cache and
/// search. Not thread-safe against concurrent GEMM calls.
void force_blocking(std::optional<BlockingParams> params);
std::optional<BlockingParams> forced_blocking();

/// Test hook: drops every resolved (non-forced) blocking so the next
/// active_blocking() re-runs the cache/search resolution.
void invalidate_resolved_blocking();

/// The full kernel configuration of this process: dispatch pins, the
/// resolved tier/variant, and the installed blocking. The process and
/// shm transports capture it in the master before forking, re-assert
/// it in every child (install_kernel_config), and verify it in the
/// bootstrap hello handshake -- a forked worker provably runs the
/// identical tuned configuration.
struct KernelConfig {
  std::optional<KernelTier> forced_tier;
  KernelTier active_tier = KernelTier::kPacked;
  std::optional<MicroKernelVariant> forced_variant;
  MicroKernelVariant active_variant = MicroKernelVariant::kPortable;
  BlockingParams blocking = kDefaultBlocking;
};

/// Captures the current configuration. Resolves the blocking (possibly
/// autotuning) when the packed tier is active, so the search runs in
/// the master BEFORE any fork; other tiers report kDefaultBlocking
/// without triggering a search.
KernelConfig current_kernel_config();

/// Re-asserts `config` in this process: pins tier, variant and
/// blocking, and exports HMXP_FORCE_KERNEL for exec'd descendants.
void install_kernel_config(const KernelConfig& config);

}  // namespace hmxp::matrix
