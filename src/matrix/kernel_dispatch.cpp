#include "matrix/kernel_dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace hmxp::matrix {

namespace {

// Encodes optional<KernelTier> in an atomic int: -1 = no override.
std::atomic<int> forced_tier{-1};
// Likewise for optional<MicroKernelVariant>.
std::atomic<int> forced_variant{-1};

/// HMXP_FORCE_KERNEL resolved once: the environment cannot retarget a
/// running process, and getenv is not safe against concurrent setenv.
const KernelPin& env_pin() {
  static const KernelPin resolved = [] {
    const char* forced = std::getenv("HMXP_FORCE_KERNEL");
    if (forced == nullptr || *forced == '\0') return KernelPin{};
    const std::optional<KernelPin> pin = parse_kernel_pin(forced);
    HMXP_REQUIRE(pin.has_value(),
                 std::string("HMXP_FORCE_KERNEL must be ") +
                     kernel_pin_names() + ", got \"" + forced + '"');
    if (pin->variant.has_value())
      HMXP_REQUIRE(micro_kernel_supported(*pin->variant),
                   std::string("HMXP_FORCE_KERNEL pins ") +
                       micro_kernel_variant_name(*pin->variant) +
                       " but this CPU cannot execute it");
    return *pin;
  }();
  return resolved;
}

MicroKernelVariant widest_supported_variant() {
  if (cpu_supports_avx512()) return MicroKernelVariant::kAvx512;
  if (cpu_supports_avx2_fma()) return MicroKernelVariant::kAvx2Fma;
  return MicroKernelVariant::kPortable;
}

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kNaive:
      return "naive";
    case KernelTier::kTiled:
      return "tiled";
    case KernelTier::kPacked:
      return "simd";
  }
  return "unknown";
}

const char* micro_kernel_variant_name(MicroKernelVariant variant) {
  switch (variant) {
    case MicroKernelVariant::kPortable:
      return "portable";
    case MicroKernelVariant::kAvx2Fma:
      return "avx2+fma";
    case MicroKernelVariant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<KernelTier> parse_kernel_tier(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "naive") return KernelTier::kNaive;
  if (lower == "tiled") return KernelTier::kTiled;
  if (lower == "simd" || lower == "packed") return KernelTier::kPacked;
  return std::nullopt;
}

std::optional<MicroKernelVariant> parse_micro_kernel_variant(
    const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "portable") return MicroKernelVariant::kPortable;
  if (lower == "avx2" || lower == "avx2+fma")
    return MicroKernelVariant::kAvx2Fma;
  if (lower == "avx512" || lower == "avx-512")
    return MicroKernelVariant::kAvx512;
  return std::nullopt;
}

std::optional<KernelPin> parse_kernel_pin(const std::string& name) {
  if (const auto tier = parse_kernel_tier(name); tier.has_value())
    return KernelPin{tier, std::nullopt};
  if (const auto variant = parse_micro_kernel_variant(name);
      variant.has_value())
    // A variant name implies the packed tier: "avx512" means "run the
    // packed path on the AVX-512 micro-kernel", not just a preference.
    return KernelPin{KernelTier::kPacked, variant};
  return std::nullopt;
}

const char* kernel_pin_names() {
  return "naive, tiled, simd, portable, avx2 or avx512";
}

void apply_kernel_pin(const std::string& name) {
  const std::optional<KernelPin> pin = parse_kernel_pin(name);
  HMXP_REQUIRE(pin.has_value(), std::string("kernel pin must be ") +
                                    kernel_pin_names() + ", got \"" + name +
                                    '"');
  force_micro_kernel_variant(pin->variant);  // throws before any change
  force_kernel_tier(pin->tier);
}

KernelTier active_kernel_tier() {
  const int forced = forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelTier>(forced);
  return env_pin().tier.value_or(KernelTier::kPacked);
}

void force_kernel_tier(std::optional<KernelTier> tier) {
  forced_tier.store(tier.has_value() ? static_cast<int>(*tier) : -1,
                    std::memory_order_relaxed);
}

std::optional<KernelTier> forced_kernel_tier() {
  const int forced = forced_tier.load(std::memory_order_relaxed);
  if (forced < 0) return std::nullopt;
  return static_cast<KernelTier>(forced);
}

MicroKernelVariant active_micro_kernel_variant() {
  const int forced = forced_variant.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<MicroKernelVariant>(forced);
  if (env_pin().variant.has_value()) return *env_pin().variant;
  return widest_supported_variant();
}

void force_micro_kernel_variant(std::optional<MicroKernelVariant> variant) {
  if (variant.has_value())
    HMXP_REQUIRE(micro_kernel_supported(*variant),
                 std::string("cannot pin micro-kernel ") +
                     micro_kernel_variant_name(*variant) +
                     ": this CPU cannot execute it");
  forced_variant.store(
      variant.has_value() ? static_cast<int>(*variant) : -1,
      std::memory_order_relaxed);
}

std::optional<MicroKernelVariant> forced_micro_kernel_variant() {
  const int forced = forced_variant.load(std::memory_order_relaxed);
  if (forced < 0) return std::nullopt;
  return static_cast<MicroKernelVariant>(forced);
}

std::size_t micro_kernel_mr(MicroKernelVariant variant) {
  switch (variant) {
    case MicroKernelVariant::kPortable:
      return 4;
    case MicroKernelVariant::kAvx2Fma:
      return 6;
    case MicroKernelVariant::kAvx512:
      return 12;
  }
  return 4;
}

std::size_t micro_kernel_nr(MicroKernelVariant variant) {
  // Two zmm (8 doubles each) wide on AVX-512; 8 doubles elsewhere.
  return variant == MicroKernelVariant::kAvx512 ? 16 : 8;
}

bool cpu_supports_avx2_fma() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
#else
  return false;
#endif
}

bool micro_kernel_supported(MicroKernelVariant variant) {
  switch (variant) {
    case MicroKernelVariant::kPortable:
      return true;
    case MicroKernelVariant::kAvx2Fma:
      return cpu_supports_avx2_fma();
    case MicroKernelVariant::kAvx512:
      return cpu_supports_avx512();
  }
  return false;
}

void force_portable_micro_kernel(bool force) {
  force_micro_kernel_variant(
      force ? std::optional(MicroKernelVariant::kPortable) : std::nullopt);
}

bool portable_micro_kernel_forced() {
  return forced_micro_kernel_variant() == MicroKernelVariant::kPortable;
}

const char* packed_kernel_variant() {
  return micro_kernel_variant_name(active_micro_kernel_variant());
}

}  // namespace hmxp::matrix
