#include "util/cpu_features.h"

#include "util/flags.h"
#include "util/status.h"
#include "util/string_util.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace deepaqp::util {

namespace {

/// Parses a DEEPAQP_CPU_DISABLE list and masks the named features off.
/// InvalidArgument on an unknown name; `*features` is untouched on error.
Status MaskCpuFeatures(std::string_view list, CpuFeatures* features) {
  CpuFeatures masked = *features;
  for (const std::string& name : Split(list, ',')) {
    const std::string token = Trim(name);
    if (token.empty()) continue;
    if (token == "avx2") {
      masked.avx2 = false;
    } else if (token == "fma") {
      masked.fma = false;
    } else if (token == "f16c") {
      masked.f16c = false;
    } else if (token == "avx512f") {
      masked.avx512f = false;
    } else if (token == "neon") {
      masked.neon = false;
    } else {
      return Status::InvalidArgument("unknown cpu feature '" + token +
                                     "' (avx2|fma|f16c|avx512f|neon)");
    }
  }
  *features = masked;
  return Status::OK();
}

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // GCC/Clang resolve these through cpuid at first use; no asm needed.
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.f16c = __builtin_cpu_supports("f16c") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#elif defined(__aarch64__)
#if defined(__linux__)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  // Advanced SIMD is architecturally mandatory on AArch64.
  f.neon = true;
#endif
#endif
  return f;
}

const CpuFeatures* g_test_override = nullptr;

}  // namespace

const CpuFeatures& CpuInfo() {
  static const CpuFeatures detected =
      EnvKnobOr("DEEPAQP_CPU_DISABLE", Detect(), &MaskCpuFeatures);
  return g_test_override != nullptr ? *g_test_override : detected;
}

void SetCpuFeaturesForTest(const CpuFeatures* features) {
  g_test_override = features;
}

std::string CpuFeaturesToString(const CpuFeatures& features) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ' ';
    out += name;
  };
  if (features.avx2) add("avx2");
  if (features.fma) add("fma");
  if (features.f16c) add("f16c");
  if (features.avx512f) add("avx512f");
  if (features.neon) add("neon");
  return out;
}

}  // namespace deepaqp::util
