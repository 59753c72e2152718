#include "nn/kernels_quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nn/aligned_buffer.h"
#include "nn/arena.h"
#include "nn/kernels_internal.h"
#include "nn/kernels_quant_internal.h"
#include "nn/layers.h"
#include "util/cpu_features.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepaqp::nn {

namespace {

using internal::CeilDiv;
using internal::Epilogue;
using internal::kMc;
using internal::kMr;
using internal::kNr;
using internal::kParallelFlopCutoff;
using internal::kQKg;
using internal::kQMaxAbs;
using internal::kQNr;
using internal::View;

}  // namespace

// ---------------------------------------------------------------------------
// Half-precision conversions
// ---------------------------------------------------------------------------

/// float -> binary16 with round-to-nearest-even — the same rounding VCVTPS2PH
/// performs, so panels built here match what F16C hardware would produce.
uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint32_t sign = (x >> 16) & 0x8000u;
  uint32_t mant = x & 0x7FFFFFu;
  const uint32_t exp_f = (x >> 23) & 0xFFu;
  if (exp_f == 0xFFu) {  // inf / NaN (keep NaN-ness in the top mantissa bit)
    return static_cast<uint16_t>(sign | 0x7C00u | (mant != 0 ? 0x200u : 0u));
  }
  const int32_t exp_h = static_cast<int32_t>(exp_f) - 127 + 15;
  if (exp_h >= 31) return static_cast<uint16_t>(sign | 0x7C00u);  // -> inf
  if (exp_h <= 0) {
    // Subnormal half (or underflow to zero): shift the implicit-1 mantissa
    // down and round to nearest even on the dropped bits.
    if (exp_h < -10) return static_cast<uint16_t>(sign);
    mant |= 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exp_h);  // 14..24
    uint32_t half_mant = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u) != 0)) {
      ++half_mant;  // may carry into the exponent field: still correct
    }
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = sign | (static_cast<uint32_t>(exp_h) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0)) {
    ++half;  // mantissa carry rolls into the exponent / infinity correctly
  }
  return static_cast<uint16_t>(half);
}

/// binary16 -> float: exact (every half value is representable in float).
float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp_h = (h >> 10) & 0x1Fu;
  const uint32_t mant = h & 0x3FFu;
  uint32_t bits;
  if (exp_h == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half: normalize the mantissa into float's implicit-1 form.
      uint32_t m = mant;
      int e = -1;
      do {
        m <<= 1;
        ++e;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3FFu) << 13);
    }
  } else if (exp_h == 31) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp_h - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// ---------------------------------------------------------------------------
// Quantization (Prepare-time, off the hot path)
// ---------------------------------------------------------------------------

util::Status QuantizeLinear(const Matrix& w, const Matrix& bias,
                            QuantMode mode, QuantizedLinear* q) {
  if (mode == QuantMode::kOff) {
    return util::Status::InvalidArgument(
        "QuantizeLinear: mode must be fp16 or int8");
  }
  if (!AllFinite(w)) {
    return util::Status::InvalidArgument(
        "QuantizeLinear: weight matrix has non-finite entries");
  }
  const size_t k = w.rows();
  const size_t n = w.cols();
  if (bias.size() != 0 && (bias.rows() != 1 || bias.cols() != n)) {
    return util::Status::InvalidArgument("QuantizeLinear: bias shape mismatch");
  }
  QuantizedLinear out;
  out.in = k;
  out.out = n;
  out.mode = mode;
  if (bias.size() != 0) {
    out.bias.assign(bias.data(), bias.data() + n);
  }
  if (mode == QuantMode::kInt8) {
    const size_t kgroups = CeilDiv(k, kQKg);
    const size_t n_panels = CeilDiv(n, kQNr);
    out.scale.assign(n, 0.0f);
    std::vector<float> inv(n, 0.0f);
    for (size_t j = 0; j < n; ++j) {
      float amax = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        amax = std::max(amax, std::fabs(w.At(kk, j)));
      }
      if (amax > 0.0f) {
        out.scale[j] = amax / static_cast<float>(kQMaxAbs);
        inv[j] = static_cast<float>(kQMaxAbs) / amax;
      }
    }
    out.weight_i8.assign(n_panels * kgroups * kQNr * kQKg, 0);
    for (size_t p = 0; p < n_panels; ++p) {
      for (size_t g = 0; g < kgroups; ++g) {
        int8_t* cell = out.weight_i8.data() + (p * kgroups + g) * (kQNr * kQKg);
        for (size_t jr = 0; jr < kQNr; ++jr) {
          const size_t j = p * kQNr + jr;
          if (j >= n) break;  // trailing panels stay zero-padded
          for (size_t kk = 0; kk < kQKg; ++kk) {
            const size_t kidx = g * kQKg + kk;
            if (kidx >= k) break;
            long v = std::lrintf(w.At(kidx, j) * inv[j]);
            v = std::min<long>(kQMaxAbs, std::max<long>(-kQMaxAbs, v));
            cell[jr * kQKg + kk] = static_cast<int8_t>(v);
          }
        }
      }
    }
  } else {
    const size_t n_panels = CeilDiv(n, kNr);
    out.weight_f16.assign(n_panels * k * kNr, 0);
    for (size_t p = 0; p < n_panels; ++p) {
      uint16_t* panel = out.weight_f16.data() + p * (k * kNr);
      const size_t n_eff = std::min(kNr, n - p * kNr);
      for (size_t kk = 0; kk < k; ++kk) {
        for (size_t jr = 0; jr < n_eff; ++jr) {
          panel[kk * kNr + jr] = FloatToHalf(w.At(kk, p * kNr + jr));
        }
      }
    }
  }
  *q = std::move(out);
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// Scalar reference kernels + the one shared epilogue definition
// ---------------------------------------------------------------------------

namespace internal {

void Int8DotRowScalar(const int8_t* qa, const int8_t* wq, size_t kgroups,
                      size_t n_panels, int32_t* acc) {
  for (size_t p = 0; p < n_panels; ++p) {
    const int8_t* panel = wq + p * (kgroups * kQNr * kQKg);
    int32_t* accp = acc + p * kQNr;
    for (size_t jr = 0; jr < kQNr; ++jr) accp[jr] = 0;
    for (size_t g = 0; g < kgroups; ++g) {
      const int8_t* cell = panel + g * (kQNr * kQKg);
      const int8_t* ag = qa + g * kQKg;
      for (size_t jr = 0; jr < kQNr; ++jr) {
        int32_t s = 0;
        for (size_t kk = 0; kk < kQKg; ++kk) {
          s += static_cast<int32_t>(ag[kk]) *
               static_cast<int32_t>(cell[jr * kQKg + kk]);
        }
        accp[jr] += s;
      }
    }
  }
}

void DequantEpilogueRow(const int32_t* acc, float a_scale,
                        const float* w_scale, const float* bias,
                        Activation act, float leaky_slope, float* out,
                        size_t n) {
  const int32_t* __restrict__ a = acc;
  const float* __restrict__ s = w_scale;
  float* __restrict__ o = out;
  if (bias != nullptr) {
    const float* __restrict__ b = bias;
#pragma GCC ivdep
    for (size_t j = 0; j < n; ++j) {
      o[j] = static_cast<float>(a[j]) * (a_scale * s[j]) + b[j];
    }
  } else {
#pragma GCC ivdep
    for (size_t j = 0; j < n; ++j) {
      o[j] = static_cast<float>(a[j]) * (a_scale * s[j]);
    }
  }
  ApplyActivation(act, leaky_slope, out, n);
}

void Fp16MicroKernelScalar(const float* a_panel, const uint16_t* b_panel,
                           size_t kc, float* acc) {
  for (size_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  for (size_t kk = 0; kk < kc; ++kk) {
    const float* arow = a_panel + kk * kMr;
    const uint16_t* brow = b_panel + kk * kNr;
    float bw[kNr];
    for (size_t jr = 0; jr < kNr; ++jr) bw[jr] = HalfToFloat(brow[jr]);
    for (size_t ir = 0; ir < kMr; ++ir) {
      const float av = arow[ir];
      float* accr = acc + ir * kNr;
      for (size_t jr = 0; jr < kNr; ++jr) accr[jr] += av * bw[jr];
    }
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Forward drivers
// ---------------------------------------------------------------------------

namespace {

/// int8 forward: per row, quantize the activations once (dynamic symmetric
/// scale), run the integer dot kernel per 8-column panel, then the fused
/// dequant+bias+activation epilogue while the accumulators are hot.
/// Row blocks are a pure function of m, every row is independent, and the
/// integer accumulation is exact, so the output is bit-identical at every
/// thread count and across the scalar/SIMD kernels.
void Int8ForwardDriver(const Matrix& x, const QuantizedLinear& q,
                       Activation act, float leaky_slope, Matrix* out,
                       bool use_simd) {
  const size_t m = x.rows();
  const size_t k = q.in;
  const size_t n = q.out;
  out->Resize(m, n);
  if (m == 0 || n == 0) return;
  const size_t kgroups = CeilDiv(k, kQKg);
  const size_t n_panels = CeilDiv(n, kQNr);
  const float* bias = q.bias.empty() ? nullptr : q.bias.data();
  const auto body = [&](size_t t) {
    thread_local AlignedVector<int8_t> qa;
    thread_local AlignedVector<int32_t> acc;
    if (qa.size() < kgroups * kQKg) qa.resize(kgroups * kQKg);
    if (acc.size() < n_panels * kQNr) acc.resize(n_panels * kQNr);
    const size_t r0 = t * kMc;
    const size_t r1 = std::min(m, r0 + kMc);
    for (size_t r = r0; r < r1; ++r) {
      const float* xr = x.Row(r);
      float a_scale = 0.0f;
      if (use_simd) {
        a_scale = internal::QuantizeActRowSimd(xr, k, kgroups, qa.data());
      } else {
        float amax = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) {
          amax = std::max(amax, std::fabs(xr[kk]));
        }
        if (amax != 0.0f) {
          a_scale = amax / static_cast<float>(kQMaxAbs);
          const float inv = static_cast<float>(kQMaxAbs) / amax;
          size_t kk = 0;
          for (; kk < k; ++kk) {
            long v = std::lrintf(xr[kk] * inv);
            v = std::min<long>(kQMaxAbs, std::max<long>(-kQMaxAbs, v));
            qa[kk] = static_cast<int8_t>(v);
          }
          for (; kk < kgroups * kQKg; ++kk) qa[kk] = 0;
        }
      }
      if (a_scale == 0.0f) {
        // All-zero row (or k == 0): the product is exactly zero.
        std::fill(acc.begin(), acc.begin() + n_panels * kQNr, 0);
      } else if (use_simd) {
        internal::Int8DotRowSimd(qa.data(), q.weight_i8.data(), kgroups,
                                 n_panels, acc.data());
      } else {
        internal::Int8DotRowScalar(qa.data(), q.weight_i8.data(), kgroups,
                                   n_panels, acc.data());
      }
      if (!use_simd ||
          !internal::DequantEpilogueRowSimd(acc.data(), a_scale,
                                            q.scale.data(), bias, act,
                                            leaky_slope, out->Row(r), n)) {
        internal::DequantEpilogueRow(acc.data(), a_scale, q.scale.data(),
                                     bias, act, leaky_slope, out->Row(r), n);
      }
    }
  };
  const size_t tasks = CeilDiv(m, kMc);
  if (tasks >= 2 && m * k * n >= kParallelFlopCutoff) {
    util::ParallelFor(0, tasks, body);
  } else {
    for (size_t t = 0; t < tasks; ++t) body(t);
  }
}

/// fp16 forward: PackA row panels (the PR 3 packer, alpha = 1) against the
/// pre-packed half panels; the micro-kernel widens each half row and runs
/// the usual 4x8 fp32 accumulation, then the shared fp32 epilogue
/// (ApplyEpilogueRow) finishes each row. No K blocking: a full-depth half
/// panel is kNr * k * 2 bytes, L1-resident for every decoder this library
/// builds.
void Fp16ForwardDriver(const Matrix& x, const QuantizedLinear& q,
                       Activation act, float leaky_slope, Matrix* out,
                       bool use_simd) {
  const size_t m = x.rows();
  const size_t k = q.in;
  const size_t n = q.out;
  out->Resize(m, n);
  if (m == 0 || n == 0) return;
  const size_t n_panels = CeilDiv(n, kNr);
  const Epilogue epi{q.bias.empty() ? nullptr : q.bias.data(), act,
                     leaky_slope};
  const View xv{x.data(), k, 1};
  const auto body = [&](size_t t) {
    thread_local AlignedVector<float> a_pack;
    const size_t i0 = t * kMc;
    const size_t mc = std::min(kMc, m - i0);
    const size_t m_panels = CeilDiv(mc, kMr);
    if (a_pack.size() < m_panels * kMr * k) a_pack.resize(m_panels * kMr * k);
    internal::PackA(xv, i0, mc, 0, k, 1.0f, a_pack.data());
    float acc[kMr * kNr];
    float acc1[kMr * kNr];
    for (size_t mp = 0; mp < m_panels; ++mp) {
      const size_t r0 = i0 + mp * kMr;
      const size_t m_eff = std::min(kMr, mc - mp * kMr);
      const float* ap = a_pack.data() + mp * (k * kMr);
      const auto copy_panel = [&](size_t p, const float* tile) {
        const size_t j0 = p * kNr;
        const size_t n_eff = std::min(kNr, n - j0);
        for (size_t ir = 0; ir < m_eff; ++ir) {
          std::memcpy(out->Row(r0 + ir) + j0, tile + ir * kNr,
                      n_eff * sizeof(float));
        }
      };
      size_t p = 0;
      if (use_simd) {
        // Paired panels keep eight FMA chains in flight (bit-identical to
        // two single-panel calls — same per-column accumulation order).
        for (; p + 2 <= n_panels; p += 2) {
          const uint16_t* b0 = q.weight_f16.data() + p * (k * kNr);
          const uint16_t* b1 = q.weight_f16.data() + (p + 1) * (k * kNr);
          internal::Fp16MicroKernelSimdPaired(ap, b0, b1, k, acc, acc1);
          copy_panel(p, acc);
          copy_panel(p + 1, acc1);
        }
      }
      for (; p < n_panels; ++p) {
        const uint16_t* bp = q.weight_f16.data() + p * (k * kNr);
        if (use_simd) {
          internal::Fp16MicroKernelSimd(ap, bp, k, acc);
        } else {
          internal::Fp16MicroKernelScalar(ap, bp, k, acc);
        }
        copy_panel(p, acc);
      }
    }
    for (size_t ir = 0; ir < mc; ++ir) {
      internal::ApplyEpilogueRow(epi, out->Row(i0 + ir), n);
    }
  };
  const size_t tasks = CeilDiv(m, kMc);
  if (tasks >= 2 && m * k * n >= kParallelFlopCutoff) {
    util::ParallelFor(0, tasks, body);
  } else {
    for (size_t t = 0; t < tasks; ++t) body(t);
  }
}

}  // namespace

namespace internal {

void QuantizedLinearForwardImpl(const Matrix& x, const QuantizedLinear& q,
                                Activation act, float leaky_slope,
                                Matrix* out, bool use_simd) {
  DEEPAQP_CHECK(q.mode != QuantMode::kOff);
  DEEPAQP_CHECK_EQ(x.cols(), q.in);
  if (q.mode == QuantMode::kInt8) {
    Int8ForwardDriver(x, q, act, leaky_slope, out, use_simd);
  } else {
    Fp16ForwardDriver(x, q, act, leaky_slope, out, use_simd);
  }
}

}  // namespace internal

bool QuantSimdAvailable(QuantMode mode) {
  if (mode == QuantMode::kOff) return false;
  if (!internal::QuantSimdCompiled()) return false;
  // The quant SIMD TU is compiled as one unit with -mavx2 -mfma -mf16c, so
  // entering *any* of its kernels requires all three features: the compiler
  // may use every enabled ISA anywhere in the TU.
  const util::CpuFeatures& cpu = util::CpuInfo();
  return cpu.avx2 && cpu.fma && cpu.f16c;
}

void QuantizedLinearForward(const Matrix& x, const QuantizedLinear& q,
                            Activation act, float leaky_slope, Matrix* out) {
  internal::QuantizedLinearForwardImpl(x, q, act, leaky_slope, out,
                                       QuantSimdAvailable(q.mode));
  // Same chaos site as the fp32 GEMM dispatch (kernels.cc): quantized
  // inference replaces that path at sampling time, so fault injection must
  // keep reaching the decoder forward for the scrub sentinels to stay
  // covered under DEEPAQP_QUANT != off.
  if (out->size() > 0 && util::FailpointTriggered("nn/gemm")) {
    out->data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
}

// ---------------------------------------------------------------------------
// Sequential plans
// ---------------------------------------------------------------------------

namespace {

/// Mirrors InferenceForwardInto's fusion schedule: each Linear grabs a
/// directly following activation; nested Sequentials flatten. Anything else
/// is Unimplemented so the caller can fall back to fp32.
util::Status AppendPlanSteps(const Sequential& seq, QuantMode mode,
                             QuantizedSequential* plan) {
  size_t l = 0;
  while (l < seq.num_layers()) {
    const Layer* layer = seq.layer(l);
    if (const auto* linear = dynamic_cast<const Linear*>(layer)) {
      QuantizedSequential::Step step;
      size_t consumed = 1;
      if (l + 1 < seq.num_layers()) {
        const Layer* next = seq.layer(l + 1);
        if (dynamic_cast<const Relu*>(next) != nullptr) {
          step.act = Activation::kRelu;
          consumed = 2;
        } else if (const auto* lk = dynamic_cast<const LeakyRelu*>(next)) {
          step.act = Activation::kLeakyRelu;
          step.leaky_slope = lk->slope();
          consumed = 2;
        } else if (dynamic_cast<const Tanh*>(next) != nullptr) {
          step.act = Activation::kTanh;
          consumed = 2;
        } else if (dynamic_cast<const Sigmoid*>(next) != nullptr) {
          step.act = Activation::kSigmoid;
          consumed = 2;
        }
      }
      DEEPAQP_RETURN_IF_ERROR(QuantizeLinear(
          linear->weight.value, linear->bias.value, mode, &step.linear));
      plan->steps.push_back(std::move(step));
      l += consumed;
      continue;
    }
    if (const auto* nested = dynamic_cast<const Sequential*>(layer)) {
      DEEPAQP_RETURN_IF_ERROR(AppendPlanSteps(*nested, mode, plan));
      ++l;
      continue;
    }
    return util::Status::Unimplemented(
        "quantized inference supports Linear(+activation) stacks; found '" +
        layer->TypeName() + "' not fused behind a Linear");
  }
  return util::Status::OK();
}

}  // namespace

util::Status QuantizeSequential(const Sequential& seq, QuantMode mode,
                                QuantizedSequential* plan) {
  if (mode == QuantMode::kOff) {
    return util::Status::InvalidArgument(
        "QuantizeSequential: mode must be fp16 or int8");
  }
  DEEPAQP_RETURN_IF_ERROR(CheckQuantKernel(mode));
  QuantizedSequential out;
  out.mode = mode;
  DEEPAQP_RETURN_IF_ERROR(AppendPlanSteps(seq, mode, &out));
  *plan = std::move(out);
  return util::Status::OK();
}

void QuantizedInferenceForwardInto(const QuantizedSequential& plan,
                                   const Matrix& x, Matrix* out,
                                   ScratchArena* arena) {
  DEEPAQP_CHECK(plan.engaged());
  if (plan.steps.empty()) {
    out->Resize(x.rows(), x.cols());
    std::copy(x.data(), x.data() + x.size(), out->data());
    return;
  }
  Matrix tmp = arena->Acquire();
  const Matrix* src = &x;
  Matrix* cur = nullptr;
  for (const QuantizedSequential::Step& step : plan.steps) {
    Matrix* dst = (cur == out) ? &tmp : out;
    QuantizedLinearForward(*src, step.linear, step.act, step.leaky_slope, dst);
    cur = dst;
    src = dst;
  }
  if (cur == &tmp) std::swap(*out, tmp);
  arena->Release(std::move(tmp));
}

// ---------------------------------------------------------------------------
// Mode selection + self-check gate
// ---------------------------------------------------------------------------

namespace {

/// Normalized max error of `got` vs `want`, each element scaled by
/// 1 + (|A| @ |Wref|) — the same magnitude normalization bench_kernels uses,
/// so the bounds below are scale-free.
float NormalizedMaxError(const Matrix& want, const Matrix& got,
                         const Matrix& mag) {
  float worst = 0.0f;
  for (size_t i = 0; i < want.size(); ++i) {
    const float err = std::fabs(want.data()[i] - got.data()[i]) /
                      (1.0f + mag.data()[i]);
    worst = std::max(worst, err);
  }
  return worst;
}

Matrix AbsMatrix(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) out.data()[i] = std::fabs(m.data()[i]);
  return out;
}

/// Deterministic kernel self-check for one quantized mode. Ragged shapes
/// (37 x 29, batch 5 with one all-zero row) exercise panel zero-padding and
/// the dynamic-scale degenerate case. Three gates:
///  1. quantize round-trip bounds (int8: half-ulp of the channel scale),
///  2. scalar oracle vs vectorized kernel (int8 bit-exact, fp16 1e-4),
///  3. quantized vs fp32 forward within the mode's error budget.
/// Any trip returns FailedPrecondition — quantized mode refuses to engage.
util::Status RunQuantSelfCheck(QuantMode mode) {
  util::Rng rng(0xDEE9A09Full);
  Matrix w(37, 29);
  w.RandomizeGaussian(rng, 0.8f);
  Matrix bias(1, 29);
  bias.RandomizeGaussian(rng, 0.3f);
  Matrix x(5, 37);
  x.RandomizeGaussian(rng, 1.7f);
  for (size_t j = 0; j < x.cols(); ++j) x.At(4, j) = 0.0f;

  QuantizedLinear q;
  DEEPAQP_RETURN_IF_ERROR(QuantizeLinear(w, bias, mode, &q));

  if (mode == QuantMode::kInt8) {
    const size_t kgroups = CeilDiv(w.rows(), kQKg);
    for (size_t kk = 0; kk < w.rows(); ++kk) {
      for (size_t j = 0; j < w.cols(); ++j) {
        const int8_t qv = q.weight_i8[(j / kQNr * kgroups + kk / kQKg) *
                                          (kQNr * kQKg) +
                                      (j % kQNr) * kQKg + kk % kQKg];
        const float deq = static_cast<float>(qv) * q.scale[j];
        if (std::fabs(deq - w.At(kk, j)) > 0.5f * q.scale[j] + 1e-6f) {
          return util::Status::FailedPrecondition(
              "int8 quantize round-trip exceeded half-step bound");
        }
      }
    }
  }

  Matrix ref;
  internal::QuantizedLinearForwardImpl(x, q, Activation::kRelu, 0.0f, &ref,
                                       /*use_simd=*/false);
  if (!AllFinite(ref)) {
    return util::Status::FailedPrecondition(
        "quant scalar kernel produced non-finite output");
  }
  if (QuantSimdAvailable(mode)) {
    Matrix simd;
    internal::QuantizedLinearForwardImpl(x, q, Activation::kRelu, 0.0f, &simd,
                                         /*use_simd=*/true);
    if (mode == QuantMode::kInt8) {
      if (std::memcmp(ref.data(), simd.data(),
                      ref.size() * sizeof(float)) != 0) {
        return util::Status::FailedPrecondition(
            "int8 SIMD kernel diverged from the scalar oracle "
            "(must be bit-identical)");
      }
    } else {
      Matrix mag;
      FusedLinearForward(AbsMatrix(x), AbsMatrix(w), Matrix(),
                         Activation::kIdentity, 0.0f, &mag);
      if (NormalizedMaxError(ref, simd, mag) > 1e-4f) {
        return util::Status::FailedPrecondition(
            "fp16 SIMD kernel diverged from the scalar oracle");
      }
    }
  }

  Matrix f32;
  FusedLinearForward(x, w, bias, Activation::kIdentity, 0.0f, &f32);
  Matrix quant;
  internal::QuantizedLinearForwardImpl(x, q, Activation::kIdentity, 0.0f,
                                       &quant, QuantSimdAvailable(mode));
  Matrix mag;
  FusedLinearForward(AbsMatrix(x), AbsMatrix(w), Matrix(),
                     Activation::kIdentity, 0.0f, &mag);
  const float budget = mode == QuantMode::kInt8 ? 0.03f : 2e-3f;
  const float err = NormalizedMaxError(f32, quant, mag);
  if (err > budget) {
    return util::Status::FailedPrecondition(
        std::string("quantized forward error vs fp32 exceeded budget (") +
        QuantModeName(mode) + ")");
  }
  return util::Status::OK();
}

QuantMode& QuantSlot() {
  // A mode whose kernel self-check fails is rejected by the parse step, so
  // the environment degrades it to fp32, loudly.
  static QuantMode mode = util::EnvKnobOr("DEEPAQP_QUANT", QuantMode::kOff,
                                          &ParseCheckedQuantMode);
  return mode;
}

}  // namespace

util::Status CheckQuantKernel(QuantMode mode) {
  if (mode == QuantMode::kOff) return util::Status::OK();
  // Keyed on whether the vectorized kernel is usable too, so a check that
  // ran only the scalar oracle never vouches for the vector kernel.
  static std::mutex mu;
  static std::optional<util::Status> results[3][2];
  const bool simd = QuantSimdAvailable(mode);
  std::lock_guard<std::mutex> lock(mu);
  std::optional<util::Status>& result =
      results[static_cast<int>(mode)][simd ? 1 : 0];
  if (!result.has_value()) result = RunQuantSelfCheck(mode);
  return *result;
}

QuantMode ActiveQuantMode() { return QuantSlot(); }

util::Status SetQuantMode(QuantMode mode) {
  DEEPAQP_RETURN_IF_ERROR(CheckQuantKernel(mode));
  QuantSlot() = mode;
  return util::Status::OK();
}

const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kOff:
      return "off";
    case QuantMode::kFp16:
      return "fp16";
    case QuantMode::kInt8:
      return "int8";
  }
  return "unknown";
}

util::Status ParseQuantMode(std::string_view name, QuantMode* mode) {
  if (name == "off") {
    *mode = QuantMode::kOff;
  } else if (name == "fp16") {
    *mode = QuantMode::kFp16;
  } else if (name == "int8") {
    *mode = QuantMode::kInt8;
  } else {
    return util::Status::InvalidArgument(
        "quant mode '" + std::string(name) + "' not recognized (off|fp16|int8)");
  }
  return util::Status::OK();
}

util::Status ParseCheckedQuantMode(std::string_view name, QuantMode* mode) {
  QuantMode parsed;
  DEEPAQP_RETURN_IF_ERROR(ParseQuantMode(name, &parsed));
  DEEPAQP_RETURN_IF_ERROR(CheckQuantKernel(parsed));
  *mode = parsed;
  return util::Status::OK();
}

}  // namespace deepaqp::nn
