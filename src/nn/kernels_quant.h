#ifndef DEEPAQP_NN_KERNELS_QUANT_H_
#define DEEPAQP_NN_KERNELS_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace deepaqp::nn {

class ScratchArena;
class Sequential;

/// Inference-only weight quantization mode for the decoder hot path.
///
/// * kOff: the canonical fp32 path — bit-identical to a binary without this
///   subsystem. The fp32 weights always stay canonical: snapshots serialize
///   fp32, training runs fp32, and quantized panels are derived views built
///   at Prepare/load time.
/// * kFp16: weights stored once as IEEE half floats in packed kNr-column
///   panels; the kernel widens each half back to fp32 (exact) and runs the
///   usual fp32 FMA micro-kernel, so the only error is the one-time weight
///   rounding (<= 2^-11 relative per weight).
/// * kInt8: per-output-channel symmetric int8 weights (scale_j =
///   max_k |W[k,j]| / 127) with per-row dynamic activation quantization
///   (a_scale_r = max_k |x[r,k]| / 127). Accumulation is exact int32
///   arithmetic, so the scalar oracle and the AVX2 maddubs kernel produce
///   bit-identical outputs, and the only float work is the fused
///   dequantize+bias+activation epilogue.
enum class QuantMode { kOff, kFp16, kInt8 };

/// The mode Train() and Deserialize() prepare new models for (see
/// vae::VaeAqpModel::PrepareQuantized); whether a model's generation runs
/// quantized is decided by the plan it carries, never by this value.
/// Initialized once, on first use, from the DEEPAQP_QUANT environment
/// variable ("off", "fp16", or "int8"; unset means off) through
/// ParseCheckedQuantMode under the one environment policy
/// (util::ApplyEnvKnob): an unrecognized value, or a mode whose kernel
/// self-check fails, warns and keeps off. The `--quant` flag goes through
/// the same parse step in ApplyRuntimeFlags and is an error instead.
QuantMode ActiveQuantMode();

/// True when the vectorized kernel for `mode` is usable in this process:
/// the binary carries the quant intrinsics TU *and* the running CPU reports
/// AVX2+FMA+F16C (one TU carries both kernels, so both modes share the gate
/// — util::CpuInfo, maskable with DEEPAQP_CPU_DISABLE). When false the
/// scalar reference path runs instead; both quantized modes work on every
/// CPU.
bool QuantSimdAvailable(QuantMode mode);

/// Sets the mode new models are prepared for, after CheckQuantKernel(mode);
/// on a failed check it returns FailedPrecondition and leaves the mode
/// unchanged. Not safe while models are being trained or loaded; set it up
/// front (tests, main()).
[[nodiscard]] util::Status SetQuantMode(QuantMode mode);

/// The kernel self-check for `mode` (OK for kOff): scalar oracle vs the
/// vectorized kernel on fixed deterministic inputs, plus quantize
/// round-trip and fp32 error bounds. Any trip is FailedPrecondition, and
/// no quantized plan is built for that mode: quantized inference refuses
/// to engage on a machine where its kernels misbehave. Runs once per mode
/// and per QuantSimdAvailable(mode) value in a process; later calls return
/// the cached result. Thread-safe.
[[nodiscard]] util::Status CheckQuantKernel(QuantMode mode);

/// "off" / "fp16" / "int8".
const char* QuantModeName(QuantMode mode);

/// Parses "off" / "fp16" / "int8". Returns InvalidArgument on anything
/// else; `*mode` is untouched on error.
[[nodiscard]] util::Status ParseQuantMode(std::string_view name,
                                          QuantMode* mode);

/// The parse step of DEEPAQP_QUANT and `--quant`: ParseQuantMode, then
/// CheckQuantKernel. `*mode` is untouched on error.
[[nodiscard]] util::Status ParseCheckedQuantMode(std::string_view name,
                                                 QuantMode* mode);

/// IEEE 754 binary16 conversions (software, round-to-nearest-even on
/// narrowing; widening is exact). Exposed for tests; the fp16 kernels use
/// hardware F16C when available, which implements the same rounding.
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

/// One Linear layer's weights re-packed for quantized inference. Built at
/// Prepare/load time from the canonical fp32 parameters; never serialized.
struct QuantizedLinear {
  size_t in = 0;   ///< K: input features (weight rows)
  size_t out = 0;  ///< N: output features (weight cols)
  QuantMode mode = QuantMode::kOff;

  /// kInt8: weights in 8-column panels of 4-k-deep byte groups,
  /// weight_i8[(p * ceil(in/4) + g) * 32 + jr * 4 + kk] =
  ///   quant(W[4g + kk, 8p + jr]), zero-padded in both jr and kk — exactly
  /// the operand order _mm256_maddubs_epi16 + _mm256_madd_epi16 reduce.
  AlignedVector<int8_t> weight_i8;
  /// kInt8: per-output-channel scale, scale[j] = max_k |W[k, j]| / 127.
  std::vector<float> scale;

  /// kFp16: halves in kNr-column panels, weight_f16[p * (in * kNr) +
  /// kk * kNr + jr] = half(W[kk, 8p + jr]) — the PR 3 PackB layout.
  AlignedVector<uint16_t> weight_f16;

  /// Dense copy of the fp32 bias (empty when the layer has none).
  std::vector<float> bias;
};

/// Quantizes one Linear (weight `w` is in x out, `bias` is 1 x out or
/// null-shaped). InvalidArgument for kOff or non-finite weights.
[[nodiscard]] util::Status QuantizeLinear(const Matrix& w, const Matrix& bias,
                                          QuantMode mode, QuantizedLinear* q);

/// out = act(dequant(x @ Wq) + bias): quantized replacement for
/// FusedLinearForward. The dequantize+bias+activation epilogue runs fused
/// on each finished row while its accumulators are cache-hot. Dispatches to
/// the vectorized kernel when QuantSimdAvailable(q.mode); the scalar path
/// is bit-identical for kInt8 (exact integer accumulation + one shared
/// epilogue definition) and within the usual 1e-5 FMA-contraction contract
/// for kFp16. Deterministic at every thread count (row blocks are a pure
/// function of the shape; each output element keeps one fixed accumulation
/// order). `out` must not alias `x`.
void QuantizedLinearForward(const Matrix& x, const QuantizedLinear& q,
                            Activation act, float leaky_slope, Matrix* out);

/// A quantized inference plan for a Sequential: the same Linear+activation
/// fusion schedule InferenceForwardInto derives dynamically, with every
/// Linear's weights re-packed. Built once at Prepare time.
struct QuantizedSequential {
  struct Step {
    QuantizedLinear linear;
    Activation act = Activation::kIdentity;  ///< fused follow-up activation
    float leaky_slope = 0.0f;
  };
  QuantMode mode = QuantMode::kOff;
  std::vector<Step> steps;

  bool engaged() const { return mode != QuantMode::kOff; }
};

/// Builds the plan for `seq` under `mode`. Supports stacks of Linear layers
/// with optional directly-following activations (including nested
/// Sequentials, which are flattened) — i.e. every decoder this library
/// builds. Returns Unimplemented for any other layer pattern so callers can
/// fall back to the fp32 path, InvalidArgument for kOff, and the
/// FailedPrecondition of CheckQuantKernel(mode) when the self-check fails.
[[nodiscard]] util::Status QuantizeSequential(const Sequential& seq,
                                              QuantMode mode,
                                              QuantizedSequential* plan);

/// Allocation-free forward through a quantized plan: the drop-in
/// counterpart of InferenceForwardInto. `out` must not alias `x`; `arena`
/// must be owned by the calling thread.
void QuantizedInferenceForwardInto(const QuantizedSequential& plan,
                                   const Matrix& x, Matrix* out,
                                   ScratchArena* arena);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_KERNELS_QUANT_H_
