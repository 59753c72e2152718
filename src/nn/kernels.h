#ifndef DEEPAQP_NN_KERNELS_H_
#define DEEPAQP_NN_KERNELS_H_

#include <cstddef>
#include <string_view>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace deepaqp::nn {

/// Which GEMM implementation backs nn::Gemm / nn::ShardedGemmTN and the
/// fused forward kernels.
///
/// * kSimd: hand-vectorized micro-kernel (AVX2+FMA intrinsics on x86, NEON
///   on aarch64) over the same packed-panel layout as kBlocked. Selected by
///   default when the running CPU supports it (runtime detection via
///   util::CpuInfo — never compile flags, so one binary runs everywhere).
///   Differs from kBlocked only by FMA contraction inside each k step;
///   bit-identical at every `--threads` setting and within the same 1e-5
///   reference-relative contract (tests/nn_simd_backend_test.cc).
/// * kBlocked: cache-blocked, panel-packed, register-tiled kernel compiled
///   for the portable baseline ISA (auto-vectorized). Default on CPUs
///   without a supported vector extension. Results differ from
///   ReferenceGemm only by floating-point summation grouping (<= ~1e-5
///   relative on realistic shapes) and are bit-identical at every
///   `--threads` setting for a fixed shape, because the block layout is a
///   pure function of the shape and each output element keeps one fixed
///   accumulation order.
///
/// ReferenceGemm (the seed's triple loop) is not a kind: it is the oracle
/// tests and bench_kernels compare both kinds against.
enum class GemmKernelKind { kBlocked, kSimd };

/// Active kernel. Initialized once, on first use, from the DEEPAQP_KERNEL
/// environment variable through ParseRunnableGemmKernel under the one
/// environment policy (util::ApplyEnvKnob); unset picks the best backend
/// the running CPU supports (simd where available, else blocked). A value
/// the parse step rejects (unknown, or "simd" on hardware without a
/// supported vector ISA) warns and keeps that default, so requesting a
/// faster kernel never turns into SIGILL. The `--kernel` flag goes through
/// the same parse step in ApplyRuntimeFlags and is an error instead.
GemmKernelKind ActiveGemmKernel();

/// True when the SIMD backend is usable in this process: the binary carries
/// the intrinsics TU *and* the running CPU reports the ISA (util::CpuInfo,
/// maskable with DEEPAQP_CPU_DISABLE for fallback testing).
bool SimdKernelAvailable();

/// Overrides the active kernel. Fails with FailedPrecondition when `kind`
/// is kSimd and SimdKernelAvailable() is false; the active kernel is left
/// unchanged on error. Not safe while parallel compute is in flight; set it
/// up front (tests, benches, main()).
[[nodiscard]] util::Status SetGemmKernelKind(GemmKernelKind kind);

/// CHECK-failing convenience wrapper over SetGemmKernelKind for call sites
/// that have already verified availability (tests, benches).
void SetGemmKernel(GemmKernelKind kind);

/// "blocked" / "simd".
const char* GemmKernelKindName(GemmKernelKind kind);

/// Parses "blocked" / "simd" / "auto" (auto = best available).
/// Returns InvalidArgument on anything else; `*kind` is untouched on error.
[[nodiscard]] util::Status ParseGemmKernelKind(std::string_view name,
                                               GemmKernelKind* kind);

/// The parse step of DEEPAQP_KERNEL and `--kernel`: ParseGemmKernelKind,
/// then FailedPrecondition when the named kernel cannot run on this CPU.
/// `*kind` is untouched on error.
[[nodiscard]] util::Status ParseRunnableGemmKernel(std::string_view name,
                                                   GemmKernelKind* kind);

/// The seed repository's triple-loop GEMM, byte-for-byte semantics:
/// C = alpha * op(A) @ op(B) + beta * C, row-parallel over large outputs.
/// Retained as the correctness reference for the blocked and simd kernels;
/// never selected by Gemm.
void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, float alpha, float beta, Matrix* c);

/// Activations the fused forward kernel can apply in its epilogue. The
/// epilogue arithmetic is identical to the standalone layer loops
/// (std::exp / std::tanh based), so fusing never changes values, only
/// the number of passes over memory.
enum class Activation { kIdentity, kRelu, kLeakyRelu, kSigmoid, kTanh };

/// out = act(x @ W + bias): one fused pass under the blocked and simd
/// kernels (bias add and activation run on each row block while it is
/// cache-hot, no intermediate matrix is materialized). `bias` must be
/// 1 x W.cols, may be null-shaped (0 x 0) to skip the bias add. For every
/// kernel kind the fused result is bit-identical to the unfused Gemm +
/// AddRowBroadcast + ApplyActivation pipeline under that same kind. `out`
/// must not alias `x`, `w`, or `bias`.
void FusedLinearForward(const Matrix& x, const Matrix& w, const Matrix& bias,
                        Activation act, float leaky_slope, Matrix* out);

/// In-place activation over a raw buffer (exactly the arithmetic the layer
/// classes use).
void ApplyActivation(Activation act, float leaky_slope, float* data,
                     size_t n);

/// out[i] = sigmoid(x[i]). Under the blocked kernel this uses a
/// polynomial exp2-based expf (pure float arithmetic, auto-vectorizable,
/// |error| < 1e-5 absolute on the sigmoid); under kSimd the same polynomial
/// is evaluated with explicit vector intrinsics. Either way the result is a
/// pure function of the input and the kernel kind — never of the thread
/// count.
void SigmoidVec(const float* x, float* out, size_t n);

/// bits[i] = Bernoulli(sigmoid(logits[i])) as 0.0f/1.0f. The sigmoid pass
/// is vectorized (SigmoidVec); the Bernoulli draws consume exactly one
/// rng.Bernoulli(p) per element in index order, matching the scalar loop's
/// RNG stream consumption. Replaces the per-element exp+draw loop on the
/// sampling hot path.
void SigmoidBernoulliVec(const float* logits, size_t n, util::Rng& rng,
                         float* bits);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_KERNELS_H_
