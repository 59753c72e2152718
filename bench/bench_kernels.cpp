// Kernel-layer throughput tracking: the simd (AVX2/FMA or NEON) and blocked
// GEMM backends vs nn::ReferenceGemm on the VAE's real shapes (batch 256 x
// hidden 64-512), the fused bias+activation forward vs the unfused
// pipeline, and the vectorized sigmoid vs a std::exp loop. Emits one row per
// backend per shape so BENCH_kernels.json records the per-backend perf
// trajectory; the `*_naive` and `sigmoid_scalar` rows time the reference
// code directly. Doubles as the CI correctness gate: every measured GEMM
// shape is first checked — for every backend available on this machine —
// against nn::ReferenceGemm and the binary exits nonzero if the relative
// error (normalized by the accumulation magnitude |A| @ |B|) exceeds 1e-5.
//
//   ./bench_kernels [--json] [--quick] [--threads N]
//
// --json writes BENCH_kernels.json (see bench_common.h); --quick shrinks
// the shape sweep and the per-measurement time budget for CI. On hardware
// without the simd ISA the simd rows are skipped (with a note) and the
// remaining gates still run.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_common.h"

#include "nn/arena.h"
#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "nn/kernels_quant_internal.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/cpu_features.h"
#include "util/rng.h"

using namespace deepaqp;  // NOLINT: bench brevity

namespace {

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

nn::Matrix Abs(const nn::Matrix& m) {
  nn::Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    out.data()[i] = std::abs(m.data()[i]);
  }
  return out;
}

/// Max elementwise |want - got| normalized by 1 + (|A| @ |B|)_ij — the
/// forward-error scale a k-sum reordering (or FMA contraction) perturbs
/// (same metric as tests/nn_gemm_kernel_test.cc).
double GemmRelError(const nn::Matrix& a, bool ta, const nn::Matrix& b,
                    bool tb, const nn::Matrix& want, const nn::Matrix& got) {
  nn::Matrix mag;
  nn::ReferenceGemm(Abs(a), ta, Abs(b), tb, 1.0f, 0.0f, &mag);
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(want.data()[i]) -
                              static_cast<double>(got.data()[i])) /
                         (1.0 + mag.data()[i]));
  }
  return worst;
}

constexpr double kTolerance = 1e-5;

/// Backends to measure and gate on this machine. ReferenceGemm is timed
/// separately as the baseline every speedup is stated against.
std::vector<nn::GemmKernelKind> MeasuredBackends() {
  std::vector<nn::GemmKernelKind> kinds = {nn::GemmKernelKind::kBlocked};
  if (nn::SimdKernelAvailable()) {
    kinds.push_back(nn::GemmKernelKind::kSimd);
  } else {
    std::printf("simd backend unavailable (cpu: %s) — skipping simd rows\n",
                util::CpuFeaturesToString(util::CpuInfo()).c_str());
  }
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const bool quick = flags.GetBool("quick", false);
  const double budget = quick ? 0.05 : 0.3;
  bench::BenchReporter reporter(flags, "kernels");
  util::Rng rng(424242);

  const std::vector<nn::GemmKernelKind> backends = MeasuredBackends();
  double worst_err = 0.0;

  // --- GEMM: every backend vs reference on batch 256 x hidden shapes, plus
  // the four transpose combos on one odd shape for the correctness gate.
  const std::vector<size_t> hiddens =
      quick ? std::vector<size_t>{64, 256}
            : std::vector<size_t>{64, 128, 256, 512};
  // The throughput target is single-thread; pin the pool so the record is
  // comparable across machines, then restore.
  const int prev_threads = util::GlobalThreads();
  util::SetGlobalThreads(1);
  for (size_t hidden : hiddens) {
    const size_t m = 256;
    const size_t k = hidden;
    const size_t n = hidden;
    const nn::Matrix a = RandomMatrix(m, k, rng);
    const nn::Matrix b = RandomMatrix(k, n, rng);
    nn::Matrix ref;
    nn::ReferenceGemm(a, false, b, false, 1.0f, 0.0f, &ref);

    const double flops = 2.0 * static_cast<double>(m * k * n);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "m=%zu k=%zu n=%zu", m, k, n);

    nn::Matrix c;
    const double ns_naive = bench::MeasureNsPerOp(
        [&] { nn::ReferenceGemm(a, false, b, false, 1.0f, 0.0f, &c); },
        budget);
    reporter.Add({"gemm_naive", shape, ns_naive, flops / ns_naive, 1});
    for (nn::GemmKernelKind kind : backends) {
      nn::SetGemmKernel(kind);
      nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
      worst_err =
          std::max(worst_err, GemmRelError(a, false, b, false, ref, c));
      const double ns = bench::MeasureNsPerOp(
          [&] { nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c); }, budget);
      const std::string name =
          std::string("gemm_") + nn::GemmKernelKindName(kind);
      reporter.Add({name, shape, ns, flops / ns, 1});
      std::printf("  -> %s speedup %.2fx at hidden=%zu (%.2f GFLOP/s)\n",
                  nn::GemmKernelKindName(kind), ns_naive / ns, hidden,
                  flops / ns);
    }
  }

  // Correctness gate over all four transpose combinations (odd shape that
  // straddles every panel boundary), for every backend.
  {
    const size_t m = 129, k = 67, n = 33;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const nn::Matrix a =
            ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
        const nn::Matrix b =
            tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
        nn::Matrix ref;
        nn::ReferenceGemm(a, ta, b, tb, 1.0f, 0.0f, &ref);
        for (nn::GemmKernelKind kind : backends) {
          nn::SetGemmKernel(kind);
          nn::Matrix got;
          nn::Gemm(a, ta, b, tb, 1.0f, 0.0f, &got);
          worst_err =
              std::max(worst_err, GemmRelError(a, ta, b, tb, ref, got));
        }
      }
    }
  }

  // --- Fused bias+activation forward vs the unfused pipeline, per backend.
  for (nn::GemmKernelKind kind : backends) {
    const size_t batch = 256;
    const size_t hidden = quick ? 64 : 256;
    const nn::Matrix x = RandomMatrix(batch, hidden, rng);
    const nn::Matrix w = RandomMatrix(hidden, hidden, rng);
    const nn::Matrix bias = RandomMatrix(1, hidden, rng);
    char shape[80];
    std::snprintf(shape, sizeof(shape), "m=%zu k=%zu n=%zu relu %s", batch,
                  hidden, hidden, nn::GemmKernelKindName(kind));
    nn::SetGemmKernel(kind);
    const double flops = 2.0 * static_cast<double>(batch * hidden * hidden);
    nn::Matrix out;
    const double ns_unfused = bench::MeasureNsPerOp(
        [&] {
          nn::Gemm(x, false, w, false, 1.0f, 0.0f, &out);
          nn::AddRowBroadcast(bias, &out);
          nn::ApplyActivation(nn::Activation::kRelu, 0.0f, out.data(),
                              out.size());
        },
        budget);
    reporter.Add(
        {"linear_relu_unfused", shape, ns_unfused, flops / ns_unfused, 1});
    const double ns_fused = bench::MeasureNsPerOp(
        [&] {
          nn::FusedLinearForward(x, w, bias, nn::Activation::kRelu, 0.0f,
                                 &out);
        },
        budget);
    reporter.Add({"linear_relu_fused", shape, ns_fused, flops / ns_fused,
                  1});
  }

  // --- Quantized decoder forward (int8 / fp16) vs the fp32 fused path on
  // the same shape. Doubles as a correctness gate: int8 must be
  // bit-identical between its scalar oracle and the SIMD kernel, and both
  // quantized modes must stay within their documented error envelope of the
  // fp32 output. The speedup line against fp32 on the best fp32 backend is
  // the acceptance evidence for the quantized path.
  bool quant_gate_failed = false;
  {
    const size_t batch = 256;
    const size_t hidden = quick ? 64 : 256;
    const nn::Matrix x = RandomMatrix(batch, hidden, rng);
    const nn::Matrix w = RandomMatrix(hidden, hidden, rng);
    const nn::Matrix bias = RandomMatrix(1, hidden, rng);
    const double flops = 2.0 * static_cast<double>(batch * hidden * hidden);
    nn::SetGemmKernel(backends.back());  // best fp32 backend on this machine
    nn::Matrix ref;
    nn::FusedLinearForward(x, w, bias, nn::Activation::kRelu, 0.0f, &ref);
    nn::Matrix out;
    const double ns_fp32 = bench::MeasureNsPerOp(
        [&] {
          nn::FusedLinearForward(x, w, bias, nn::Activation::kRelu, 0.0f,
                                 &out);
        },
        budget);
    for (nn::QuantMode mode : {nn::QuantMode::kFp16, nn::QuantMode::kInt8}) {
      nn::QuantizedLinear q;
      if (const util::Status st = nn::QuantizeLinear(w, bias, mode, &q);
          !st.ok()) {
        std::fprintf(stderr, "FAIL: QuantizeLinear(%s): %s\n",
                     nn::QuantModeName(mode), st.ToString().c_str());
        quant_gate_failed = true;
        continue;
      }
      nn::Matrix got;
      nn::QuantizedLinearForward(x, q, nn::Activation::kRelu, 0.0f, &got);
      // Error vs fp32, normalized like the GEMM gate. int8 carries the
      // 8-bit weight+activation rounding; fp16 only the weight rounding.
      const double err = GemmRelError(x, false, w, false, ref, got);
      const double tol = mode == nn::QuantMode::kInt8 ? 0.03 : 2e-3;
      if (err > tol) {
        std::fprintf(stderr, "FAIL: quant %s deviates from fp32: %.3g > %g\n",
                     nn::QuantModeName(mode), err, tol);
        quant_gate_failed = true;
      }
      if (mode == nn::QuantMode::kInt8 &&
          nn::QuantSimdAvailable(nn::QuantMode::kInt8)) {
        nn::Matrix scalar_out;
        nn::internal::QuantizedLinearForwardImpl(
            x, q, nn::Activation::kRelu, 0.0f, &scalar_out,
            /*use_simd=*/false);
        if (scalar_out.rows() != got.rows() ||
            scalar_out.cols() != got.cols() ||
            std::memcmp(scalar_out.data(), got.data(),
                        got.size() * sizeof(float)) != 0) {
          std::fprintf(stderr,
                       "FAIL: int8 scalar oracle and SIMD kernel disagree\n");
          quant_gate_failed = true;
        }
      }
      const double ns = bench::MeasureNsPerOp(
          [&] {
            nn::QuantizedLinearForward(x, q, nn::Activation::kRelu, 0.0f,
                                       &got);
          },
          budget);
      char shape[80];
      std::snprintf(shape, sizeof(shape), "m=%zu k=%zu n=%zu relu %s", batch,
                    hidden, hidden,
                    nn::QuantSimdAvailable(mode) ? "simd" : "scalar");
      const std::string name =
          std::string("quant_linear_") + nn::QuantModeName(mode);
      reporter.Add({name, shape, ns, flops / ns, 1});
      std::printf("  -> quant %s speedup over fp32 %s: %.2fx (err %.3g)\n",
                  nn::QuantModeName(mode),
                  nn::GemmKernelKindName(backends.back()), ns_fp32 / ns, err);
    }
  }

  // --- Vectorized sigmoid: scalar std::exp loop vs each fast backend.
  {
    const size_t count = 1 << 16;
    std::vector<float> in(count);
    std::vector<float> outv(count);
    for (size_t i = 0; i < count; ++i) {
      in[i] = static_cast<float>(rng.NextGaussian() * 4.0);
    }
    char shape[32];
    std::snprintf(shape, sizeof(shape), "n=%zu", count);
    const double ns_scalar = bench::MeasureNsPerOp(
        [&] {
          for (size_t i = 0; i < count; ++i) {
            outv[i] = 1.0f / (1.0f + std::exp(-in[i]));
          }
        },
        budget);
    reporter.Add({"sigmoid_scalar", shape,
                  ns_scalar / static_cast<double>(count), 0.0, 1});
    for (nn::GemmKernelKind kind : backends) {
      nn::SetGemmKernel(kind);
      const double ns = bench::MeasureNsPerOp(
          [&] { nn::SigmoidVec(in.data(), outv.data(), count); }, budget);
      const std::string name =
          std::string("sigmoid_") + nn::GemmKernelKindName(kind);
      reporter.Add({name, shape, ns / static_cast<double>(count), 0.0, 1});
    }
  }

  // --- ShardedGemmTN (the weight-gradient product) per backend.
  {
    const size_t batch = quick ? 1024 : 4096;
    const size_t in_dim = 128;
    const size_t out_dim = 128;
    const nn::Matrix a = RandomMatrix(batch, in_dim, rng);
    const nn::Matrix b = RandomMatrix(batch, out_dim, rng);
    const double flops = 2.0 * static_cast<double>(batch * in_dim * out_dim);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "batch=%zu in=%zu out=%zu", batch,
                  in_dim, out_dim);
    nn::Matrix c(in_dim, out_dim);
    const double ns_naive = bench::MeasureNsPerOp(
        [&] { nn::ReferenceGemm(a, true, b, false, 1.0f, 0.0f, &c); },
        budget);
    reporter.Add({"sharded_tn_naive", shape, ns_naive, flops / ns_naive, 1});
    for (nn::GemmKernelKind kind : backends) {
      nn::SetGemmKernel(kind);
      const double ns = bench::MeasureNsPerOp(
          [&] {
            c.Zero();
            nn::ShardedGemmTN(a, b, &c);
          },
          budget);
      const std::string name =
          std::string("sharded_tn_") + nn::GemmKernelKindName(kind);
      reporter.Add({name, shape, ns, flops / ns, 1});
    }
  }
  util::SetGlobalThreads(prev_threads);

  reporter.Finish();

  std::printf("fast-kernel-vs-reference worst relative error: %.3g (tol %g)\n",
              worst_err, kTolerance);
  if (worst_err > kTolerance) {
    std::fprintf(stderr,
                 "FAIL: a fast kernel deviates from the reference beyond "
                 "tolerance\n");
    return 1;
  }
  if (quant_gate_failed) return 1;
  return 0;
}
