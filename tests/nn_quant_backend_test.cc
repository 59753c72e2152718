// The quantized decoder backend's contract (kernels_quant.{h,cc}):
//  * fp16 conversion round-trip bounds (exact widening, RNE narrowing
//    within 2^-11 relative for normal values, inf/NaN preserved);
//  * int8 per-channel quantization round-trip within half a quantization
//    step of the fp32 weights;
//  * int8 / fp16 forward vs the fp32 fused path on a shape sweep that
//    straddles every panel boundary (including K not divisible by the
//    4-byte k-group and N not divisible by the 8-column panel);
//  * int8 bit-identity between the scalar oracle and the SIMD kernel, and
//    bit-identity of both modes across thread counts (same determinism
//    contract as the fp32 kernels);
//  * masked-CPU fallback (DEEPAQP_CPU_DISABLE semantics via
//    SetCpuFeaturesForTest): int8 results are bit-identical with and
//    without the vector ISA, fp16 stays within the FMA-contraction
//    envelope;
//  * mode selection API: ParseQuantMode / SetQuantMode / ActiveQuantMode
//    round-trips and rejects garbage;
//  * the QuantizeSequential plan reproduces InferenceForwardInto's fusion
//    schedule (plan forward == manually chained per-step forwards) and
//    falls back with Unimplemented on unsupported layer patterns;
//  * a seeded end-to-end drift gate: generation under fp16/int8 moves
//    fig2-style COUNT/SUM/AVG estimates by at most a small relative bound
//    vs fp32, and a model prepared with kOff is bit-identical to the plain
//    fp32 run;
//  * with the vector ISA masked, PrepareQuantized checks and serves the
//    scalar oracle, bit-identical to the vector kernel for int8.

#include "nn/kernels_quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "aqp/executor.h"
#include "aqp/query.h"
#include "data/generators.h"
#include "nn/arena.h"
#include "nn/kernels.h"
#include "nn/kernels_quant_internal.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

namespace deepaqp::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

Matrix Abs(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) out.data()[i] = std::abs(m.data()[i]);
  return out;
}

/// Same forward-error-normalized metric as the fp32 kernel tests: max
/// |want - got| / (1 + (|A| @ |W|)_ij) — the natural scale for errors a
/// quantized accumulation may introduce.
double NormalizedError(const Matrix& x, const Matrix& w, const Matrix& want,
                       const Matrix& got) {
  EXPECT_EQ(want.rows(), got.rows());
  EXPECT_EQ(want.cols(), got.cols());
  Matrix mag;
  ReferenceGemm(Abs(x), false, Abs(w), false, 1.0f, 0.0f, &mag);
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(want.data()[i]) -
                              static_cast<double>(got.data()[i])) /
                         (1.0 + mag.data()[i]));
  }
  return worst;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Documented per-mode error envelope vs fp32, in the normalized metric:
/// int8 carries 8-bit weight + activation rounding (~2/127 worst case),
/// fp16 only the 2^-11 weight rounding.
double ModeTolerance(QuantMode mode) {
  return mode == QuantMode::kInt8 ? 0.03 : 2e-3;
}

TEST(QuantConvertTest, Fp16RoundTripBounds) {
  // Exactly representable values survive a full round-trip bit-for-bit.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 1024.0f, 0.09375f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
  // Normal-range values: RNE narrowing is within 2^-11 relative.
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.NextGaussian() * 8.0);
    const float back = HalfToFloat(FloatToHalf(v));
    EXPECT_LE(std::abs(back - v), std::abs(v) * (1.0f / 2048.0f) + 1e-7f)
        << v;
  }
  // Specials.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(HalfToFloat(FloatToHalf(inf)), inf);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-inf)), -inf);
  EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(
      std::numeric_limits<float>::quiet_NaN()))));
  // Values beyond half range saturate to infinity, not garbage.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e20f)), inf);
  // Subnormal halves still round-trip monotonically (exact widening).
  const float tiny = 6e-8f;  // below the smallest normal half
  const float back = HalfToFloat(FloatToHalf(tiny));
  EXPECT_GE(back, 0.0f);
  EXPECT_LE(std::abs(back - tiny), 6e-8f);
}

TEST(QuantizeLinearTest, Int8RoundTripWithinHalfStep) {
  util::Rng rng(21);
  const Matrix w = RandomMatrix(37, 29, rng);
  const Matrix bias = RandomMatrix(1, 29, rng);
  QuantizedLinear q;
  ASSERT_TRUE(QuantizeLinear(w, bias, QuantMode::kInt8, &q).ok());
  ASSERT_EQ(q.scale.size(), w.cols());
  for (size_t j = 0; j < w.cols(); ++j) {
    float amax = 0.0f;
    for (size_t k = 0; k < w.rows(); ++k) {
      amax = std::max(amax, std::abs(w.At(k, j)));
    }
    EXPECT_NEAR(q.scale[j], amax / 127.0f, 1e-9f);
    // Recover each quantized weight from the packed panel layout and check
    // the round-trip is within half a quantization step.
    const size_t kgroups = (w.rows() + internal::kQKg - 1) / internal::kQKg;
    for (size_t k = 0; k < w.rows(); ++k) {
      const size_t p = j / internal::kQNr, jr = j % internal::kQNr;
      const size_t g = k / internal::kQKg, kk = k % internal::kQKg;
      const int8_t qv =
          q.weight_i8[(p * kgroups + g) * (internal::kQNr * internal::kQKg) +
                      jr * internal::kQKg + kk];
      EXPECT_LE(std::abs(static_cast<float>(qv) * q.scale[j] - w.At(k, j)),
                0.5f * q.scale[j] + 1e-6f)
          << "k=" << k << " j=" << j;
    }
  }
  // Non-finite weights are refused, not quantized into garbage.
  Matrix bad = w;
  bad.data()[5] = std::numeric_limits<float>::quiet_NaN();
  QuantizedLinear qbad;
  EXPECT_FALSE(QuantizeLinear(bad, bias, QuantMode::kInt8, &qbad).ok());
}

TEST(QuantForwardTest, ShapeSweepMatchesFp32) {
  util::Rng rng(31);
  for (QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    for (size_t m : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{33}}) {
      for (size_t k :
           {size_t{1}, size_t{2}, size_t{5}, size_t{31}, size_t{32},
            size_t{257}}) {
        for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                         size_t{33}}) {
          const Matrix x = RandomMatrix(m, k, rng);
          const Matrix w = RandomMatrix(k, n, rng);
          const Matrix bias = RandomMatrix(1, n, rng);
          Matrix want;
          FusedLinearForward(x, w, bias, Activation::kRelu, 0.0f, &want);
          QuantizedLinear q;
          ASSERT_TRUE(QuantizeLinear(w, bias, mode, &q).ok());
          Matrix got;
          QuantizedLinearForward(x, q, Activation::kRelu, 0.0f, &got);
          EXPECT_LE(NormalizedError(x, w, want, got), ModeTolerance(mode))
              << QuantModeName(mode) << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST(QuantForwardTest, Int8ScalarOracleBitIdenticalToSimd) {
  if (!QuantSimdAvailable(QuantMode::kInt8)) {
    GTEST_SKIP() << "quant simd unavailable on this machine (cpu: "
                 << util::CpuFeaturesToString(util::CpuInfo()) << ")";
  }
  util::Rng rng(41);
  for (size_t m : {size_t{1}, size_t{5}, size_t{33}}) {
    for (size_t k : {size_t{1}, size_t{31}, size_t{257}}) {
      for (size_t n : {size_t{1}, size_t{9}, size_t{33}}) {
        const Matrix x = RandomMatrix(m, k, rng);
        const Matrix w = RandomMatrix(k, n, rng);
        const Matrix bias = RandomMatrix(1, n, rng);
        QuantizedLinear q;
        ASSERT_TRUE(QuantizeLinear(w, bias, QuantMode::kInt8, &q).ok());
        Matrix scalar_out, simd_out;
        internal::QuantizedLinearForwardImpl(x, q, Activation::kRelu, 0.0f,
                                             &scalar_out,
                                             /*use_simd=*/false);
        internal::QuantizedLinearForwardImpl(x, q, Activation::kRelu, 0.0f,
                                             &simd_out, /*use_simd=*/true);
        EXPECT_TRUE(BitIdentical(scalar_out, simd_out))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(QuantForwardTest, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(51);
  // Big enough to clear the parallel cutoff with several row blocks.
  const Matrix x = RandomMatrix(200, 96, rng);
  const Matrix w = RandomMatrix(96, 80, rng);
  const Matrix bias = RandomMatrix(1, 80, rng);
  const int prev = util::GlobalThreads();
  for (QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    QuantizedLinear q;
    ASSERT_TRUE(QuantizeLinear(w, bias, mode, &q).ok());
    util::SetGlobalThreads(1);
    Matrix serial;
    QuantizedLinearForward(x, q, Activation::kRelu, 0.0f, &serial);
    for (int threads : {4, 8}) {
      util::SetGlobalThreads(threads);
      Matrix parallel;
      QuantizedLinearForward(x, q, Activation::kRelu, 0.0f, &parallel);
      EXPECT_TRUE(BitIdentical(serial, parallel))
          << QuantModeName(mode) << " threads=" << threads;
    }
  }
  util::SetGlobalThreads(prev);
}

TEST(QuantForwardTest, MaskedCpuFallsBackToScalarPath) {
  const bool had_simd = QuantSimdAvailable(QuantMode::kInt8);
  util::Rng rng(61);
  const Matrix x = RandomMatrix(19, 45, rng);
  const Matrix w = RandomMatrix(45, 23, rng);
  const Matrix bias = RandomMatrix(1, 23, rng);
  QuantizedLinear q8, q16;
  ASSERT_TRUE(QuantizeLinear(w, bias, QuantMode::kInt8, &q8).ok());
  ASSERT_TRUE(QuantizeLinear(w, bias, QuantMode::kFp16, &q16).ok());
  Matrix full8, full16;
  QuantizedLinearForward(x, q8, Activation::kRelu, 0.0f, &full8);
  QuantizedLinearForward(x, q16, Activation::kRelu, 0.0f, &full16);

  // The DEEPAQP_CPU_DISABLE mechanism: present the kernels with a CPU that
  // has no vector ISA and re-run on the same packed weights.
  util::CpuFeatures none;
  util::SetCpuFeaturesForTest(&none);
  EXPECT_FALSE(QuantSimdAvailable(QuantMode::kInt8));
  EXPECT_FALSE(QuantSimdAvailable(QuantMode::kFp16));
  Matrix masked8, masked16;
  QuantizedLinearForward(x, q8, Activation::kRelu, 0.0f, &masked8);
  QuantizedLinearForward(x, q16, Activation::kRelu, 0.0f, &masked16);
  util::SetCpuFeaturesForTest(nullptr);

  // int8 accumulates exactly in integers: masking the ISA must not change
  // a single bit. fp16 swaps FMA contraction for separate mul/add, so it
  // only promises the usual contraction envelope.
  EXPECT_TRUE(BitIdentical(full8, masked8));
  EXPECT_LE(NormalizedError(x, w, full16, masked16), 1e-4);
  EXPECT_EQ(QuantSimdAvailable(QuantMode::kInt8), had_simd);
}

TEST(QuantModeTest, ParseAndSetRoundTrip) {
  QuantMode mode = QuantMode::kOff;
  ASSERT_TRUE(ParseQuantMode("fp16", &mode).ok());
  EXPECT_EQ(mode, QuantMode::kFp16);
  ASSERT_TRUE(ParseQuantMode("int8", &mode).ok());
  EXPECT_EQ(mode, QuantMode::kInt8);
  ASSERT_TRUE(ParseQuantMode("off", &mode).ok());
  EXPECT_EQ(mode, QuantMode::kOff);
  EXPECT_FALSE(ParseQuantMode("int4", &mode).ok());
  EXPECT_FALSE(ParseQuantMode("", &mode).ok());
  EXPECT_EQ(mode, QuantMode::kOff);  // untouched on error

  EXPECT_STREQ(QuantModeName(QuantMode::kOff), "off");
  EXPECT_STREQ(QuantModeName(QuantMode::kFp16), "fp16");
  EXPECT_STREQ(QuantModeName(QuantMode::kInt8), "int8");

  const QuantMode prev = ActiveQuantMode();
  // The self-check runs the scalar oracle on every machine, so switching
  // into a quantized mode must succeed here (SIMD or not).
  ASSERT_TRUE(SetQuantMode(QuantMode::kInt8).ok());
  EXPECT_EQ(ActiveQuantMode(), QuantMode::kInt8);
  ASSERT_TRUE(SetQuantMode(QuantMode::kOff).ok());
  EXPECT_EQ(ActiveQuantMode(), QuantMode::kOff);
  ASSERT_TRUE(SetQuantMode(prev).ok());
}

TEST(QuantPlanTest, PlanForwardMatchesChainedSteps) {
  util::Rng rng(71);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(13, 24, rng));
  seq.Add(std::make_unique<Relu>());
  // Nested Sequential: the plan builder must flatten it like
  // InferenceForwardInto does.
  auto inner = std::make_unique<Sequential>();
  inner->Add(std::make_unique<Linear>(24, 16, rng));
  inner->Add(std::make_unique<Tanh>());
  seq.Add(std::move(inner));
  seq.Add(std::make_unique<Linear>(16, 7, rng));

  const Matrix x = RandomMatrix(9, 13, rng);
  for (QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    QuantizedSequential plan;
    ASSERT_TRUE(QuantizeSequential(seq, mode, &plan).ok());
    ASSERT_EQ(plan.steps.size(), 3u);  // three fused Linear(+act) steps
    EXPECT_EQ(plan.steps[0].act, Activation::kRelu);
    EXPECT_EQ(plan.steps[1].act, Activation::kTanh);
    EXPECT_EQ(plan.steps[2].act, Activation::kIdentity);

    Matrix plan_out;
    ScratchArena arena;
    QuantizedInferenceForwardInto(plan, x, &plan_out, &arena);

    Matrix cur = x;
    for (const QuantizedSequential::Step& step : plan.steps) {
      Matrix next;
      QuantizedLinearForward(cur, step.linear, step.act, step.leaky_slope,
                             &next);
      cur = std::move(next);
    }
    EXPECT_TRUE(BitIdentical(plan_out, cur)) << QuantModeName(mode);

    // Sanity: the plan's numbers track the fp32 network on the same input.
    Matrix fp32_out;
    InferenceForwardInto(seq, x, &fp32_out, &arena);
    ASSERT_EQ(fp32_out.rows(), plan_out.rows());
    ASSERT_EQ(fp32_out.cols(), plan_out.cols());
    double worst = 0.0;
    for (size_t i = 0; i < fp32_out.size(); ++i) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(fp32_out.data()[i]) -
                                static_cast<double>(plan_out.data()[i])));
    }
    EXPECT_LE(worst, mode == QuantMode::kInt8 ? 0.5 : 0.02)
        << QuantModeName(mode);
  }

  // Unsupported pattern (activation with no preceding Linear) falls back
  // with Unimplemented so callers keep the fp32 path.
  Sequential odd;
  odd.Add(std::make_unique<Relu>());
  odd.Add(std::make_unique<Linear>(4, 4, rng));
  QuantizedSequential plan;
  EXPECT_EQ(QuantizeSequential(odd, QuantMode::kInt8, &plan).code(),
            util::StatusCode::kUnimplemented);
}

// --- End-to-end drift gate -------------------------------------------------

struct Estimates {
  double count = 0.0;
  double sum = 0.0;
  double avg = 0.0;
};

/// Fig. 2-style scalar aggregates over a generated sample (census attr 8 =
/// age, 13 = hours_per_week; same queries as nn_simd_backend_test.cc).
Estimates RunAggregates(const relation::Table& sample) {
  aqp::Predicate working_age;
  working_age.conditions.push_back(
      {/*attr=*/8, aqp::CmpOp::kGe, /*value=*/25.0});
  working_age.conditions.push_back(
      {/*attr=*/8, aqp::CmpOp::kLe, /*value=*/55.0});

  Estimates out;
  aqp::AggregateQuery q;
  q.filter = working_age;

  q.agg = aqp::AggFunc::kCount;
  auto count = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(count.ok());
  out.count = (*count).Scalar();

  q.agg = aqp::AggFunc::kSum;
  q.measure_attr = 13;
  auto sum = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(sum.ok());
  out.sum = (*sum).Scalar();

  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = 8;
  auto avg = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(avg.ok());
  out.avg = (*avg).Scalar();
  return out;
}

double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

TEST(QuantEndToEndTest, SamplingEstimatesDriftWithinBound) {
  // One seeded model, one seeded RNG per run; the only variable is the
  // decoder quantization mode. Quantization perturbs each logit by O(1/127)
  // at worst, which can flip a handful of near-threshold decode decisions —
  // aggregate estimates must not move beyond this bound (a real kernel bug
  // shows up as O(1) drift).
  constexpr double kDriftBound = 0.05;

  const relation::Table table =
      data::GenerateCensus({.rows = 3000, .seed = 71});
  vae::VaeAqpOptions options;
  options.epochs = 3;
  options.hidden_dim = 32;
  options.seed = 20250807;
  const QuantMode prev = ActiveQuantMode();
  ASSERT_TRUE(SetQuantMode(QuantMode::kOff).ok());
  auto model = vae::VaeAqpModel::Train(table, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const size_t n = 4000;
  util::Rng rng_base(4242);
  const Estimates fp32_est =
      RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng_base));
  EXPECT_GT(fp32_est.count, 0.0);

  for (QuantMode mode : {QuantMode::kFp16, QuantMode::kInt8}) {
    ASSERT_TRUE((*model)->PrepareQuantized(mode).ok());
    EXPECT_EQ((*model)->prepared_quant_mode(), mode);
    util::Rng rng(4242);
    const Estimates est =
        RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng));
    EXPECT_LE(RelDiff(fp32_est.count, est.count), kDriftBound)
        << QuantModeName(mode) << " COUNT: fp32=" << fp32_est.count
        << " quant=" << est.count;
    EXPECT_LE(RelDiff(fp32_est.sum, est.sum), kDriftBound)
        << QuantModeName(mode) << " SUM: fp32=" << fp32_est.sum
        << " quant=" << est.sum;
    EXPECT_LE(RelDiff(fp32_est.avg, est.avg), kDriftBound)
        << QuantModeName(mode) << " AVG: fp32=" << fp32_est.avg
        << " quant=" << est.avg;
    EXPECT_GT(est.count, 0.0);
  }

  // The model's plan is the only gate: preparing kOff drops the int8 plan
  // and generation is the plain fp32 run again, bit for bit.
  ASSERT_TRUE((*model)->PrepareQuantized(QuantMode::kOff).ok());
  EXPECT_EQ((*model)->prepared_quant_mode(), QuantMode::kOff);
  util::Rng rng_off(4242);
  const Estimates off_est =
      RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng_off));
  EXPECT_EQ(off_est.count, fp32_est.count);
  EXPECT_EQ(off_est.sum, fp32_est.sum);
  EXPECT_EQ(off_est.avg, fp32_est.avg);
  ASSERT_TRUE(SetQuantMode(prev).ok());
}

TEST(QuantEndToEndTest, MaskedCpuPreparesOnTheScalarOracle) {
  // With the vector ISA masked, preparing a quantized plan reruns the
  // kernel self-check on the scalar oracle alone, and generation then runs
  // that oracle. int8 accumulates exactly, so its samples match the vector
  // kernel's bit for bit. The GEMM kernel is pinned to blocked so the fp32
  // layers run the same code on both sides.
  const relation::Table table =
      data::GenerateCensus({.rows = 2000, .seed = 72});
  vae::VaeAqpOptions options;
  options.epochs = 2;
  options.hidden_dim = 32;
  options.seed = 20250808;
  auto model = vae::VaeAqpModel::Train(table, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const GemmKernelKind kernel = ActiveGemmKernel();
  SetGemmKernel(GemmKernelKind::kBlocked);
  ASSERT_TRUE((*model)->PrepareQuantized(QuantMode::kInt8).ok());
  const size_t n = 2000;
  util::Rng rng_full(4243);
  const Estimates full =
      RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng_full));

  const util::CpuFeatures none;
  util::SetCpuFeaturesForTest(&none);
  const bool simd = QuantSimdAvailable(QuantMode::kInt8);
  ASSERT_TRUE((*model)->PrepareQuantized(QuantMode::kOff).ok());
  const util::Status prepared =
      (*model)->PrepareQuantized(QuantMode::kInt8);
  Estimates masked;
  if (prepared.ok()) {
    util::Rng rng_masked(4243);
    masked = RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng_masked));
  }
  util::SetCpuFeaturesForTest(nullptr);
  SetGemmKernel(kernel);

  EXPECT_FALSE(simd);
  ASSERT_TRUE(prepared.ok()) << prepared.ToString();
  EXPECT_EQ((*model)->prepared_quant_mode(), QuantMode::kInt8);
  EXPECT_EQ(masked.count, full.count);
  EXPECT_EQ(masked.sum, full.sum);
  EXPECT_EQ(masked.avg, full.avg);
}

}  // namespace
}  // namespace deepaqp::nn
