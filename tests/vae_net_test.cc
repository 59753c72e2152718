#include "vae/vae_net.h"

#include "vae/vae_model.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels.h"
#include "nn/kernels_quant.h"

namespace deepaqp::vae {
namespace {

using nn::Matrix;

VaeNetOptions SmallOptions() {
  VaeNetOptions opts;
  opts.input_dim = 8;
  opts.latent_dim = 4;
  opts.hidden_dim = 16;
  opts.depth = 2;
  opts.seed = 3;
  return opts;
}

/// Restores the process-wide GEMM kernel on scope exit, so a failed
/// assertion cannot leave another backend active for later tests.
class ScopedKernel {
 public:
  ScopedKernel() : kernel_(nn::ActiveGemmKernel()) {}
  ~ScopedKernel() { nn::SetGemmKernel(kernel_); }

 private:
  nn::GemmKernelKind kernel_;
};

/// Random binary batch drawn from a simple two-mode distribution.
Matrix TwoModeData(size_t n, util::Rng& rng) {
  Matrix x(n, 8);
  for (size_t r = 0; r < n; ++r) {
    const bool mode = rng.Bernoulli(0.5);
    for (size_t c = 0; c < 8; ++c) {
      // Mode 0: first half bits mostly on; mode 1: second half.
      const bool on_half = mode ? c >= 4 : c < 4;
      x.At(r, c) = rng.Bernoulli(on_half ? 0.9 : 0.1) ? 1.0f : 0.0f;
    }
  }
  return x;
}

TEST(VaeNetTest, ShapesAreConsistent) {
  VaeNet net(SmallOptions());
  util::Rng rng(1);
  Matrix x(5, 8);
  auto post = net.Encode(x);
  EXPECT_EQ(post.mu.rows(), 5u);
  EXPECT_EQ(post.mu.cols(), 4u);
  EXPECT_EQ(post.logvar.cols(), 4u);
  Matrix z = net.SamplePrior(7, rng);
  EXPECT_EQ(z.rows(), 7u);
  EXPECT_EQ(z.cols(), 4u);
  Matrix logits = net.DecodeLogits(z);
  EXPECT_EQ(logits.rows(), 7u);
  EXPECT_EQ(logits.cols(), 8u);
}

TEST(VaeNetTest, ReparameterizationMatchesFormula) {
  VaeNet::Posterior post;
  post.mu = Matrix(1, 2);
  post.logvar = Matrix(1, 2);
  post.mu.At(0, 0) = 1.0f;
  post.mu.At(0, 1) = -1.0f;
  post.logvar.At(0, 0) = 0.0f;     // sigma 1
  post.logvar.At(0, 1) = 2.0f;     // sigma e
  Matrix eps(1, 2);
  eps.At(0, 0) = 0.5f;
  eps.At(0, 1) = -0.5f;
  Matrix z = VaeNet::Reparameterize(post, eps);
  EXPECT_NEAR(z.At(0, 0), 1.5f, 1e-6);
  EXPECT_NEAR(z.At(0, 1), -1.0f - 0.5f * std::exp(1.0f), 1e-5);
}

TEST(VaeNetTest, TrainingReducesElboLoss) {
  VaeNet net(SmallOptions());
  util::Rng rng(7);
  Matrix data = TwoModeData(512, rng);
  nn::Adam opt(net.Parameters(), 5e-3f);
  util::Rng eval_rng(11);
  const double before = net.ElboLoss(data, eval_rng);
  TrainStepOptions step;
  for (int epoch = 0; epoch < 30; ++epoch) {
    for (size_t start = 0; start < data.rows(); start += 64) {
      std::vector<size_t> idx;
      for (size_t i = start; i < std::min<size_t>(start + 64, data.rows());
           ++i) {
        idx.push_back(i);
      }
      net.TrainStep(data.GatherRows(idx), opt, rng, step);
    }
  }
  util::Rng eval_rng2(11);
  const double after = net.ElboLoss(data, eval_rng2);
  EXPECT_LT(after, before - 0.5);
}

TEST(VaeNetTest, LogRatioRowsFiniteAndOrdered) {
  VaeNet net(SmallOptions());
  util::Rng rng(13);
  Matrix x = TwoModeData(16, rng);
  auto post = net.Encode(x);
  Matrix eps(16, 4);
  Matrix z = VaeNet::Reparameterize(post, eps);  // z = mu (eps = 0)
  Matrix ratio = net.LogRatioRows(x, post, z);
  ASSERT_EQ(ratio.rows(), 16u);
  for (size_t r = 0; r < ratio.rows(); ++r) {
    EXPECT_TRUE(std::isfinite(ratio.At(r, 0)));
  }
}

TEST(VaeNetTest, PreparedPlanAloneDecidesQuantizedDecode) {
  // The net's own plan is the only gate: whatever the process-wide mode,
  // an int8 plan changes the decoder's logits, and preparing kOff returns
  // the fp32 logits bit for bit.
  VaeNet net(SmallOptions());
  util::Rng rng(23);
  const Matrix z = net.SamplePrior(64, rng);
  nn::ScratchArena arena;
  Matrix fp32, int8, off;
  net.DecodeLogitsConstInto(z, &fp32, &arena);
  ASSERT_TRUE(net.PrepareQuantizedDecoder(nn::QuantMode::kInt8).ok());
  net.DecodeLogitsConstInto(z, &int8, &arena);
  ASSERT_TRUE(net.PrepareQuantizedDecoder(nn::QuantMode::kOff).ok());
  net.DecodeLogitsConstInto(z, &off, &arena);
  ASSERT_EQ(int8.size(), fp32.size());
  ASSERT_EQ(off.size(), fp32.size());
  EXPECT_NE(std::memcmp(int8.data(), fp32.data(), fp32.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(off.data(), fp32.data(), fp32.size() * sizeof(float)),
            0);
}

TEST(VaeNetTest, LogRatioFromLogitsMatchesForwardUnderEveryBackend) {
  // Generation passes the window's decoder logits to the VRS ratio instead
  // of running the decoder a second time; the ratios must keep their bits
  // under every GEMM kernel and every quantized decoder plan this machine
  // can run.
  VaeNetOptions opts;
  opts.input_dim = 47;
  opts.latent_dim = 8;
  opts.hidden_dim = 64;
  opts.seed = 5;
  VaeNet net(opts);
  util::Rng rng(19);
  Matrix x(300, opts.input_dim);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  const Matrix z = net.SamplePrior(x.rows(), rng);
  nn::ScratchArena arena;
  VaeNet::Posterior post;
  net.EncodeConstInto(x, &post, &arena);

  std::vector<nn::GemmKernelKind> kernels = {nn::GemmKernelKind::kBlocked};
  if (nn::SimdKernelAvailable()) kernels.push_back(nn::GemmKernelKind::kSimd);
  ScopedKernel restore;
  int checked = 0;
  for (nn::GemmKernelKind kernel : kernels) {
    nn::SetGemmKernel(kernel);
    for (nn::QuantMode mode : {nn::QuantMode::kOff, nn::QuantMode::kFp16,
                               nn::QuantMode::kInt8}) {
      if (!nn::CheckQuantKernel(mode).ok()) continue;  // self-check failed
      ASSERT_TRUE(net.PrepareQuantizedDecoder(mode).ok());
      Matrix logits, from_logits, forward;
      net.DecodeLogitsConstInto(z, &logits, &arena);
      VaeNet::LogRatioRowsFromLogitsInto(x, post, z, logits, &from_logits);
      net.LogRatioRowsConstInto(x, post, z, &forward, &arena);
      ASSERT_EQ(from_logits.rows(), x.rows());
      ASSERT_EQ(forward.rows(), x.rows());
      EXPECT_EQ(std::memcmp(from_logits.data(), forward.data(),
                            forward.size() * sizeof(float)),
                0)
          << nn::GemmKernelKindName(kernel) << " / "
          << nn::QuantModeName(mode);
      ++checked;
    }
  }
  EXPECT_GE(checked, 1);  // quant off always passes its (empty) check
}

TEST(VaeNetTest, VrsTrainStepTracksAcceptance) {
  VaeNet net(SmallOptions());
  util::Rng rng(17);
  Matrix x = TwoModeData(64, rng);
  nn::Adam opt(net.Parameters(), 1e-3f);
  // Huge per-row T: everything accepted immediately.
  std::vector<float> t_hi(64, 1e9f);
  TrainStepOptions step;
  step.use_vrs = true;
  step.row_t = &t_hi;
  auto s = net.TrainStep(x, opt, rng, step);
  EXPECT_DOUBLE_EQ(s.acceptance, 1.0);
  ASSERT_EQ(s.log_ratio.size(), 64u);

  // Very low T: most draws rejected.
  std::vector<float> t_lo(64, -1e9f);
  step.row_t = &t_lo;
  s = net.TrainStep(x, opt, rng, step);
  EXPECT_LT(s.acceptance, 0.05);
}

TEST(VaeNetTest, RElboLossNoWorseThanElboAfterTraining) {
  VaeNet net(SmallOptions());
  util::Rng rng(19);
  Matrix data = TwoModeData(256, rng);
  nn::Adam opt(net.Parameters(), 5e-3f);
  TrainStepOptions step;
  for (int epoch = 0; epoch < 15; ++epoch) {
    for (size_t start = 0; start < data.rows(); start += 64) {
      std::vector<size_t> idx;
      for (size_t i = start; i < std::min<size_t>(start + 64, data.rows());
           ++i) {
        idx.push_back(i);
      }
      net.TrainStep(data.GatherRows(idx), opt, rng, step);
    }
  }
  // Average over several draws: resampling with a strict threshold keeps
  // better posterior samples, so the R-ELBO loss should not be larger.
  double elbo = 0.0, relbo = 0.0;
  for (int i = 0; i < 10; ++i) {
    util::Rng r1(100 + i), r2(100 + i);
    elbo += net.RElboLoss(data, kTPlusInf, r1);
    relbo += net.RElboLoss(data, -2.0, r2, 5);
  }
  EXPECT_LE(relbo, elbo + 0.1);
}

TEST(VaeNetTest, SerializeRoundTripPreservesDecoder) {
  VaeNet net(SmallOptions());
  util::ByteWriter w;
  net.Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = VaeNet::Deserialize(r);
  ASSERT_TRUE(back.ok());
  util::Rng rng(23);
  Matrix z = net.SamplePrior(4, rng);
  Matrix a = net.DecodeLogits(z);
  Matrix b = (*back)->DecodeLogits(z);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
  EXPECT_EQ((*back)->NumParameters(), net.NumParameters());
}

TEST(VaeNetTest, NumParametersMatchesArchitecture) {
  VaeNetOptions opts = SmallOptions();
  VaeNet net(opts);
  // encoder: 8*16+16 + 16*16+16 ; heads: 2*(16*4+4) ;
  // decoder: 4*16+16 + 16*16+16 + 16*8+8.
  const size_t expect = (8 * 16 + 16) + (16 * 16 + 16) + 2 * (16 * 4 + 4) +
                        (4 * 16 + 16) + (16 * 16 + 16) + (16 * 8 + 8);
  EXPECT_EQ(net.NumParameters(), expect);
}

}  // namespace
}  // namespace deepaqp::vae
