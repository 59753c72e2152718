#include "vae/vae_net.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/logging.h"

namespace deepaqp::vae {

using nn::Matrix;

VaeNet::VaeNet(const VaeNetOptions& options) : options_(options) {
  DEEPAQP_CHECK_GT(options_.input_dim, 0u);
  DEEPAQP_CHECK_GT(options_.latent_dim, 0u);
  util::Rng rng(options_.seed);
  encoder_trunk_ = nn::MakeMlpTrunk(options_.input_dim, options_.hidden_dim,
                                    options_.depth, rng);
  mu_head_ = std::make_unique<nn::Linear>(options_.hidden_dim,
                                          options_.latent_dim, rng);
  logvar_head_ = std::make_unique<nn::Linear>(options_.hidden_dim,
                                              options_.latent_dim, rng);
  decoder_ = nn::MakeMlpTrunk(options_.latent_dim, options_.hidden_dim,
                              options_.depth, rng);
  decoder_->Add(std::make_unique<nn::Linear>(options_.hidden_dim,
                                             options_.input_dim, rng));
}

VaeNet::Posterior VaeNet::Encode(const Matrix& x) {
  Matrix h = encoder_trunk_->Forward(x);
  Posterior post;
  post.mu = mu_head_->Forward(h);
  post.logvar = logvar_head_->Forward(h);
  // Clamp logvar for numeric stability of exp().
  for (size_t i = 0; i < post.logvar.size(); ++i) {
    post.logvar.data()[i] =
        std::clamp(post.logvar.data()[i], -8.0f, 8.0f);
  }
  return post;
}

void VaeNet::EncodeConstInto(const Matrix& x, Posterior* post,
                             nn::ScratchArena* arena) const {
  Matrix h = arena->Acquire();
  nn::InferenceForwardInto(*encoder_trunk_, x, &h, arena);
  nn::FusedLinearForward(h, mu_head_->weight.value, mu_head_->bias.value,
                         nn::Activation::kIdentity, 0.0f, &post->mu);
  nn::FusedLinearForward(h, logvar_head_->weight.value,
                         logvar_head_->bias.value, nn::Activation::kIdentity,
                         0.0f, &post->logvar);
  arena->Release(std::move(h));
  for (size_t i = 0; i < post->logvar.size(); ++i) {
    post->logvar.data()[i] =
        std::clamp(post->logvar.data()[i], -8.0f, 8.0f);
  }
}

Matrix VaeNet::DecodeLogits(const Matrix& z) { return decoder_->Forward(z); }

void VaeNet::DecodeLogitsConstInto(const Matrix& z, Matrix* logits,
                                   nn::ScratchArena* arena) const {
  // The model's prepared plan decides: without one (or after preparing
  // kOff) this is the canonical fp32 path, bit for bit.
  if (decoder_quant_.engaged()) {
    nn::QuantizedInferenceForwardInto(decoder_quant_, z, logits, arena);
    return;
  }
  nn::InferenceForwardInto(*decoder_, z, logits, arena);
}

util::Status VaeNet::PrepareQuantizedDecoder(nn::QuantMode mode) {
  if (mode == nn::QuantMode::kOff) {
    decoder_quant_ = nn::QuantizedSequential();
    return util::Status::OK();
  }
  nn::QuantizedSequential plan;
  DEEPAQP_RETURN_IF_ERROR(nn::QuantizeSequential(*decoder_, mode, &plan));
  decoder_quant_ = std::move(plan);
  return util::Status::OK();
}

Matrix VaeNet::Reparameterize(const Posterior& post, const Matrix& eps) {
  Matrix z;
  ReparameterizeInto(post, eps, &z);
  return z;
}

void VaeNet::ReparameterizeInto(const Posterior& post, const Matrix& eps,
                                Matrix* z) {
  z->Resize(post.mu.rows(), post.mu.cols());
  for (size_t i = 0; i < z->size(); ++i) {
    z->data()[i] = post.mu.data()[i] +
                   std::exp(0.5f * post.logvar.data()[i]) * eps.data()[i];
  }
}

Matrix VaeNet::SamplePrior(size_t n, util::Rng& rng) const {
  Matrix z;
  SamplePriorInto(n, rng, &z);
  return z;
}

void VaeNet::SamplePriorInto(size_t n, util::Rng& rng, Matrix* z) const {
  z->Resize(n, options_.latent_dim);
  for (size_t i = 0; i < z->size(); ++i) {
    z->data()[i] = static_cast<float>(rng.NextGaussian());
  }
}

Matrix VaeNet::LogJointRows(const Matrix& x_bits, const Matrix& z) {
  Matrix logits = DecodeLogits(z);
  Matrix log_px_z = nn::BernoulliLogLikelihoodRows(logits, x_bits);
  Matrix log_pz = nn::StandardNormalLogDensityRows(z);
  for (size_t r = 0; r < log_px_z.rows(); ++r) {
    log_px_z.At(r, 0) += log_pz.At(r, 0);
  }
  return log_px_z;
}

Matrix VaeNet::LogPosteriorRows(const Posterior& post, const Matrix& z) {
  return nn::GaussianLogDensityRows(z, post.mu, post.logvar);
}

Matrix VaeNet::LogRatioRows(const Matrix& x_bits, const Posterior& post,
                            const Matrix& z) {
  Matrix r = LogJointRows(x_bits, z);
  Matrix log_q = LogPosteriorRows(post, z);
  for (size_t i = 0; i < r.rows(); ++i) r.At(i, 0) -= log_q.At(i, 0);
  return r;
}

void VaeNet::LogRatioRowsConstInto(const Matrix& x_bits, const Posterior& post,
                                   const Matrix& z, Matrix* out,
                                   nn::ScratchArena* arena) const {
  Matrix logits = arena->Acquire();
  DecodeLogitsConstInto(z, &logits, arena);
  LogRatioRowsFromLogitsInto(x_bits, post, z, logits, out);
  arena->Release(std::move(logits));
}

void VaeNet::LogRatioRowsFromLogitsInto(const Matrix& x_bits,
                                        const Posterior& post, const Matrix& z,
                                        const Matrix& logits, Matrix* out) {
  // Same terms in the same order as LogRatioRows.
  *out = nn::BernoulliLogLikelihoodRows(logits, x_bits);
  Matrix log_pz = nn::StandardNormalLogDensityRows(z);
  for (size_t r = 0; r < out->rows(); ++r) {
    out->At(r, 0) += log_pz.At(r, 0);
  }
  Matrix log_q = LogPosteriorRows(post, z);
  for (size_t i = 0; i < out->rows(); ++i) out->At(i, 0) -= log_q.At(i, 0);
}

namespace {

Matrix GaussianNoise(size_t rows, size_t cols, util::Rng& rng) {
  Matrix eps(rows, cols);
  for (size_t i = 0; i < eps.size(); ++i) {
    eps.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return eps;
}

}  // namespace

StepStats VaeNet::TrainStep(const Matrix& x, nn::Optimizer& opt,
                            util::Rng& rng, const TrainStepOptions& step) {
  const size_t batch = x.rows();
  StepStats stats;

  opt.ZeroGrad();
  Posterior post = Encode(x);

  // Choose the eps (and hence z) each row trains on.
  Matrix eps = GaussianNoise(batch, options_.latent_dim, rng);
  if (step.use_vrs) {
    DEEPAQP_CHECK(step.row_t != nullptr);
    DEEPAQP_CHECK_EQ(step.row_t->size(), batch);
    size_t accepted_total = 0;
    size_t draws_total = 0;
    std::vector<size_t> pending(batch);
    for (size_t i = 0; i < batch; ++i) pending[i] = i;
    for (int round = 0; round < step.max_rounds && !pending.empty();
         ++round) {
      // Evaluate acceptance of the current eps of all pending rows at once.
      Matrix z = Reparameterize(post, eps);
      Matrix ratio = LogRatioRows(x, post, z);
      std::vector<size_t> still_pending;
      for (size_t i : pending) {
        ++draws_total;
        const double log_a =
            std::min(0.0, static_cast<double>((*step.row_t)[i]) +
                              ratio.At(i, 0));
        const double log_u = std::log(std::max(rng.NextDouble(), 1e-300));
        if (log_u <= log_a) {
          ++accepted_total;
        } else {
          still_pending.push_back(i);
        }
      }
      pending = std::move(still_pending);
      if (round + 1 < step.max_rounds) {
        for (size_t i : pending) {
          for (size_t c = 0; c < options_.latent_dim; ++c) {
            eps.At(i, c) = static_cast<float>(rng.NextGaussian());
          }
        }
      }
      // Rows never accepted train on their final draw.
    }
    stats.acceptance =
        draws_total == 0
            ? 1.0
            : static_cast<double>(accepted_total) /
                  static_cast<double>(draws_total);
  }

  // Forward with the chosen eps.
  Matrix z = Reparameterize(post, eps);
  Matrix logits = DecodeLogits(z);

  nn::LossResult recon = nn::BceWithLogits(logits, x);
  Matrix grad_logvar_kl;
  nn::LossResult kl = nn::GaussianKl(post.mu, post.logvar, &grad_logvar_kl);
  stats.recon_loss = recon.value;
  stats.kl = kl.value;

  // Backward. dL/dz from the decoder; then through the reparameterization:
  // dmu += dz, dlogvar += dz * eps * 0.5 * exp(logvar/2); plus KL gradients.
  Matrix dz = decoder_->Backward(recon.grad);
  Matrix dmu = dz;
  nn::Axpy(1.0f, kl.grad, &dmu);
  Matrix dlogvar = grad_logvar_kl;
  for (size_t i = 0; i < dlogvar.size(); ++i) {
    dlogvar.data()[i] += dz.data()[i] * eps.data()[i] * 0.5f *
                         std::exp(0.5f * post.logvar.data()[i]);
  }
  Matrix dh = mu_head_->Backward(dmu);
  nn::Axpy(1.0f, logvar_head_->Backward(dlogvar), &dh);
  encoder_trunk_->Backward(dh);

  opt.Step();

  // Log-ratio diagnostics for the caller's per-tuple T(x) updates, from the
  // trained-on draw.
  Matrix ratio = LogRatioRows(x, post, z);
  stats.log_ratio.resize(batch);
  for (size_t i = 0; i < batch; ++i) stats.log_ratio[i] = ratio.At(i, 0);
  return stats;
}

double VaeNet::ElboLoss(const Matrix& x, util::Rng& rng) {
  Posterior post = Encode(x);
  Matrix eps = GaussianNoise(x.rows(), options_.latent_dim, rng);
  Matrix z = Reparameterize(post, eps);
  Matrix logits = DecodeLogits(z);
  nn::LossResult recon = nn::BceWithLogits(logits, x);
  Matrix grad_logvar;
  nn::LossResult kl = nn::GaussianKl(post.mu, post.logvar, &grad_logvar);
  return recon.value + kl.value;
}

double VaeNet::RElboLoss(const Matrix& x, double t, util::Rng& rng,
                         int max_rounds) {
  Posterior post = Encode(x);
  const size_t batch = x.rows();
  Matrix eps = GaussianNoise(batch, options_.latent_dim, rng);
  if (std::isfinite(t)) {
    std::vector<size_t> pending(batch);
    for (size_t i = 0; i < batch; ++i) pending[i] = i;
    for (int round = 0; round < max_rounds && !pending.empty(); ++round) {
      Matrix z = Reparameterize(post, eps);
      Matrix ratio = LogRatioRows(x, post, z);
      std::vector<size_t> still_pending;
      for (size_t i : pending) {
        const double log_a = std::min(0.0, t + ratio.At(i, 0));
        if (std::log(std::max(rng.NextDouble(), 1e-300)) > log_a) {
          still_pending.push_back(i);
        }
      }
      pending = std::move(still_pending);
      if (round + 1 < max_rounds) {
        for (size_t i : pending) {
          for (size_t c = 0; c < options_.latent_dim; ++c) {
            eps.At(i, c) = static_cast<float>(rng.NextGaussian());
          }
        }
      }
    }
  }
  Matrix z = Reparameterize(post, eps);
  Matrix logits = DecodeLogits(z);
  nn::LossResult recon = nn::BceWithLogits(logits, x);
  // KL term evaluated against the resampled draw: mean of
  // log q(z|x) - log p(z) over the batch (single-sample estimator).
  Matrix log_q = LogPosteriorRows(post, z);
  Matrix log_p = nn::StandardNormalLogDensityRows(z);
  double kl = 0.0;
  for (size_t i = 0; i < batch; ++i) {
    kl += log_q.At(i, 0) - log_p.At(i, 0);
  }
  kl /= static_cast<double>(batch);
  return recon.value + kl;
}

std::vector<nn::Parameter*> VaeNet::Parameters() {
  std::vector<nn::Parameter*> params;
  encoder_trunk_->CollectParameters(&params);
  mu_head_->CollectParameters(&params);
  logvar_head_->CollectParameters(&params);
  decoder_->CollectParameters(&params);
  return params;
}

size_t VaeNet::NumParameters() {
  size_t total = 0;
  for (const nn::Parameter* p : Parameters()) total += p->value.size();
  return total;
}

std::vector<nn::Matrix> VaeNet::CloneParameterValues() {
  std::vector<nn::Matrix> values;
  for (const nn::Parameter* p : Parameters()) values.push_back(p->value);
  return values;
}

void VaeNet::RestoreParameterValues(const std::vector<nn::Matrix>& values) {
  std::vector<nn::Parameter*> params = Parameters();
  DEEPAQP_CHECK_EQ(params.size(), values.size());
  for (size_t i = 0; i < params.size(); ++i) {
    DEEPAQP_CHECK_EQ(params[i]->value.rows(), values[i].rows());
    DEEPAQP_CHECK_EQ(params[i]->value.cols(), values[i].cols());
    params[i]->value = values[i];
  }
}

bool VaeNet::ParametersFinite() {
  for (const nn::Parameter* p : Parameters()) {
    if (!nn::AllFinite(p->value)) return false;
  }
  return true;
}

/// Bump when the serialized layout below changes; Deserialize rejects
/// mismatches with a diagnosable error instead of misparsing weights.
static constexpr uint32_t kVaeNetSchemaVersion = 1;

void VaeNet::Serialize(util::ByteWriter& w) const {
  w.WriteU32(kVaeNetSchemaVersion);
  w.WriteU64(options_.input_dim);
  w.WriteU64(options_.latent_dim);
  w.WriteU64(options_.hidden_dim);
  w.WriteI32(options_.depth);
  encoder_trunk_->Serialize(w);
  mu_head_->Serialize(w);
  logvar_head_->Serialize(w);
  decoder_->Serialize(w);
}

util::Result<std::unique_ptr<VaeNet>> VaeNet::Deserialize(
    util::ByteReader& r) {
  auto net = std::unique_ptr<VaeNet>(new VaeNet());
  DEEPAQP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVaeNetSchemaVersion) {
    return util::Status::InvalidArgument(
        "unsupported VAE net schema version " + std::to_string(version) +
        " (expected " + std::to_string(kVaeNetSchemaVersion) + ")");
  }
  DEEPAQP_ASSIGN_OR_RETURN(net->options_.input_dim, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(net->options_.latent_dim, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(net->options_.hidden_dim, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(net->options_.depth, r.ReadI32());
  DEEPAQP_ASSIGN_OR_RETURN(net->encoder_trunk_,
                           nn::Sequential::Deserialize(r));
  DEEPAQP_ASSIGN_OR_RETURN(net->mu_head_, nn::Linear::Deserialize(r));
  DEEPAQP_ASSIGN_OR_RETURN(net->logvar_head_, nn::Linear::Deserialize(r));
  DEEPAQP_ASSIGN_OR_RETURN(net->decoder_, nn::Sequential::Deserialize(r));
  return net;
}

}  // namespace deepaqp::vae
