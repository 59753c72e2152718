#include "vae/vae_model.h"

#include <algorithm>
#include <cmath>

#include "nn/arena.h"
#include "nn/kernels.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace deepaqp::vae {

using nn::Matrix;

namespace {

/// Builds the quantized decoder plan for nn::ActiveQuantMode() so a
/// freshly trained / deserialized model runs under DEEPAQP_QUANT or
/// --quant. Preparation failure (e.g. non-finite weights) downgrades
/// to fp32 with a warning rather than failing model construction — the
/// quantized plan is a derived acceleration, never required for
/// correctness.
void PrepareQuantizedForActiveMode(VaeAqpModel* model) {
  const nn::QuantMode mode = nn::ActiveQuantMode();
  if (mode == nn::QuantMode::kOff) return;
  const util::Status st = model->PrepareQuantized(mode);
  if (!st.ok()) {
    DEEPAQP_LOG(Warning) << "quantized decoder prep (" <<
        nn::QuantModeName(mode) << ") failed: " << st.message()
        << "; model stays fp32";
  }
}

}  // namespace

util::Result<std::unique_ptr<VaeAqpModel>> VaeAqpModel::Train(
    const relation::Table& table, const VaeAqpOptions& options,
    TrainingStats* stats) {
  if (table.num_rows() == 0) {
    return util::Status::InvalidArgument("cannot train on empty table");
  }
  if (options.epochs < 1 || options.batch_size < 1) {
    return util::Status::InvalidArgument("epochs and batch_size must be >=1");
  }
  util::Stopwatch total_watch;

  auto model = std::unique_ptr<VaeAqpModel>(new VaeAqpModel());
  model->options_ = options;
  DEEPAQP_ASSIGN_OR_RETURN(
      model->encoder_, encoding::TupleEncoder::Fit(table, options.encoder));

  VaeNetOptions net_opts;
  net_opts.input_dim = model->encoder_.encoded_dim();
  net_opts.latent_dim =
      options.latent_dim > 0
          ? options.latent_dim
          : std::max<size_t>(
                2, static_cast<size_t>(options.latent_fraction *
                                       static_cast<double>(
                                           net_opts.input_dim)));
  net_opts.hidden_dim = options.hidden_dim;
  net_opts.depth = options.depth;
  net_opts.seed = options.seed;
  model->net_ = std::make_unique<VaeNet>(net_opts);

  Matrix data = model->encoder_.EncodeAll(table);
  const size_t n = data.rows();

  float lr = options.learning_rate;
  auto opt =
      std::make_unique<nn::Adam>(model->net_->Parameters(), lr);
  util::Rng rng(options.seed ^ 0xABCDEF);

  // Per-tuple VRS thresholds, maintained as a stochastic-approximation
  // estimate of -q_{1-target}(r(x)): with T(x) = -q, a fraction `target` of
  // posterior draws satisfies r >= -T(x) and is accepted outright.
  std::vector<float> row_t(n, 1e9f);  // effectively "accept all" until warmup ends
  std::vector<float> neg_quantile(n, 0.0f);
  std::vector<uint8_t> quantile_initialized(n, 0);
  const int warmup_epochs = std::max(1, options.epochs / 3);

  TrainReport report;
  report.final_learning_rate = lr;

  // Best-checkpoint for divergence rollback: parameter values plus every
  // piece of epoch-loop state (thresholds, rng) so a restore replays
  // training from the checkpointed epoch deterministically. The initial
  // state is a valid checkpoint, so even an epoch-0 divergence can roll
  // back. `loss` is recon+kl of the epoch that produced the checkpoint.
  struct Checkpoint {
    std::vector<Matrix> params;
    std::vector<float> row_t;
    std::vector<float> neg_quantile;
    std::vector<uint8_t> quantile_initialized;
    util::Rng rng;
    int next_epoch = 0;
    double loss = std::numeric_limits<double>::infinity();
  };
  Checkpoint best{model->net_->CloneParameterValues(),
                  row_t,
                  neg_quantile,
                  quantile_initialized,
                  rng,
                  0,
                  std::numeric_limits<double>::infinity()};

  // Minibatch buffers reused across every batch of every epoch: the gather
  // target and the per-row threshold vector reach steady-state capacity in
  // the first iteration and never reallocate again.
  std::vector<size_t> idx;
  Matrix batch;
  std::vector<float> batch_t;

  for (int epoch = 0; epoch < options.epochs;) {
    util::Stopwatch epoch_watch;
    EpochStats epoch_stats;
    epoch_stats.acceptance = 0.0;  // accumulated below, then averaged
    const bool vrs_active = options.vrs_training && epoch >= warmup_epochs;
    const uint64_t nf_grads_before = opt->nonfinite_grads();
    const auto perm = rng.Permutation(n);
    size_t batches = 0;
    for (size_t start = 0; start < n; start += options.batch_size) {
      const size_t end = std::min(n, start + options.batch_size);
      idx.assign(perm.begin() + start, perm.begin() + end);
      data.GatherRowsInto(idx, &batch);

      batch_t.resize(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) batch_t[i] = row_t[idx[i]];
      TrainStepOptions step;
      step.use_vrs = vrs_active;
      step.row_t = &batch_t;
      step.max_rounds = options.vrs_rounds;

      StepStats s = model->net_->TrainStep(batch, *opt, rng, step);
      epoch_stats.recon_loss += s.recon_loss;
      epoch_stats.kl += s.kl;
      epoch_stats.acceptance += s.acceptance;
      ++batches;

      // Update per-tuple quantile estimates of r(x) by quantile SGD:
      // q <- q + eta * (p - 1[r < q]) tracks the p-quantile of r.
      // Non-finite log-ratios carry no quantile information; skipping them
      // (counted) keeps the thresholds usable through a transient fault.
      const float p = static_cast<float>(1.0 - options.train_accept_target);
      const float eta = 0.5f;
      for (size_t i = 0; i < idx.size(); ++i) {
        const float r = s.log_ratio[i];
        if (!std::isfinite(r)) {
          ++report.nonfinite_log_ratios;
          continue;
        }
        float& q = neg_quantile[idx[i]];
        if (!quantile_initialized[idx[i]]) {
          q = r;
          quantile_initialized[idx[i]] = 1;
        } else {
          q += eta * std::abs(q) * (p - (r < q ? 1.0f : 0.0f));
        }
        row_t[idx[i]] = -q;
      }
    }
    if (batches > 0) {
      epoch_stats.recon_loss /= static_cast<double>(batches);
      epoch_stats.kl /= static_cast<double>(batches);
      epoch_stats.acceptance /= static_cast<double>(batches);
    }
    epoch_stats.seconds = epoch_watch.ElapsedSeconds();

    // Divergence sentinels: a non-finite epoch loss, gradient entries the
    // optimizer had to skip, non-finite parameters, or an injected fault
    // (chaos site, keyed by epoch) all reject this epoch's work.
    const uint64_t nf_grads_delta = opt->nonfinite_grads() - nf_grads_before;
    const bool injected = util::FailpointTriggered(
        "vae/train_epoch", static_cast<uint64_t>(epoch));
    const bool diverged = injected ||
                          !std::isfinite(epoch_stats.recon_loss) ||
                          !std::isfinite(epoch_stats.kl) ||
                          nf_grads_delta > 0 ||
                          !model->net_->ParametersFinite();
    if (diverged) {
      ++report.divergence_events;
      if (report.rollbacks >= options.max_divergence_retries) {
        report.nonfinite_grads += opt->nonfinite_grads();
        if (stats != nullptr) {
          stats->report = report;
          stats->total_seconds = total_watch.ElapsedSeconds();
        }
        return util::Status::Internal(
            "training diverged at epoch " + std::to_string(epoch) +
            " and exhausted " +
            std::to_string(options.max_divergence_retries) +
            " rollback retries (learning rate backed off to " +
            std::to_string(lr) + "); sentinel: " +
            (injected ? "injected fault"
             : nf_grads_delta > 0
                 ? "non-finite gradients"
                 : !std::isfinite(epoch_stats.recon_loss) ||
                           !std::isfinite(epoch_stats.kl)
                       ? "non-finite loss"
                       : "non-finite parameters"));
      }
      // Roll back to the best checkpoint and retry from there with a
      // backed-off learning rate and fresh optimizer moments. The restored
      // rng replays the same permutations/draws, so the retry differs only
      // through the smaller steps.
      model->net_->RestoreParameterValues(best.params);
      row_t = best.row_t;
      neg_quantile = best.neg_quantile;
      quantile_initialized = best.quantile_initialized;
      rng = best.rng;
      epoch = best.next_epoch;
      lr *= options.divergence_lr_backoff;
      report.nonfinite_grads += opt->nonfinite_grads();
      opt = std::make_unique<nn::Adam>(model->net_->Parameters(), lr);
      ++report.rollbacks;
      report.final_learning_rate = lr;
      DEEPAQP_LOG(Warning)
          << "training divergence detected; rolled back to epoch "
          << best.next_epoch << ", lr backed off to " << lr << " (retry "
          << report.rollbacks << "/" << options.max_divergence_retries
          << ")";
      if (stats != nullptr) {
        // Healthy epochs at or after the rollback point are retrained;
        // drop their stale entries.
        while (stats->epochs.size() >
               static_cast<size_t>(best.next_epoch)) {
          stats->epochs.pop_back();
        }
      }
      continue;
    }

    if (stats != nullptr) stats->epochs.push_back(epoch_stats);
    ++epoch;
    const double epoch_loss = epoch_stats.recon_loss + epoch_stats.kl;
    if (epoch_loss <= best.loss) {
      best.params = model->net_->CloneParameterValues();
      best.row_t = row_t;
      best.neg_quantile = neg_quantile;
      best.quantile_initialized = quantile_initialized;
      best.rng = rng;
      best.next_epoch = epoch;
      best.loss = epoch_loss;
    }
  }
  report.nonfinite_grads += opt->nonfinite_grads();

  // Calibrate per-tuple thresholds T(x) with a dedicated Monte-Carlo pass
  // (Sec. VI-A): for each tuple draw several posterior samples, estimate
  // the (1 - accept_target) quantile of the log-ratio r = log p(x,z) -
  // log q(z|x), and set T(x) = -q so draws are accepted with probability
  // ~accept_target. The default generation threshold is the 90th
  // percentile of the T(x) distribution.
  {
    const size_t calib_rows = std::min<size_t>(n, 4096);
    const auto rows = rng.SampleWithoutReplacement(n, calib_rows);
    constexpr int kDraws = 8;
    std::vector<float> t_values;
    t_values.reserve(calib_rows);
    const size_t batch_size = 256;
    // Calibration is pure inference on the finished net, so it runs on the
    // cache-free const paths (bit-identical to Encode/LogRatioRows) with
    // all per-batch/per-draw buffers hoisted out of the loops.
    nn::ScratchArena arena;
    Matrix eps;
    Matrix z;
    Matrix ratio;
    VaeNet::Posterior post;
    std::vector<std::vector<float>> draws;
    for (size_t start = 0; start < calib_rows; start += batch_size) {
      const size_t end = std::min(calib_rows, start + batch_size);
      idx.assign(rows.begin() + start, rows.begin() + end);
      data.GatherRowsInto(idx, &batch);
      model->net_->EncodeConstInto(batch, &post, &arena);
      draws.resize(idx.size());
      for (auto& d : draws) d.clear();
      for (int d = 0; d < kDraws; ++d) {
        eps.Resize(idx.size(), model->net_->latent_dim());
        for (size_t i = 0; i < eps.size(); ++i) {
          eps.data()[i] = static_cast<float>(rng.NextGaussian());
        }
        VaeNet::ReparameterizeInto(post, eps, &z);
        model->net_->LogRatioRowsConstInto(batch, post, z, &ratio, &arena);
        for (size_t i = 0; i < idx.size(); ++i) {
          draws[i].push_back(ratio.At(i, 0));
        }
      }
      const auto q_index = static_cast<size_t>(
          (1.0 - options.train_accept_target) * (kDraws - 1));
      for (auto& d : draws) {
        std::sort(d.begin(), d.end());
        // A non-finite quantile (poisoned forward pass, degenerate
        // posterior) is useless as a threshold; drop it rather than let it
        // become a non-finite default_t.
        const float threshold = -d[q_index];
        if (std::isfinite(threshold)) t_values.push_back(threshold);
      }
    }
    std::sort(t_values.begin(), t_values.end());
    if (t_values.empty()) {
      // No finite calibration threshold survived (or no calibration data at
      // all): fall back to accept-all generation rather than propagating a
      // non-finite default into clients' NaN-means-default logic.
      model->default_t_ = kTPlusInf;
      report.calibration_fallback = true;
      DEEPAQP_LOG(Warning)
          << "T(x) calibration produced no finite threshold; default_t "
             "falls back to accept-all (t = +inf)";
    } else {
      // Nearest-rank 90th percentile, ceil(0.9*n)-1: floor-based
      // 0.9*(n-1) picks a too-low order statistic on tiny calibration
      // sets (e.g. n=2 picked index 0, the minimum).
      const size_t n = t_values.size();
      const size_t rank = std::min(
          n - 1,
          static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n))) - 1);
      model->default_t_ = t_values[rank];
    }
  }

  if (stats != nullptr) {
    stats->report = report;
    stats->total_seconds = total_watch.ElapsedSeconds();
  }
  PrepareQuantizedForActiveMode(model.get());
  return model;
}

relation::Table VaeAqpModel::MakeEmptySampleTable() const {
  relation::Table out(encoder_.schema());
  for (size_t c = 0; c < encoder_.schema().num_attributes(); ++c) {
    if (encoder_.schema().IsCategorical(c)) {
      out.DeclareCardinality(c, encoder_.layout()[c].cardinality);
      for (const std::string& label : encoder_.layout()[c].labels) {
        out.InternLabel(c, label);
      }
    }
  }
  return out;
}

/// Rows per parallel generation chunk. Fixed (never derived from the thread
/// count) so the chunk layout — and therefore every chunk's child RNG
/// stream — depends only on n.
static constexpr size_t kGenerateChunkRows = 512;

relation::Table VaeAqpModel::Generate(size_t n, double t, util::Rng& rng,
                                      GenerateStats* stats) const {
  relation::Table out = MakeEmptySampleTable();
  if (n == 0) return out;
  const uint64_t master = rng.NextUint64();
  const size_t num_chunks =
      (n + kGenerateChunkRows - 1) / kGenerateChunkRows;
  std::vector<relation::Table> chunks(num_chunks, out);
  std::vector<GenerateStats> chunk_stats(num_chunks);
  // Node-sharded fan-out: each NUMA node's lanes generate a contiguous
  // block of chunks. Chunk contents depend only on (master, c) — never on
  // which lane runs a chunk — so every placement policy and thread count
  // produces the same chunks.
  util::ParallelForSharded(0, num_chunks, [&](size_t c) {
    const size_t begin = c * kGenerateChunkRows;
    const size_t rows = std::min(kGenerateChunkRows, n - begin);
    util::Rng chunk_rng = util::Rng::ChildStream(master, c);
    chunks[c] = GenerateChunk(rows, t, chunk_rng, &chunk_stats[c]);
  });
  // Merge: size the pool without touching it (first-touch-deferred column
  // growth), then copy each chunk into its slice under the same node
  // sharding as the fan-out. When lanes are pinned, the writer of a slice
  // is a lane of the node that generated it, so its pages land on the node
  // that later scans them — and the copy itself parallelizes. Offsets are
  // a pure function of the chunk row counts, and chunks share the
  // prototype's dictionaries, so the merged pool matches the old serial
  // Append bit for bit at every thread count and placement policy.
  std::vector<size_t> offsets(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    offsets[c + 1] = offsets[c] + chunks[c].num_rows();
    if (stats != nullptr) stats->Merge(chunk_stats[c]);
  }
  out.AppendUninitializedRows(offsets[num_chunks]);
  util::ParallelForSharded(0, num_chunks, [&](size_t c) {
    out.AssignRows(offsets[c], chunks[c]);
  });
  if (out.num_rows() < n) {
    DEEPAQP_LOG(Warning) << "Generate produced " << out.num_rows() << "/"
                         << n << " rows (degraded chunks gave up early)";
  }
  return out;
}

/// Consecutive zero-progress candidate windows a chunk tolerates before
/// degrading (first to accept-all, then giving up). A healthy window always
/// yields at least its best finite candidate, so this budget only engages
/// when the model emits non-finite ratios or undecodable rows.
static constexpr size_t kMaxStalledWindows = 8;

relation::Table VaeAqpModel::GenerateChunk(size_t n, double t,
                                           util::Rng& rng,
                                           GenerateStats* stats) const {
  relation::Table out = MakeEmptySampleTable();
  const bool reject = t != kTPlusInf;
  const size_t window = std::max<size_t>(128, std::min<size_t>(1024, n));

  // Every Matrix in the window loop is reused across iterations: the arena
  // feeds the inference intermediates and the named buffers below reach
  // steady-state capacity on the first window. The arena is chunk-local, so
  // sibling chunks on other pool threads never share mutable state.
  nn::ScratchArena arena;
  Matrix z;
  Matrix logits;
  Matrix bits;
  Matrix ratio;
  Matrix kept;
  VaeNet::Posterior post;
  std::vector<size_t> accepted;
  std::vector<size_t> finite_rows;

  size_t consecutive_stalls = 0;
  bool force_accept = false;

  while (out.num_rows() < n) {
    const size_t remaining = n - out.num_rows();
    const size_t batch = std::min(window, std::max<size_t>(remaining, 64));
    net_->SamplePriorInto(batch, rng, &z);
    net_->DecodeLogitsConstInto(z, &logits, &arena);

    accepted.clear();
    if (!reject || force_accept) {
      accepted.resize(batch);
      for (size_t i = 0; i < batch; ++i) accepted[i] = i;
    } else {
      // Candidate bits x' ~ Bernoulli(sigmoid(logits)): the acceptance test
      // runs on the encoded representation; attribute decoding of accepted
      // rows happens afterwards with the configured strategy. The sigmoid
      // pass is vectorized; the Bernoulli draws consume one uniform per
      // element in index order, as before.
      bits.Resize(batch, logits.cols());
      nn::SigmoidBernoulliVec(logits.data(), bits.size(), rng, bits.data());
      net_->EncodeConstInto(bits, &post, &arena);
      // The cache-free const paths keep this chunk self-contained: nothing
      // on the shared net is written, so sibling chunks can run in parallel.
      // The ratio's log p(x'|z) term reuses the window's decoder logits.
      VaeNet::LogRatioRowsFromLogitsInto(bits, post, z, logits, &ratio);
      // Chaos site: simulated compute fault during sampling — poisons one
      // candidate's log-ratio, which the non-finite-rejection path below
      // must absorb.
      if (util::FailpointTriggered("vae/sample_chunk")) {
        ratio.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
      }
      size_t best = 0;
      bool have_best = false;
      for (size_t i = 0; i < batch; ++i) {
        const double r = ratio.At(i, 0);
        // A non-finite log-ratio is an explicit rejection: it carries no
        // usable acceptance probability (NaN would otherwise slip through
        // min(0, t + NaN) as an accept). The uniform draw is skipped, so
        // the rng stream only shifts when a fault is actually present.
        if (!std::isfinite(r)) {
          if (stats != nullptr) ++stats->nonfinite_ratios;
          continue;
        }
        if (!have_best || r > ratio.At(best, 0)) {
          best = i;
          have_best = true;
        }
        if (t == kTMinusInf) continue;
        const double log_a = std::min(0.0, t + r);
        if (std::log(std::max(rng.NextDouble(), 1e-300)) <= log_a) {
          accepted.push_back(i);
        }
      }
      // Guarantee progress: a fully rejected window (always, at t = -inf)
      // contributes its single best-ratio candidate — when one exists.
      if (accepted.empty() && have_best) accepted.push_back(best);
    }
    if (accepted.size() > remaining) accepted.resize(remaining);
    if (!accepted.empty()) {
      logits.GatherRowsInto(accepted, &kept);
      relation::Table decoded =
          encoder_.DecodeLogits(kept, options_.decode, rng);
      // Scrub: a poisoned forward pass can decode into non-finite numeric
      // cells; such rows would surface as NaN aggregates downstream. Drop
      // them (counted). Healthy rows pass through untouched.
      finite_rows.clear();
      for (size_t r = 0; r < decoded.num_rows(); ++r) {
        bool finite = true;
        for (size_t c = 0; c < decoded.num_attributes(); ++c) {
          if (!decoded.schema().IsCategorical(c) &&
              !std::isfinite(decoded.NumValue(r, c))) {
            finite = false;
            break;
          }
        }
        if (finite) finite_rows.push_back(r);
      }
      if (finite_rows.size() != decoded.num_rows()) {
        if (stats != nullptr) {
          stats->nonfinite_rows_dropped +=
              decoded.num_rows() - finite_rows.size();
        }
        decoded = decoded.Gather(finite_rows);
      }
      if (decoded.num_rows() > 0) {
        DEEPAQP_CHECK(out.Append(decoded).ok());
        consecutive_stalls = 0;
        continue;
      }
    }

    // Zero-progress window. Tolerate a bounded streak, then degrade: first
    // to accept-all (rejection no longer gates progress), and if even that
    // cannot produce a finite row, give up and return what we have.
    if (stats != nullptr) ++stats->stalled_windows;
    if (++consecutive_stalls >= kMaxStalledWindows) {
      if (!force_accept && reject) {
        force_accept = true;
        consecutive_stalls = 0;
        if (stats != nullptr) ++stats->forced_accept_windows;
        DEEPAQP_LOG(Warning)
            << "sample generation stalled for " << kMaxStalledWindows
            << " windows; degrading to accept-all for this chunk";
      } else {
        DEEPAQP_LOG(Warning)
            << "sample generation cannot make progress; returning "
            << out.num_rows() << "/" << n << " rows";
        break;
      }
    }
  }
  return out;
}

GenerateWhereResult VaeAqpModel::GenerateWhereReport(
    size_t n, const aqp::Predicate& predicate, double t, util::Rng& rng,
    size_t max_candidates) const {
  relation::Table out = MakeEmptySampleTable();
  size_t candidates = 0;
  while (out.num_rows() < n && candidates < max_candidates) {
    const size_t batch =
        std::min<size_t>(1024, max_candidates - candidates);
    relation::Table sample = Generate(batch, t, rng);
    // A degraded model can return short (or empty) batches; count the
    // requested budget so an unproductive model still terminates.
    candidates += std::max(batch, sample.num_rows());
    std::vector<size_t> matching;
    for (size_t r = 0; r < sample.num_rows(); ++r) {
      if (predicate.Matches(sample, r)) matching.push_back(r);
    }
    if (matching.size() > n - out.num_rows()) {
      matching.resize(n - out.num_rows());
    }
    if (!matching.empty()) {
      DEEPAQP_CHECK(out.Append(sample.Gather(matching)).ok());
    }
  }
  return GenerateWhereResult{std::move(out), n, candidates};
}

aqp::SampleFn VaeAqpModel::MakeSampler(double t, uint64_t seed) const {
  // The sampler owns an independent RNG stream; the harness's rng argument
  // seeds per-draw variation.
  return [this, t, seed](size_t rows, util::Rng& harness_rng) {
    util::Rng rng(seed ^ harness_rng.NextUint64());
    return Generate(rows, t, rng);
  };
}

double VaeAqpModel::RElboLoss(const relation::Table& table, double t,
                              util::Rng& rng, size_t max_rows) {
  const size_t n = std::min(table.num_rows(), max_rows);
  std::vector<size_t> rows =
      table.num_rows() <= max_rows
          ? [&] {
              std::vector<size_t> all(table.num_rows());
              for (size_t i = 0; i < all.size(); ++i) all[i] = i;
              return all;
            }()
          : rng.SampleWithoutReplacement(table.num_rows(), n);
  Matrix x = encoder_.EncodeRows(table, rows);
  return net_->RElboLoss(x, t, rng);
}

double VaeAqpModel::ElboLoss(const relation::Table& table, util::Rng& rng,
                             size_t max_rows) {
  return RElboLoss(table, kTPlusInf, rng, max_rows);
}

size_t VaeAqpModel::ModelSizeBytes() const { return Serialize().size(); }

std::vector<uint8_t> VaeAqpModel::Serialize() const {
  util::SnapshotWriter snap(kVaeModelSnapshotKind, kVaeModelPayloadVersion);
  util::ByteWriter& meta = snap.AddSection("meta");
  meta.WriteF64(default_t_);
  meta.WriteU8(static_cast<uint8_t>(options_.decode.strategy));
  meta.WriteI32(options_.decode.draws);
  encoder_.Serialize(snap.AddSection("encoder"));
  net_->Serialize(snap.AddSection("net"));
  return snap.Finish();
}

util::Result<std::unique_ptr<VaeAqpModel>> VaeAqpModel::Deserialize(
    const std::vector<uint8_t>& bytes) {
  DEEPAQP_ASSIGN_OR_RETURN(util::SnapshotReader snap,
                           util::SnapshotReader::Open(bytes));
  if (snap.kind() != kVaeModelSnapshotKind) {
    return util::Status::InvalidArgument(
        "snapshot holds a '" + snap.kind() + "', not a deepaqp VAE model");
  }
  if (snap.payload_version() != kVaeModelPayloadVersion) {
    return util::Status::InvalidArgument(
        "unsupported VAE model payload version " +
        std::to_string(snap.payload_version()) + " (expected " +
        std::to_string(kVaeModelPayloadVersion) + ")");
  }
  auto model = std::unique_ptr<VaeAqpModel>(new VaeAqpModel());
  DEEPAQP_ASSIGN_OR_RETURN(util::ByteReader meta, snap.Section("meta"));
  DEEPAQP_ASSIGN_OR_RETURN(model->default_t_, meta.ReadF64());
  DEEPAQP_ASSIGN_OR_RETURN(uint8_t strategy, meta.ReadU8());
  if (strategy > static_cast<uint8_t>(
                     encoding::DecodeStrategy::kWeightedRandom)) {
    return util::Status::InvalidArgument("bad decode strategy");
  }
  model->options_.decode.strategy =
      static_cast<encoding::DecodeStrategy>(strategy);
  DEEPAQP_ASSIGN_OR_RETURN(model->options_.decode.draws, meta.ReadI32());
  if (!meta.AtEnd()) {
    return util::Status::InvalidArgument(
        "trailing bytes in VAE model 'meta' section");
  }
  DEEPAQP_ASSIGN_OR_RETURN(util::ByteReader enc_r, snap.Section("encoder"));
  DEEPAQP_ASSIGN_OR_RETURN(model->encoder_,
                           encoding::TupleEncoder::Deserialize(enc_r));
  DEEPAQP_ASSIGN_OR_RETURN(util::ByteReader net_r, snap.Section("net"));
  DEEPAQP_ASSIGN_OR_RETURN(model->net_, VaeNet::Deserialize(net_r));
  PrepareQuantizedForActiveMode(model.get());
  return model;
}

}  // namespace deepaqp::vae
