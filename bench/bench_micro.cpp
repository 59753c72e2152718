// Microbenchmarks of the hot substrate paths: gemm, RNG, tuple
// encoding/decoding, query execution, VAE sample generation, and the
// matching kernel behind the cross-match test. Emits the uniform bench
// records (name, shape, ns/op, GFLOP/s, threads) of bench_common.h:
//
//   ./bench_micro [--json] [--quick] [--threads N]
//                 [--kernel blocked|simd|auto]
//
// --json writes BENCH_micro.json for the CI perf archive.

#include <cstdio>
#include <vector>

#include "bench_common.h"

#include "aqp/executor.h"
#include "encoding/tuple_encoder.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "stats/matching.h"
#include "util/rng.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const bool quick = flags.GetBool("quick", false);
  const double budget = quick ? 0.05 : 0.3;
  bench::BenchReporter reporter(flags, "micro");

  // Square GEMM through the active kernel (the --kernel flag selects it).
  for (size_t n : {64u, 128u, 256u}) {
    util::Rng rng(1);
    nn::Matrix a(n, n);
    nn::Matrix b(n, n);
    nn::Matrix c;
    a.RandomizeGaussian(rng, 1.0f);
    b.RandomizeGaussian(rng, 1.0f);
    const double ns = bench::MeasureNsPerOp(
        [&] { nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c); }, budget);
    const double flops = 2.0 * static_cast<double>(n * n * n);
    char shape[32];
    std::snprintf(shape, sizeof(shape), "n=%zu", n);
    std::string name = std::string("gemm_") +
                       nn::GemmKernelKindName(nn::ActiveGemmKernel());
    reporter.Add({name, shape, ns, flops / ns, 0});
  }

  {
    util::Rng rng(2);
    double acc = 0.0;
    const double ns = bench::MeasureNsPerOp(
        [&] {
          for (int i = 0; i < 1024; ++i) acc += rng.NextGaussian();
        },
        budget);
    if (acc == 0.125) std::printf(" ");  // keep the accumulator live
    reporter.Add({"rng_gaussian", "n=1024", ns / 1024.0, 0.0, 1});
  }

  {
    auto table = data::GenerateCensus({.rows = 4096, .seed = 3});
    auto encoder = encoding::TupleEncoder::Fit(table, {});
    const double ns = bench::MeasureNsPerOp(
        [&] {
          auto m = encoder->EncodeAll(table);
          (void)m;
        },
        budget);
    reporter.Add({"encode_rows", "rows=4096",
                  ns / static_cast<double>(table.num_rows()), 0.0, 1});
  }

  {
    auto table = data::GenerateCensus({.rows = 512, .seed = 4});
    auto encoder = encoding::TupleEncoder::Fit(table, {});
    nn::Matrix logits(512, encoder->encoded_dim());
    util::Rng rng(5);
    logits.RandomizeGaussian(rng, 2.0f);
    const encoding::DecodeOptions decode{
        encoding::DecodeStrategy::kWeightedRandom, 8};
    const double ns = bench::MeasureNsPerOp(
        [&] {
          auto t = encoder->DecodeLogits(logits, decode, rng);
          (void)t;
        },
        budget);
    reporter.Add({"decode_logits", "rows=512", ns / 512.0, 0.0, 1});
  }

  for (size_t rows : {10000u, 100000u}) {
    if (quick && rows > 10000) continue;
    auto table = data::GenerateCensus({.rows = rows, .seed = 6});
    data::WorkloadConfig cfg;
    cfg.num_queries = 1;
    cfg.seed = 11;
    auto workload = data::GenerateWorkload(table, cfg);
    const double ns = bench::MeasureNsPerOp(
        [&] {
          auto r = aqp::ExecuteExact(workload[0], table);
          (void)r;
        },
        budget);
    char shape[32];
    std::snprintf(shape, sizeof(shape), "rows=%zu", rows);
    reporter.Add({"exact_query", shape,
                  ns / static_cast<double>(rows), 0.0, 1});
  }

  {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 7});
    vae::VaeAqpOptions options;
    options.epochs = quick ? 2 : 4;
    auto model = vae::VaeAqpModel::Train(table, options);
    if (!model.ok()) return 1;
    util::Rng rng(8);
    const double ns = bench::MeasureNsPerOp(
        [&] {
          auto sample = (*model)->Generate(1000, vae::kTPlusInf, rng);
          (void)sample;
        },
        budget);
    reporter.Add({"vae_generate", "n=1000", ns / 1000.0, 0.0, 0});
  }

  for (size_t n : {64u, 128u, 256u}) {
    if (quick && n > 64) continue;
    util::Rng rng(9);
    std::vector<std::vector<double>> points(n, std::vector<double>(4));
    for (auto& p : points) {
      for (double& v : p) v = rng.Gaussian(0, 1);
    }
    auto dist = stats::EuclideanDistances(points);
    const double ns = bench::MeasureNsPerOp(
        [&] {
          auto mate = stats::MinWeightPerfectMatching(dist);
          (void)mate;
        },
        budget);
    char shape[32];
    std::snprintf(shape, sizeof(shape), "n=%zu", n);
    reporter.Add({"min_weight_matching", shape, ns, 0.0, 1});
  }

  reporter.Finish();
  return 0;
}
