// Fig. 13: sample-generation time vs sample count, per rejection threshold.
// Expectation (paper): stricter T costs more per sample (rejections);
// generation time is nearly flat in the sample count per batch (vectorized
// decoding), so time grows ~linearly with only a small slope until large
// counts.
//
//   ./bench_fig13_sampling_time [--rows 15000] [--epochs 10]
//                               [--max_samples 100000] [--json]
//                               [--kernel blocked|simd|auto]
//                               [--quant off|fp16|int8] [--quant_sweep]
//
// --json additionally writes BENCH_fig13.json with one uniform record per
// (kernel backend, quant mode, n, T) point: ns_per_op is sampling
// nanoseconds per generated tuple and samples_per_sec the corresponding
// throughput. Without --kernel the sweep runs once per fast GEMM backend
// available on this machine (blocked, plus simd when the CPU has the ISA),
// so the JSON records the per-backend sampling-throughput trajectory;
// --kernel pins a single backend. The model runs under the decoder
// quantization mode --quant or DEEPAQP_QUANT selected (off by default), so
// a plain run keeps its historical single-mode shape; --quant_sweep runs
// off, fp16 and int8 in turn.

#include <cmath>

#include "bench_common.h"

#include "nn/kernels.h"
#include "nn/kernels_quant.h"
#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::vector<nn::GemmKernelKind> backends;
  if (flags.Has("kernel")) {
    backends = {nn::ActiveGemmKernel()};
  } else {
    backends = {nn::GemmKernelKind::kBlocked};
    if (nn::SimdKernelAvailable()) {
      backends.push_back(nn::GemmKernelKind::kSimd);
    }
  }
  std::vector<nn::QuantMode> quant_modes = {nn::ActiveQuantMode()};
  if (flags.GetBool("quant_sweep", false)) {
    quant_modes = {nn::QuantMode::kOff, nn::QuantMode::kFp16,
                   nn::QuantMode::kInt8};
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const auto max_samples =
      static_cast<size_t>(flags.GetInt("max_samples", 100000));

  bench::BenchReporter reporter(flags, "fig13", /*print_rows=*/false);
  const std::string dataset = "census";
  relation::Table table = bench::MakeDataset(dataset, rows);
  auto model =
      vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
  if (!model.ok()) return 1;
  const double t0 = (*model)->default_t();

  const std::pair<const char*, double> sweeps[] = {
      {"T=-inf", vae::kTMinusInf},
      {"T=t0-10", t0 - 10.0},
      {"T=t0", t0},
      {"T=t0+10", t0 + 10.0},
      {"T=+inf", vae::kTPlusInf},
  };
  for (nn::GemmKernelKind kind : backends) {
    nn::SetGemmKernel(kind);
    const char* backend = nn::GemmKernelKindName(kind);
    for (nn::QuantMode quant : quant_modes) {
      // A machine where the mode's kernel self-check fails just skips the
      // mode (the sweep must degrade gracefully off-AVX2); preparation
      // failure would mean a silent fp32 measurement, so it also skips.
      if (const util::Status st = (*model)->PrepareQuantized(quant);
          !st.ok()) {
        std::fprintf(stderr, "skipping quant=%s: %s\n",
                     nn::QuantModeName(quant), st.ToString().c_str());
        continue;
      }
      for (size_t samples = 1000; samples <= max_samples; samples *= 10) {
        for (const auto& [name, t] : sweeps) {
          // T=-inf yields one accepted tuple per candidate window; cap the
          // count so the bench finishes (paper makes the same cost point).
          const size_t n = t == vae::kTMinusInf
                               ? std::min<size_t>(samples, 2000)
                               : samples;
          util::Rng rng(71);
          util::Stopwatch watch;
          relation::Table sample = (*model)->Generate(n, t, rng);
          const double seconds = watch.ElapsedSeconds();
          char series[96];
          if (quant == nn::QuantMode::kOff) {
            std::snprintf(series, sizeof(series), "n=%zu %s %s", n, name,
                          backend);
          } else {
            std::snprintf(series, sizeof(series), "n=%zu %s %s quant=%s", n,
                          name, backend, nn::QuantModeName(quant));
          }
          bench::PrintValueRow("Fig13", dataset, series, "sampling_seconds",
                               seconds);
          bench::BenchRecord record;
          record.name = "sampling_time";
          record.shape = series;
          record.ns_per_op = seconds * 1e9 / static_cast<double>(n);
          record.threads = 0;  // let the reporter stamp the pool size
          record.samples_per_sec =
              seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
          reporter.Add(std::move(record));
        }
      }
    }
  }
  reporter.Finish();
  return 0;
}
