// Ablation: variational-rejection-sampling during *training* on vs off
// (Sec. IV-B / VI-A). With VRS the per-tuple thresholds T(x) keep only
// high-ratio posterior draws after warmup; without it training is plain
// ELBO. Reports RED (at the calibrated generation threshold in both cases)
// and the training-time overhead.
//
//   ./bench_ablation_vrs [--rows 15000] [--epochs 12] [--queries 100]

#include "bench_common.h"

#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 12));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const int trials = static_cast<int>(flags.GetInt("trials", 8));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    for (bool vrs : {false, true}) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.vrs_training = vrs;
      util::Stopwatch watch;
      auto model = vae::VaeAqpModel::Train(table, options);
      if (!model.ok()) return 1;
      const double train_seconds = watch.ElapsedSeconds();
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler((*model)->default_t()),
          opts);
      if (!red.ok()) return 1;
      char series[48];
      std::snprintf(series, sizeof(series), "vrs=%s (%.0fs)",
                    vrs ? "on" : "off", train_seconds);
      bench::PrintRedRow("AblVRS", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
