// Ablation: number of decoder output draws aggregated per tuple
// (Sec. IV-E). One draw is the naive decode; more draws smooth per-bit
// noise at linearly growing decode cost. Reports RED and per-1k-sample
// generation time.
//
//   ./bench_ablation_decoder_draws [--rows 15000] [--epochs 12]

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

  const std::string dataset = "census";
  relation::Table table = bench::MakeDataset(dataset, rows);
  auto workload = bench::MakeWorkload(table, queries);
  auto model =
      vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
  if (!model.ok()) return 1;

  for (int draws : {1, 2, 4, 8, 16, 32}) {
    (*model)->set_decode_options(
        {encoding::DecodeStrategy::kWeightedRandom, draws});
    util::Rng rng(3);
    util::Stopwatch watch;
    (*model)->Generate(1000, vae::kTPlusInf, rng);
    const double gen_ms = watch.ElapsedMillis();
    aqp::EvalOptions opts;
    opts.num_trials = trials;
    opts.sample_fraction = sample_frac;
    auto red = aqp::RelativeErrorDifferences(
        workload, table, (*model)->MakeSampler((*model)->default_t()),
        opts);
    if (!red.ok()) return 1;
    char series[48];
    std::snprintf(series, sizeof(series), "draws=%d (%.0fms/1k)", draws,
                  gen_ms);
    bench::PrintRedRow("AblDraw", dataset, series,
                       aqp::DistributionSummary::FromValues(*red));
  }
  return 0;
}
