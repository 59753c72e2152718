// Fig. 4: relative error difference vs latent dimension (25%, 50%, 100% of
// the encoded input dimension). Expectation (paper): accuracy improves up
// to ~50% and then flattens; 50% is the recommended operating point.
//
//   ./bench_fig4_latent_dim [--rows 15000] [--epochs 12] [--queries 60]

#include "bench_common.h"

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
    for (double fraction : {0.25, 0.5, 1.0}) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.latent_fraction = fraction;
      auto model = vae::VaeAqpModel::Train(table, options);
      if (!model.ok()) return 1;
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler((*model)->default_t()),
          opts);
      if (!red.ok()) return 1;
      char series[48];
      std::snprintf(series, sizeof(series), "latent=%.0f%% (d'=%zu)",
                    100.0 * fraction, (*model)->net().latent_dim());
      bench::PrintRedRow("Fig4", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
