// Fig. 2: relative error difference vs sample size (0.5%, 1%, 5%).
// Expectation (paper): RED is small at every size — Census under ~1%,
// Flights a few % — and shrinks as the sample grows.
//
//   ./bench_fig2_sample_size [--rows 15000] [--epochs 12] [--queries 60]
//                            [--trials 5]

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

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    auto model =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!model.ok()) {
      std::fprintf(stderr, "train failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    auto sampler = (*model)->MakeSampler((*model)->default_t());
    for (double fraction : {0.005, 0.01, 0.05}) {
      aqp::EvalOptions opts;
      opts.sample_fraction = fraction;
      opts.num_trials = trials;
      auto red =
          aqp::RelativeErrorDifferences(workload, table, sampler, opts);
      if (!red.ok()) return 1;
      char series[32];
      std::snprintf(series, sizeof(series), "sample=%.1f%%",
                    100.0 * fraction);
      bench::PrintRedRow("Fig2", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
