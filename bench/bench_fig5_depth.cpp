// Fig. 5: relative error difference vs encoder/decoder depth (1, 2, 3).
// Expectation (paper): depth 2 is the sweet spot; 1 underfits slightly,
// 3 adds cost without consistent accuracy gains.
//
//   ./bench_fig5_depth [--rows 15000] [--epochs 12] [--queries 60]

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
    for (int depth : {1, 2, 3}) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.depth = depth;
      auto model = vae::VaeAqpModel::Train(table, options);
      if (!model.ok()) return 1;
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler((*model)->default_t()),
          opts);
      if (!red.ok()) return 1;
      char series[32];
      std::snprintf(series, sizeof(series), "depth=%d", depth);
      bench::PrintRedRow("Fig5", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
