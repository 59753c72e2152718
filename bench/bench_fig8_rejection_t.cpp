// Fig. 8: relative error difference vs rejection threshold T. The sweep is
// centered on the model's calibrated threshold t0 (the log-ratio scale is
// dataset-specific; the paper's "T = 0" corresponds to the calibrated
// operating point). Expectation (paper): RED decreases monotonically as T
// tightens from +inf toward -inf, at increasing sampling cost.
//
//   ./bench_fig8_rejection_t [--rows 15000] [--epochs 12] [--queries 60]

#include <cmath>

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
    auto model =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!model.ok()) return 1;
    const double t0 = (*model)->default_t();
    std::printf("Fig8     %-8s calibrated t0 = %.2f\n", dataset.c_str(),
                t0);

    const std::pair<const char*, double> sweeps[] = {
        {"T=-inf", vae::kTMinusInf},
        {"T=t0-10", t0 - 10.0},
        {"T=t0", t0},
        {"T=t0+10", t0 + 10.0},
        {"T=+inf", vae::kTPlusInf},
    };
    for (const auto& [name, t] : sweeps) {
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler(t), opts);
      if (!red.ok()) return 1;
      bench::PrintRedRow("Fig8", dataset, name,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
