// Fig. 3: relative error difference vs query selectivity. Expectation
// (paper): RED vanishes for high-selectivity queries (0.1-1.0) and grows as
// selectivity drops below 0.01 — low-selectivity queries are hard for any
// sampling-based AQP.
//
//   ./bench_fig3_selectivity [--rows 15000] [--epochs 12] [--queries 150]
//                            [--trials 5]

#include "bench_common.h"

#include "aqp/executor.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 12));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 200));
  const int trials = static_cast<int>(flags.GetInt("trials", 8));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    data::WorkloadConfig wcfg;
    wcfg.num_queries = queries;
    wcfg.seed = 7;
    // Allow rarer predicates so the <0.01 bucket is populated.
    wcfg.min_selectivity = 0.0008;
    auto workload = data::GenerateWorkload(table, wcfg);

    auto model =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!model.ok()) return 1;
    aqp::EvalOptions opts;
    opts.num_trials = trials;
    opts.sample_fraction = sample_frac;
    auto red = aqp::RelativeErrorDifferences(
        workload, table, (*model)->MakeSampler((*model)->default_t()),
        opts);
    if (!red.ok()) return 1;

    auto buckets = data::BucketBySelectivity(workload, table);
    auto summarize = [&](const std::vector<size_t>& idx) {
      std::vector<double> values;
      for (size_t i : idx) values.push_back((*red)[i]);
      return aqp::DistributionSummary::FromValues(values);
    };
    bench::PrintRedRow("Fig3", dataset, "sel=0.1-1.0",
                       summarize(buckets.high));
    bench::PrintRedRow("Fig3", dataset, "sel=0.01-0.1",
                       summarize(buckets.mid));
    bench::PrintRedRow("Fig3", dataset, "sel=<0.01",
                       summarize(buckets.low));
    std::printf("         (bucket sizes: %zu / %zu / %zu)\n",
                buckets.high.size(), buckets.mid.size(),
                buckets.low.size());
  }
  return 0;
}
