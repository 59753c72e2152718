// Fig. 6: relative error difference vs input encoding (one-hot, binary,
// integer). Expectation (paper): on Census (small domains) all encodings
// are comparable; on Flights (an attribute with thousands of values)
// one-hot degrades badly — too many parameters for the data — while binary
// stays accurate.
//
//   ./bench_fig6_input_encoding [--rows 15000] [--epochs 12] [--queries 60]

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
    for (encoding::EncodingKind kind :
         {encoding::EncodingKind::kOneHot, encoding::EncodingKind::kBinary,
          encoding::EncodingKind::kInteger}) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.encoder.kind = kind;
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
      char series[64];
      std::snprintf(series, sizeof(series), "%s d=%zu %.0fs %zuKB",
                    encoding::EncodingKindName(kind),
                    (*model)->tuple_encoder().encoded_dim(), train_seconds,
                    (*model)->ModelSizeBytes() / 1024);
      bench::PrintRedRow("Fig6", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
