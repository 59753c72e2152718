// Fig. 7: relative error difference vs output decoding strategy. The
// "naive" strategy draws one stochastic tuple per latent sample (invalid
// codes clamped); the aggregated strategies draw several and combine
// per-attribute (max vote / weighted random). Expectation (paper):
// aggregated decoding clearly lowers RED versus naive decoding.
//
//   ./bench_fig7_output_decoding [--rows 15000] [--epochs 12]
//                                [--queries 60]

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

  struct Entry {
    const char* name;
    encoding::DecodeOptions decode;
  };
  const Entry entries[] = {
      {"naive", {encoding::DecodeStrategy::kNaive, 1}},
      {"max-vote x8", {encoding::DecodeStrategy::kMaxVote, 8}},
      {"weighted x8", {encoding::DecodeStrategy::kWeightedRandom, 8}},
  };

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    // Decoding is a generation-time knob: train once, sweep decoders.
    auto model =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!model.ok()) return 1;
    for (const Entry& entry : entries) {
      (*model)->set_decode_options(entry.decode);
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler((*model)->default_t()),
          opts);
      if (!red.ok()) return 1;
      bench::PrintRedRow("Fig7", dataset, entry.name,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
