// Quickstart: train a VAE AQP model on a small relation, generate synthetic
// samples, and answer aggregate queries client-side.
//
//   ./quickstart [--rows 10000] [--epochs 15] [--sample_frac 0.01]

#include <cstdio>

#include "aqp/estimator.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "nn/runtime.h"
#include "util/flags.h"
#include "util/timer.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 10000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 15));
  const double sample_frac = flags.GetDouble("sample_frac", 0.01);

  // 1. The "server side": a relation we want to explore.
  std::printf("Generating %zu taxi trips...\n", rows);
  relation::Table table = data::GenerateTaxi({.rows = rows, .seed = 7});

  // 2. Train the deep generative model (paper Sec. IV).
  vae::VaeAqpOptions options;
  options.epochs = epochs;
  std::printf("Training VAE (%d epochs)...\n", epochs);
  util::Stopwatch train_watch;
  auto model_or = vae::VaeAqpModel::Train(table, options);
  if (!model_or.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model_or.status().ToString().c_str());
    return 1;
  }
  auto model = std::move(model_or).value();
  std::printf("Trained in %.1fs; model size %.1f KB (data: %.1f KB)\n",
              train_watch.ElapsedSeconds(),
              model->ModelSizeBytes() / 1024.0,
              rows * 7 * sizeof(double) / 1024.0);

  // 3. The "client side": generate synthetic samples locally and answer
  //    queries with classic sample-based AQP.
  const auto sample_rows = static_cast<size_t>(sample_frac * rows);
  util::Rng rng(42);
  util::Stopwatch sample_watch;
  relation::Table sample = model->Generate(sample_rows, rng);
  std::printf("Generated %zu synthetic tuples in %.0f ms (T = %.2f)\n\n",
              sample.num_rows(), sample_watch.ElapsedMillis(),
              model->default_t());

  // A few exploration queries.
  const relation::Schema& schema = table.schema();
  std::vector<aqp::AggregateQuery> queries(3);
  queries[0].agg = aqp::AggFunc::kAvg;  // average fare overall
  queries[0].measure_attr = schema.IndexOf("fare");

  queries[1].agg = aqp::AggFunc::kCount;  // Manhattan pickups
  queries[1].filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("pickup_borough")),
       aqp::CmpOp::kEq, 0.0});

  queries[2].agg = aqp::AggFunc::kAvg;  // long-trip duration
  queries[2].measure_attr = schema.IndexOf("duration_min");
  queries[2].filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("trip_distance")),
       aqp::CmpOp::kGt, 5.0});

  std::printf("%-60s %12s %12s %8s\n", "query", "exact", "estimate",
              "rel.err");
  for (const auto& q : queries) {
    const double exact = aqp::ExecuteExact(q, table)->Scalar();
    auto est = aqp::EstimateFromSample(q, sample, table.num_rows());
    const double approx = est->Scalar();
    std::printf("%-60s %12.2f %12.2f %7.2f%%\n",
                q.ToString(schema).c_str(), exact, approx,
                100.0 * aqp::RelativeError(approx, exact));
  }
  return 0;
}
