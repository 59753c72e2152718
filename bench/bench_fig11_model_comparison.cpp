// Fig. 11: relative error difference across model families at comparable
// model-size budgets: VAE, MSPN (with the paper's per-query-template
// advantage), GAN (WGAN), BN (Chow-Liu), DBEst, NeuralCubes, Histograms,
// Wavelets. Expectation (paper): VAE best; MSPN competitive only with its
// per-template advantage (and an order of magnitude slower to train); GAN
// mid-pack; BN worst of the generative trio under a size budget; DBEst/NC
// fine on templated queries but unable to serve ad-hoc ones;
// histogram/wavelet synopses suffer on correlated predicates.
//
//   ./bench_fig11_model_comparison [--rows 12000] [--epochs 12]
//                                  [--queries 50]

#include <map>
#include <memory>
#include <set>

#include "bench_common.h"

#include "baselines/bayes_net.h"
#include "baselines/dbest.h"
#include "baselines/gan.h"
#include "baselines/histogram.h"
#include "baselines/mspn.h"
#include "baselines/neural_cubes.h"
#include "baselines/wavelet.h"
#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = nn::ApplyRuntimeFlags(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 12000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 20));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 50));
  const int trials = static_cast<int>(flags.GetInt("trials", 5));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    aqp::EvalOptions opts;
    opts.num_trials = trials;
    opts.sample_fraction = sample_frac;

    auto report_sampler = [&](const char* name, aqp::SampleFn sampler,
                              double train_seconds, size_t size_bytes) {
      auto red =
          aqp::RelativeErrorDifferences(workload, table, sampler, opts);
      if (!red.ok()) return;
      char series[64];
      std::snprintf(series, sizeof(series), "%s (%.0fs, %zuKB)", name,
                    train_seconds, size_bytes / 1024);
      bench::PrintRedRow("Fig11", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    };
    auto report_direct = [&](const char* name, aqp::AnswerFn answer,
                             double train_seconds) {
      auto red = aqp::RelativeErrorDifferencesDirect(workload, table,
                                                     answer, opts);
      if (!red.ok()) return;
      char series[64];
      std::snprintf(series, sizeof(series), "%s (%.0fs)", name,
                    train_seconds);
      bench::PrintRedRow("Fig11", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    };

    // VAE — trained on the full relation, answers arbitrary queries.
    {
      util::Stopwatch watch;
      auto model =
          vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
      if (model.ok()) {
        report_sampler("VAE",
                       (*model)->MakeSampler((*model)->default_t()),
                       watch.ElapsedSeconds(), (*model)->ModelSizeBytes());
      }
    }
    // MSPN — given the paper's per-template advantage: one SPN per distinct
    // attribute template, trained on the projected relation.
    {
      util::Stopwatch watch;
      // Group queries by their attribute template.
      std::map<std::vector<size_t>, std::vector<size_t>> by_template;
      for (size_t qi = 0; qi < workload.size(); ++qi) {
        std::set<size_t> attrs;
        for (const auto& c : workload[qi].filter.conditions) {
          attrs.insert(c.attr);
        }
        if (workload[qi].IsGroupBy()) {
          attrs.insert(static_cast<size_t>(workload[qi].group_by_attr));
        }
        if (workload[qi].measure_attr >= 0) {
          attrs.insert(static_cast<size_t>(workload[qi].measure_attr));
        }
        if (attrs.empty()) attrs.insert(0);
        by_template[{attrs.begin(), attrs.end()}].push_back(qi);
      }
      // Train one MSPN per template on the projected table; evaluate each
      // query against its own model, then merge the per-query REDs.
      std::vector<double> red_all(workload.size(), 1.0);
      size_t size_bytes = 0;
      for (const auto& [attrs, query_ids] : by_template) {
        relation::Table projected = table.Project(attrs);
        auto mspn = baselines::MspnModel::Train(projected, {});
        if (!mspn.ok()) continue;
        size_bytes += (*mspn)->SizeBytes();
        // Remap query attribute indices into the projection.
        std::vector<aqp::AggregateQuery> remapped;
        for (size_t qi : query_ids) {
          aqp::AggregateQuery q = workload[qi];
          auto remap = [&attrs](int attr) {
            for (size_t i = 0; i < attrs.size(); ++i) {
              if (attrs[i] == static_cast<size_t>(attr)) {
                return static_cast<int>(i);
              }
            }
            return -1;
          };
          for (auto& c : q.filter.conditions) {
            c.attr = static_cast<size_t>(remap(static_cast<int>(c.attr)));
          }
          if (q.IsGroupBy()) q.group_by_attr = remap(q.group_by_attr);
          if (q.measure_attr >= 0) q.measure_attr = remap(q.measure_attr);
          remapped.push_back(std::move(q));
        }
        auto red = aqp::RelativeErrorDifferences(
            remapped, projected, (*mspn)->MakeSampler(), opts);
        if (!red.ok()) continue;
        for (size_t i = 0; i < query_ids.size(); ++i) {
          red_all[query_ids[i]] = (*red)[i];
        }
      }
      char series[64];
      std::snprintf(series, sizeof(series),
                    "MSPN/template (%.0fs, %zuKB)", watch.ElapsedSeconds(),
                    size_bytes / 1024);
      bench::PrintRedRow("Fig11", dataset, series,
                         aqp::DistributionSummary::FromValues(red_all));
    }
    // WGAN.
    {
      util::Stopwatch watch;
      baselines::WganModel::Options gan_options;
      gan_options.epochs = std::min(epochs, 12);
      auto model = baselines::WganModel::Train(table, gan_options);
      if (model.ok()) {
        report_sampler("GAN", (*model)->MakeSampler(),
                       watch.ElapsedSeconds(),
                       (*model)->GeneratorParameters() * sizeof(float));
      }
    }
    // Bayesian network.
    {
      util::Stopwatch watch;
      auto model = baselines::BayesNetModel::Train(table, {});
      if (model.ok()) {
        report_sampler("BN", (*model)->MakeSampler(),
                       watch.ElapsedSeconds(), (*model)->SizeBytes());
      }
    }
    // DBEst (per-template direct answering; trained on the workload's own
    // templates, the system's intended deployment).
    {
      util::Stopwatch watch;
      auto model = baselines::DbestModel::Build(table, workload, {});
      if (model.ok()) {
        report_direct("DBEst", (*model)->MakeAnswerer(),
                      watch.ElapsedSeconds());
      }
    }
    // NeuralCubes (trained on an in-distribution workload, evaluated on
    // the benchmark workload).
    {
      util::Stopwatch watch;
      auto train_workload = bench::MakeWorkload(table, 150, 991);
      baselines::NeuralCubesModel::Options nc_options;
      nc_options.epochs = 60;
      auto model = baselines::NeuralCubesModel::Train(
          table, train_workload, nc_options);
      if (model.ok()) {
        report_direct("NeuralCubes", (*model)->MakeAnswerer(),
                      watch.ElapsedSeconds());
      }
    }
    // Histogram synopsis.
    {
      util::Stopwatch watch;
      auto model = baselines::HistogramModel::Build(table, {});
      if (model.ok()) {
        report_sampler("Hist", model->MakeSampler(),
                       watch.ElapsedSeconds(), model->SizeBytes());
      }
    }
    // Wavelet synopsis.
    {
      util::Stopwatch watch;
      auto model = baselines::WaveletModel::Build(table, {});
      if (model.ok()) {
        report_sampler("Wavelets", model->MakeSampler(),
                       watch.ElapsedSeconds(), model->SizeBytes());
      }
    }
  }
  return 0;
}
