// Query-engine throughput tracking: the vectorized selection/aggregation
// engine vs the row-at-a-time oracle (tests/aqp_reference.h), on the exact
// operations the AQP layer runs per query — selectivity scans, exact
// filtered aggregates, GROUP BY estimates with CLT intervals, and bootstrap
// CIs over a 200k-row sample pool. The `*_scalar` rows time the oracle, the
// `*_vector` rows the engine. Doubles as the CI correctness gate: every
// timed case plus a generated verification workload runs through both, and
// the binary exits nonzero unless the engine's results are bit-identical to
// the oracle's.
//
//   ./bench_query_engine [--json] [--quick] [--rows N] [--resamples N]
//                        [--queries N] [--threads N]
//
// --json writes BENCH_query_engine.json (see bench_common.h); --quick
// shrinks rows/resamples and the per-measurement time budget for CI.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"

#include "aqp/bootstrap.h"
#include "aqp/estimator.h"
#include "aqp/executor.h"
#include "aqp_reference.h"

using namespace deepaqp;  // NOLINT: bench brevity

namespace {

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bit-level comparison of the oracle's result (`scalar`) with the
/// engine's (`vector`); prints the first divergence.
bool BitIdentical(const aqp::QueryResult& scalar,
                  const aqp::QueryResult& vector, const std::string& what) {
  if (scalar.groups.size() != vector.groups.size()) {
    std::fprintf(stderr, "DIVERGED %s: %zu vs %zu groups\n", what.c_str(),
                 scalar.groups.size(), vector.groups.size());
    return false;
  }
  for (size_t i = 0; i < scalar.groups.size(); ++i) {
    const aqp::GroupValue& s = scalar.groups[i];
    const aqp::GroupValue& v = vector.groups[i];
    if (s.group != v.group || s.support != v.support ||
        Bits(s.value) != Bits(v.value) ||
        Bits(s.ci_half_width) != Bits(v.ci_half_width)) {
      std::fprintf(stderr,
                   "DIVERGED %s group %d: value %.17g/%.17g ci %.17g/%.17g\n",
                   what.c_str(), s.group, s.value, v.value, s.ci_half_width,
                   v.ci_half_width);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = util::ApplyPinFlag(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  util::ApplyThreadsFlag(flags);
  const bool quick = flags.GetBool("quick", false);
  const size_t rows = static_cast<size_t>(
      flags.GetInt("rows", quick ? 60000 : 200000));
  const size_t resamples = static_cast<size_t>(
      flags.GetInt("resamples", quick ? 60 : 200));
  const size_t verify_queries =
      static_cast<size_t>(flags.GetInt("queries", 20));
  const double budget = quick ? 0.05 : 0.3;
  bench::BenchReporter reporter(flags, "query_engine");

  std::printf("query engine bench: census rows=%zu resamples=%zu\n", rows,
              resamples);
  const relation::Table table = bench::MakeDataset("census", rows, 5);
  const size_t population = rows * 10;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "rows=%zu", rows);

  // The paper's exploration staple: a filtered GROUP BY AVG.
  aqp::AggregateQuery avg_query;
  avg_query.agg = aqp::AggFunc::kAvg;
  avg_query.measure_attr = table.schema().IndexOf("hours_per_week");
  avg_query.group_by_attr = table.schema().IndexOf("education");
  avg_query.filter.conditions.push_back(
      {static_cast<size_t>(table.schema().IndexOf("age")), aqp::CmpOp::kGt,
       30.0});

  aqp::AggregateQuery sum_query = avg_query;
  sum_query.agg = aqp::AggFunc::kSum;
  sum_query.measure_attr = table.schema().IndexOf("capital_gain");

  aqp::AggregateQuery count_query;
  count_query.agg = aqp::AggFunc::kCount;
  count_query.filter = avg_query.filter;
  count_query.filter.conditions.push_back(
      {static_cast<size_t>(table.schema().IndexOf("sex")), aqp::CmpOp::kEq,
       0.0});

  bool ok = true;
  struct Case {
    const char* name;
    std::function<aqp::QueryResult()> scalar;  // the oracle
    std::function<aqp::QueryResult()> vector;  // the engine
  };
  aqp::BootstrapOptions bopts;
  bopts.resamples = resamples;
  bopts.seed = 99;
  const std::vector<Case> cases = {
      {"exact_count_filtered",
       [&] { return *aqp::reference::ExecuteExact(count_query, table); },
       [&] { return *aqp::ExecuteExact(count_query, table); }},
      {"exact_groupby_sum",
       [&] { return *aqp::reference::ExecuteExact(sum_query, table); },
       [&] { return *aqp::ExecuteExact(sum_query, table); }},
      {"estimate_groupby_avg",
       [&] {
         return *aqp::reference::EstimateFromSample(avg_query, table,
                                                    population);
       },
       [&] {
         return *aqp::EstimateFromSample(avg_query, table, population);
       }},
      {"bootstrap_groupby_avg",
       [&] {
         return *aqp::reference::BootstrapEstimate(avg_query, table,
                                                   population, bopts);
       },
       [&] {
         return *aqp::BootstrapEstimate(avg_query, table, population, bopts);
       }},
  };

  for (const Case& c : cases) {
    ok = BitIdentical(c.scalar(), c.vector(), c.name) && ok;

    const double ns_scalar = bench::MeasureNsPerOp([&] { c.scalar(); },
                                                   budget);
    reporter.Add({std::string(c.name) + "_scalar", shape, ns_scalar, 0.0, 1});
    const double ns_vector = bench::MeasureNsPerOp([&] { c.vector(); },
                                                   budget);
    reporter.Add({std::string(c.name) + "_vector", shape, ns_vector, 0.0, 1});
    std::printf("  -> %s speedup %.2fx\n", c.name, ns_scalar / ns_vector);
  }

  // Selectivity (the executor's shared selection kernel).
  {
    const double sel_scalar = aqp::reference::Selectivity(count_query, table);
    const double sel_vector = aqp::Selectivity(count_query, table);
    if (Bits(sel_scalar) != Bits(sel_vector)) {
      std::fprintf(stderr, "DIVERGED selectivity: %.17g vs %.17g\n",
                   sel_scalar, sel_vector);
      ok = false;
    }
    const double ns_scalar = bench::MeasureNsPerOp(
        [&] { aqp::reference::Selectivity(count_query, table); }, budget);
    reporter.Add({"selectivity_scalar", shape, ns_scalar, 0.0, 1});
    const double ns_vector = bench::MeasureNsPerOp(
        [&] { aqp::Selectivity(count_query, table); }, budget);
    reporter.Add({"selectivity_vector", shape, ns_vector, 0.0, 1});
    std::printf("  -> selectivity speedup %.2fx\n", ns_scalar / ns_vector);
  }

  // Built-in verification sweep: a generated workload (grouped, quantile,
  // multi-condition shapes) through exact, estimate, and bootstrap on the
  // engine and the oracle, compared bit-for-bit.
  {
    const relation::Table small =
        bench::MakeDataset("census", quick ? 3000 : 10000, 6);
    data::WorkloadConfig wc;
    wc.num_queries = verify_queries;
    wc.seed = 17;
    wc.group_by_prob = 0.5;
    wc.quantile_prob = 0.25;
    const auto workload = data::GenerateWorkload(small, wc);
    aqp::BootstrapOptions vb;
    vb.resamples = 25;
    vb.seed = 271;
    size_t verified = 0;
    for (size_t qi = 0; qi < workload.size(); ++qi) {
      const aqp::AggregateQuery& q = workload[qi];
      const std::string tag = "verify q" + std::to_string(qi);
      const size_t population_small = small.num_rows() * 10;
      ok = BitIdentical(*aqp::reference::ExecuteExact(q, small),
                        *aqp::ExecuteExact(q, small), tag + " exact") &&
           ok;
      ok = BitIdentical(
               *aqp::reference::EstimateFromSample(q, small, population_small),
               *aqp::EstimateFromSample(q, small, population_small),
               tag + " estimate") &&
           ok;
      ok = BitIdentical(*aqp::reference::BootstrapEstimate(
                            q, small, population_small, vb),
                        *aqp::BootstrapEstimate(q, small, population_small, vb),
                        tag + " bootstrap") &&
           ok;
      ++verified;
    }
    std::printf("verification sweep: %zu queries x 3 paths %s\n", verified,
                ok ? "bit-identical" : "DIVERGED");
  }

  reporter.Finish();
  if (!ok) {
    std::fprintf(stderr, "engine verification FAILED\n");
    return 1;
  }
  return 0;
}
