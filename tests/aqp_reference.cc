#include "aqp_reference.h"

#include <algorithm>
#include <map>

#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "util/rng.h"

namespace deepaqp::aqp::reference {

namespace {

/// Folds the rows of `table` matching `query.filter` into `acc`, one row at
/// a time in ascending row order.
void FoldRows(const AggregateQuery& query, const relation::Table& table,
              std::map<int32_t, GroupMoments>* acc) {
  const bool group_by = query.IsGroupBy();
  const bool quantile = query.agg == AggFunc::kQuantile;
  const auto gattr = static_cast<size_t>(std::max(query.group_by_attr, 0));
  const auto mattr = static_cast<size_t>(std::max(query.measure_attr, 0));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!query.filter.Matches(table, r)) continue;
    const int32_t key = group_by ? table.CatCode(r, gattr) : -1;
    GroupMoments& g = (*acc)[key];
    g.group = key;
    const double x =
        query.agg == AggFunc::kCount ? 1.0 : table.NumValue(r, mattr);
    g.m.Add(x);
    if (quantile) g.values.push_back(x);
  }
}

std::vector<GroupMoments> ToVector(std::map<int32_t, GroupMoments> acc) {
  std::vector<GroupMoments> out;
  out.reserve(acc.size());
  for (auto& [key, g] : acc) out.push_back(std::move(g));
  return out;
}

}  // namespace

size_t CountMatches(const Predicate& pred, const relation::Table& table) {
  size_t hits = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (pred.Matches(table, r)) ++hits;
  }
  return hits;
}

std::vector<GroupMoments> AccumulateQuery(const AggregateQuery& query,
                                          const relation::Table& table) {
  std::map<int32_t, GroupMoments> acc;
  FoldRows(query, table, &acc);
  return ToVector(std::move(acc));
}

util::Result<QueryResult> ExecuteExact(const AggregateQuery& query,
                                       const relation::Table& table) {
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, table));
  return FinalizeExact(query, reference::AccumulateQuery(query, table));
}

double Selectivity(const AggregateQuery& query,
                   const relation::Table& table) {
  const size_t n = table.num_rows();
  if (n == 0) return 0.0;
  return static_cast<double>(reference::CountMatches(query.filter, table)) /
         static_cast<double>(n);
}

util::Result<QueryResult> EstimateFromSample(const AggregateQuery& query,
                                             const relation::Table& sample,
                                             size_t population_rows) {
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, sample));
  if (sample.num_rows() == 0) {
    return util::Status::FailedPrecondition("empty sample");
  }
  return FinalizeEstimate(query, reference::AccumulateQuery(query, sample),
                          sample.num_rows(), population_rows);
}

util::Result<QueryResult> BootstrapEstimate(const AggregateQuery& query,
                                            const relation::Table& sample,
                                            size_t population_rows,
                                            const BootstrapOptions& options) {
  if (options.resamples < 2 || options.confidence <= 0.0 ||
      options.confidence >= 1.0) {
    return util::Status::InvalidArgument("bad bootstrap options");
  }
  DEEPAQP_ASSIGN_OR_RETURN(
      QueryResult point,
      reference::EstimateFromSample(query, sample, population_rows));

  // Materialize every resample and run the full estimator on it.
  const size_t ns = sample.num_rows();
  std::map<int32_t, std::vector<double>> replicate_values;
  util::Rng rng(options.seed);
  std::vector<size_t> pick(ns);
  for (int b = 0; b < options.resamples; ++b) {
    for (size_t i = 0; i < ns; ++i) pick[i] = rng.NextIndex(ns);
    auto est = reference::EstimateFromSample(query, sample.Gather(pick),
                                             population_rows);
    if (!est.ok()) continue;
    for (const GroupValue& g : est->groups) {
      replicate_values[g.group].push_back(g.value);
    }
  }

  const double lo_q = (1.0 - options.confidence) / 2.0;
  const double hi_q = 1.0 - lo_q;
  for (GroupValue& g : point.groups) {
    auto it = replicate_values.find(g.group);
    if (it == replicate_values.end() || it->second.size() < 2) continue;
    const double lo = EmpiricalQuantile(it->second, lo_q);
    const double hi = EmpiricalQuantile(it->second, hi_q);
    g.ci_half_width = (hi - lo) / 2.0;
  }
  return point;
}

util::Result<QueryResult> OnlineEstimate(
    const AggregateQuery& query, const std::vector<relation::Table>& batches,
    size_t population_rows) {
  if (query.agg == AggFunc::kQuantile) {
    return util::Status::Unimplemented("online aggregation has no quantiles");
  }
  std::map<int32_t, GroupMoments> acc;
  size_t seen = 0;
  for (const relation::Table& batch : batches) {
    DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, batch));
    FoldRows(query, batch, &acc);
    seen += batch.num_rows();
  }
  if (seen == 0) {
    return util::Status::FailedPrecondition("no tuples consumed yet");
  }
  return FinalizeEstimate(query, ToVector(std::move(acc)), seen,
                          population_rows);
}

}  // namespace deepaqp::aqp::reference
