// Row-at-a-time oracle for the vectorized query engine (aqp/engine.h).
//
// Each function evaluates a query the simplest way: Predicate::Matches per
// row, a std::map fold of the per-group moments, and bootstrap resamples
// materialized with Table::Gather. Results go through the production
// FinalizeExact / FinalizeEstimate, so comparing the engine against this
// code checks the filter kernels and the accumulation order bit for bit.
// Tests and bench_query_engine link it; nothing under src/ does.

#ifndef DEEPAQP_TESTS_AQP_REFERENCE_H_
#define DEEPAQP_TESTS_AQP_REFERENCE_H_

#include <cstddef>
#include <vector>

#include "aqp/bootstrap.h"
#include "aqp/engine.h"
#include "aqp/query.h"
#include "relation/table.h"
#include "util/status.h"

namespace deepaqp::aqp::reference {

/// Rows of `table` matching `pred`, one Predicate::Matches call per row.
size_t CountMatches(const Predicate& pred, const relation::Table& table);

/// Per-group moments of `query` over `table`, folded row by row into a
/// std::map keyed by group code. The caller validates the query first.
std::vector<GroupMoments> AccumulateQuery(const AggregateQuery& query,
                                          const relation::Table& table);

/// Oracles of the aqp/executor.h, aqp/estimator.h and aqp/bootstrap.h
/// entry points of the same names.
util::Result<QueryResult> ExecuteExact(const AggregateQuery& query,
                                       const relation::Table& table);
double Selectivity(const AggregateQuery& query, const relation::Table& table);
util::Result<QueryResult> EstimateFromSample(const AggregateQuery& query,
                                             const relation::Table& sample,
                                             size_t population_rows);
util::Result<QueryResult> BootstrapEstimate(const AggregateQuery& query,
                                            const relation::Table& sample,
                                            size_t population_rows,
                                            const BootstrapOptions& options);

/// Oracle of OnlineAggregator: folds every row of every batch, in order,
/// into running moments and returns the estimate after the last batch.
util::Result<QueryResult> OnlineEstimate(
    const AggregateQuery& query, const std::vector<relation::Table>& batches,
    size_t population_rows);

}  // namespace deepaqp::aqp::reference

#endif  // DEEPAQP_TESTS_AQP_REFERENCE_H_
