#include "aqp/online.h"

#include <algorithm>
#include <cmath>

#include "aqp/engine.h"
#include "aqp/executor.h"

namespace deepaqp::aqp {

OnlineAggregator::OnlineAggregator(AggregateQuery query,
                                   size_t population_rows)
    : query_(std::move(query)), population_rows_(population_rows) {}

util::Status OnlineAggregator::AddBatch(const relation::Table& batch) {
  if (query_.agg == AggFunc::kQuantile) {
    return util::Status::Unimplemented(
        "online aggregation maintains moments only; no quantiles");
  }
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query_, batch));
  const bool group_by = query_.IsGroupBy();
  const auto gattr = static_cast<size_t>(std::max(query_.group_by_attr, 0));
  const auto mattr = static_cast<size_t>(std::max(query_.measure_attr, 0));
  const size_t n = batch.num_rows();

  // Filter the whole batch with the selection kernel, then merge only the
  // matched rows, in ascending row order.
  SelectionVector sel;
  EvalPredicate(query_.filter, batch, 0, n, &sel);
  const int32_t* codes = group_by ? batch.CatColumn(gattr).data() : nullptr;
  const double* meas =
      query_.agg == AggFunc::kCount ? nullptr : batch.NumColumn(mattr).data();
  tuples_seen_ += n;
  for (size_t r = 0; r < n; ++r) {
    if (!sel.Test(r)) continue;
    const int32_t key = group_by ? codes[r] : -1;
    groups_[key].Add(meas == nullptr ? 1.0 : meas[r]);
  }
  return util::Status::OK();
}

util::Result<QueryResult> OnlineAggregator::Current() const {
  if (tuples_seen_ == 0) {
    return util::Status::FailedPrecondition("no tuples consumed yet");
  }
  std::vector<GroupMoments> groups;
  groups.reserve(groups_.size());
  for (const auto& [key, m] : groups_) groups.push_back({key, m, {}});
  return FinalizeEstimate(query_, std::move(groups), tuples_seen_,
                          population_rows_);
}

bool OnlineAggregator::Converged(double target_relative_ci) const {
  auto current = Current();
  if (!current.ok() || current->groups.empty()) return false;
  for (const GroupValue& g : current->groups) {
    const double denom = std::abs(g.value);
    const double rel =
        denom > 0 ? g.ci_half_width / denom : g.ci_half_width;
    if (rel > target_relative_ci) return false;
  }
  return true;
}

}  // namespace deepaqp::aqp
