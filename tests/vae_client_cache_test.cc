// Client query-cache correctness: pool growth via QueryWithMaxRelativeCi
// must evaluate only the newly generated suffix rows, yet return results
// byte-identical to a cold, cache-less replay of the same growth path
// through the row-at-a-time oracle (aqp_reference.h).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aqp_reference.h"
#include "data/generators.h"
#include "relation/table.h"
#include "util/rng.h"
#include "vae/client.h"

namespace deepaqp {
namespace {

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectBitIdentical(const aqp::QueryResult& a, const aqp::QueryResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << context;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].group, b.groups[i].group) << context;
    EXPECT_EQ(a.groups[i].support, b.groups[i].support) << context;
    EXPECT_EQ(Bits(a.groups[i].value), Bits(b.groups[i].value)) << context;
    EXPECT_EQ(Bits(a.groups[i].ci_half_width), Bits(b.groups[i].ci_half_width))
        << context;
  }
}

/// One small model, trained once and re-opened from bytes per client so
/// every client in this suite sees the identical generator.
const std::vector<uint8_t>& ModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = 77;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

/// A second model over the same schema (different training seed): swapping
/// to it must discard every cached artifact of the first.
const std::vector<uint8_t>& SwappedModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = 78;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

vae::AqpClient::Options ClientOptions() {
  vae::AqpClient::Options copts;
  copts.initial_samples = 400;
  copts.max_samples = 6400;
  copts.population_rows = 4000;
  copts.seed = 2027;
  return copts;
}

aqp::AggregateQuery FilteredAvg(const vae::AqpClient& client) {
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = client.pool().schema().IndexOf("fare");
  q.filter.conditions.push_back(
      {static_cast<size_t>(client.pool().schema().IndexOf("trip_distance")),
       aqp::CmpOp::kGt, 1.0});
  return q;
}

/// The growth path every refinement follows: the initial pool, then one
/// doubling per non-final step, all drawn in order from one rng stream
/// seeded with options.seed. Entry i is the pool refinement step i answers
/// on; the list stops at max_samples.
std::vector<relation::Table> GrowthPath(const vae::VaeAqpModel& model,
                                        const vae::AqpClient::Options& o) {
  util::Rng rng(o.seed);
  std::vector<relation::Table> path;
  path.push_back(model.Generate(o.initial_samples, model.default_t(), rng));
  while (path.back().num_rows() < o.max_samples) {
    relation::Table next = path.back();
    const size_t target = std::min(2 * next.num_rows(), o.max_samples);
    EXPECT_TRUE(next.Append(model.Generate(target - next.num_rows(),
                                           model.default_t(), rng))
                    .ok());
    path.push_back(std::move(next));
  }
  return path;
}

/// A cold, cache-less client replayed through the oracle: answers each pool
/// of the growth path with the row-at-a-time estimator and stops where
/// QueryRefineStep stops (every group's relative CI within the target, or
/// the pool at max_samples). Returns the final answer and its pool.
std::pair<aqp::QueryResult, size_t> ColdReferenceQuery(
    const std::vector<relation::Table>& path, const aqp::AggregateQuery& q,
    double max_relative_ci, size_t population_rows) {
  for (const relation::Table& pool : path) {
    auto est = aqp::reference::EstimateFromSample(q, pool, population_rows);
    EXPECT_TRUE(est.ok());
    bool tight = true;
    for (const auto& g : est->groups) {
      const double denom = std::abs(g.value);
      const double rel = denom > 0 ? g.ci_half_width / denom : g.ci_half_width;
      if (rel > max_relative_ci) tight = false;
    }
    if (tight || &pool == &path.back()) return {*est, pool.num_rows()};
  }
  return {};
}

TEST(ClientCacheTest, GrowthMatchesColdReferenceReplayBitForBit) {
  auto warm = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(warm.ok());
  aqp::AggregateQuery q = FilteredAvg(**warm);
  auto warm_result = (*warm)->QueryWithMaxRelativeCi(q, 0.03);
  ASSERT_TRUE(warm_result.ok());
  EXPECT_GT((*warm)->pool_size(), 400u);  // precision-on-demand grew

  // Cold replay: full row-at-a-time rescans of every pool, no cache at all.
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  const auto [cold_result, cold_pool] = ColdReferenceQuery(
      GrowthPath(**model, ClientOptions()), q, 0.03, 4000);

  EXPECT_EQ((*warm)->pool_size(), cold_pool);
  ExpectBitIdentical(*warm_result, cold_result, "growth query");

  // Suffix-only evaluation: across the whole doubling trajectory every pool
  // row went through the filter kernel and the aggregation pass exactly
  // once — a cache-less client would have rescanned each prefix per round.
  const auto& stats = (*warm)->cache_stats();
  EXPECT_EQ(stats.filter_entries, 1u);
  EXPECT_EQ(stats.agg_entries, 1u);
  EXPECT_EQ(stats.rows_filtered, (*warm)->pool_size());
  EXPECT_EQ(stats.rows_aggregated, (*warm)->pool_size());
}

TEST(ClientCacheTest, RepeatedQueryReevaluatesNothing) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  auto first = (*client)->Query(q);
  ASSERT_TRUE(first.ok());
  const uint64_t filtered = (*client)->cache_stats().rows_filtered;
  const uint64_t aggregated = (*client)->cache_stats().rows_aggregated;
  auto second = (*client)->Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*client)->cache_stats().rows_filtered, filtered);
  EXPECT_EQ((*client)->cache_stats().rows_aggregated, aggregated);
  ExpectBitIdentical(*first, *second, "repeat");
}

TEST(ClientCacheTest, PredicateBitmapSharedAcrossMeasures) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q1 = FilteredAvg(**client);
  aqp::AggregateQuery q2 = q1;
  q2.measure_attr = (*client)->pool().schema().IndexOf("duration_min");
  ASSERT_TRUE((*client)->Query(q1).ok());
  ASSERT_TRUE((*client)->Query(q2).ok());
  const auto& stats = (*client)->cache_stats();
  EXPECT_EQ(stats.filter_entries, 1u);  // one bitmap for both measures
  EXPECT_EQ(stats.agg_entries, 2u);
  EXPECT_EQ(stats.rows_filtered, (*client)->pool_size());
}

TEST(ClientCacheTest, QuantileLevelsShareAccumulation) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  q.agg = aqp::AggFunc::kQuantile;
  q.quantile = 0.5;
  auto median = (*client)->Query(q);
  ASSERT_TRUE(median.ok());
  q.quantile = 0.9;
  auto p90 = (*client)->Query(q);
  ASSERT_TRUE(p90.ok());
  EXPECT_EQ((*client)->cache_stats().agg_entries, 1u);

  // Both levels must agree with a cache-less row-at-a-time scan of the
  // same pool.
  q.quantile = 0.5;
  auto median_ref =
      aqp::reference::EstimateFromSample(q, (*client)->pool(), 4000);
  q.quantile = 0.9;
  auto p90_ref =
      aqp::reference::EstimateFromSample(q, (*client)->pool(), 4000);
  ASSERT_TRUE(median_ref.ok() && p90_ref.ok());
  ExpectBitIdentical(*median, *median_ref, "median");
  ExpectBitIdentical(*p90, *p90_ref, "p90");
}

TEST(ClientCacheTest, ModelSwapInvalidatesCacheAndMatchesFreshClient) {
  ASSERT_NE(ModelBytes(), SwappedModelBytes());  // genuinely different model

  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  ASSERT_TRUE((*client)->QueryWithMaxRelativeCi(q, 0.03).ok());
  EXPECT_GT((*client)->cache_stats().agg_entries, 0u);
  EXPECT_GT((*client)->pool_size(), 400u);

  // Hot swap: pool, bitmaps, group moments and the rng stream all reset —
  // nothing computed against the old generator may answer new queries.
  auto model_b = vae::VaeAqpModel::Deserialize(SwappedModelBytes());
  ASSERT_TRUE(model_b.ok());
  (*client)->SwapModel(std::move(*model_b));
  const auto& stats = (*client)->cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.filter_entries, 0u);
  EXPECT_EQ(stats.agg_entries, 0u);
  EXPECT_EQ((*client)->pool_size(), 400u);  // back to initial_samples

  // Post-swap behaviour is bit-identical to a client freshly opened on the
  // new model: the swap left no trace of the old one.
  auto swapped = (*client)->QueryWithMaxRelativeCi(q, 0.03);
  ASSERT_TRUE(swapped.ok());
  auto fresh = vae::AqpClient::Open(SwappedModelBytes(), ClientOptions());
  ASSERT_TRUE(fresh.ok());
  auto fresh_result = (*fresh)->QueryWithMaxRelativeCi(q, 0.03);
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ((*client)->pool_size(), (*fresh)->pool_size());
  ExpectBitIdentical(*swapped, *fresh_result, "post-swap growth");
}

TEST(ClientCacheTest, GroupByGrowthHandlesNewGroupCodes) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = (*client)->pool().schema().IndexOf("fare");
  q.group_by_attr = (*client)->pool().schema().IndexOf("pickup_borough");
  auto grown = (*client)->QueryWithMaxRelativeCi(q, 0.05);
  ASSERT_TRUE(grown.ok());

  auto reference =
      aqp::reference::EstimateFromSample(q, (*client)->pool(), 4000);
  ASSERT_TRUE(reference.ok());
  ExpectBitIdentical(*grown, *reference, "group-by growth");
}

TEST(ClientCacheTest, RefineStepAnswersBeforeGrowing) {
  auto model = vae::VaeAqpModel::Deserialize(ModelBytes());
  ASSERT_TRUE(model.ok());
  const std::vector<relation::Table> path = GrowthPath(**model, ClientOptions());
  ASSERT_EQ(path.size(), 5u);  // 400 .. 6400

  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  const aqp::AggregateQuery q = FilteredAvg(**client);
  // An unreachable target: every step below the cap is non-final.
  for (size_t i = 0; i < path.size(); ++i) {
    const size_t before = (*client)->pool_size();
    bool final = false;
    auto step = (*client)->QueryRefineStep(q, 1e-9, &final);
    ASSERT_TRUE(step.ok());
    // The step answered on the pool it found (the previous step's doubling
    // applied first) and left its own doubling pending.
    EXPECT_EQ((*client)->pool_size(), path[i].num_rows()) << "step " << i;
    EXPECT_EQ(before, i == 0 ? path[0].num_rows() : path[i - 1].num_rows());
    EXPECT_EQ(final, i + 1 == path.size());
    auto expect = aqp::reference::EstimateFromSample(q, path[i], 4000);
    ASSERT_TRUE(expect.ok());
    ExpectBitIdentical(*step, *expect, "step " + std::to_string(i));
  }

  // The one-shot loop walks the same path to the same bytes.
  auto fresh = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(fresh.ok());
  auto whole = (*fresh)->QueryWithMaxRelativeCi(q, 1e-9);
  ASSERT_TRUE(whole.ok());
  auto expect = aqp::reference::EstimateFromSample(q, path.back(), 4000);
  ASSERT_TRUE(expect.ok());
  ExpectBitIdentical(*whole, *expect, "QueryWithMaxRelativeCi");
  EXPECT_EQ((*fresh)->pool_size(), path.back().num_rows());
}

TEST(ClientCacheTest, ModelSwapDropsPendingGrowth) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  const aqp::AggregateQuery q = FilteredAvg(**client);
  bool final = true;
  ASSERT_TRUE((*client)->QueryRefineStep(q, 1e-9, &final).ok());
  ASSERT_FALSE(final);  // a doubling is pending

  auto model_b = vae::VaeAqpModel::Deserialize(SwappedModelBytes());
  ASSERT_TRUE(model_b.ok());
  (*client)->SwapModel(std::move(*model_b));
  auto swapped = (*client)->Query(q);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ((*client)->pool_size(), 400u);  // nothing grew on the new model

  auto fresh = vae::AqpClient::Open(SwappedModelBytes(), ClientOptions());
  ASSERT_TRUE(fresh.ok());
  auto fresh_result = (*fresh)->Query(q);
  ASSERT_TRUE(fresh_result.ok());
  ExpectBitIdentical(*swapped, *fresh_result, "post-swap query");
}

TEST(ClientCacheTest, CacheStaysWithinByteBudgetAndAnswersStayExact) {
  // QUANTILE entries keep every selected value: at 16k pool rows each holds
  // up to 128 KB, so 200 distinct predicates overflow the budget and force
  // evictions.
  vae::AqpClient::Options copts = ClientOptions();
  copts.initial_samples = 16000;
  copts.max_samples = 16000;
  auto client = vae::AqpClient::Open(ModelBytes(), copts);
  ASSERT_TRUE(client.ok());
  const relation::Table& pool = (*client)->pool();
  ASSERT_EQ(pool.num_rows(), 16000u);
  const auto query = [&](int i) {
    aqp::AggregateQuery q = FilteredAvg(**client);
    q.agg = aqp::AggFunc::kQuantile;
    q.quantile = 0.5;
    q.filter.conditions[0].value = -1.0 + 0.01 * i;
    return q;
  };
  const auto& stats = (*client)->cache_stats();
  const auto expect_exact = [&](int i, const std::string& context) {
    auto got = (*client)->Query(query(i));
    ASSERT_TRUE(got.ok());
    auto want = aqp::reference::EstimateFromSample(query(i), pool, 4000);
    ASSERT_TRUE(want.ok());
    ExpectBitIdentical(*got, *want, context + " " + std::to_string(i));
    EXPECT_LE(stats.bytes, vae::AqpClient::kQueryCacheBytes) << context << i;
  };
  int trims = 0;
  for (int i = 0; i < 200; ++i) {
    const uint64_t evictions = stats.evictions;
    expect_exact(i, "query");
    if (stats.evictions == evictions) continue;
    // Query i crossed the budget: only its own two entries survive. A
    // repeat folds no rows; query i - 1 is rebuilt from row 0, folding the
    // rows in the same order, so its answer keeps its bits.
    ++trims;
    ASSERT_GT(i, 0);
    EXPECT_EQ(stats.filter_entries, 1u) << i;
    EXPECT_EQ(stats.agg_entries, 1u) << i;
    const uint64_t aggregated = stats.rows_aggregated;
    expect_exact(i, "repeat");
    EXPECT_EQ(stats.rows_aggregated, aggregated) << i;
    expect_exact(i - 1, "rebuilt");
    EXPECT_EQ(stats.rows_aggregated, aggregated + pool.num_rows()) << i;
  }
  EXPECT_GT(trims, 0);
  EXPECT_EQ(stats.evictions + stats.agg_entries + stats.filter_entries,
            2u * (200 + trims));
}

}  // namespace
}  // namespace deepaqp
