#include <gtest/gtest.h>

#include "data/generators.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"
#include "vae/vae_model.h"

namespace deepaqp::vae {
namespace {

VaeAqpOptions FastOptions() {
  VaeAqpOptions opts;
  opts.epochs = 10;
  opts.hidden_dim = 48;
  opts.seed = 71;
  opts.encoder.numeric_bins = 16;
  return opts;
}

TEST(ConditionalGenerationTest, AllRowsSatisfyPredicate) {
  auto table = data::GenerateTaxi({.rows = 4000, .seed = 1});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  aqp::Predicate pred;
  pred.conditions.push_back({0, aqp::CmpOp::kEq, 0.0});  // Manhattan
  pred.conditions.push_back(
      {static_cast<size_t>(table.schema().IndexOf("trip_distance")),
       aqp::CmpOp::kLt, 5.0});
  util::Rng rng(2);
  auto sample = (*model)->GenerateWhereReport(200, pred, kTPlusInf, rng).rows;
  EXPECT_EQ(sample.num_rows(), 200u);
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    EXPECT_TRUE(pred.Matches(sample, r));
  }
}

TEST(ConditionalGenerationTest, EmptyPredicateIsPlainGeneration) {
  auto table = data::GenerateTaxi({.rows = 1000, .seed = 3});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  util::Rng rng(4);
  auto sample =
      (*model)->GenerateWhereReport(50, aqp::Predicate{}, kTPlusInf, rng).rows;
  EXPECT_EQ(sample.num_rows(), 50u);
}

TEST(ConditionalGenerationTest, ImpossiblePredicateHitsCandidateCap) {
  auto table = data::GenerateTaxi({.rows = 1000, .seed = 5});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  aqp::Predicate impossible;
  impossible.conditions.push_back(
      {static_cast<size_t>(table.schema().IndexOf("fare")),
       aqp::CmpOp::kGt, 1e12});
  util::Rng rng(6);
  auto result = (*model)->GenerateWhereReport(10, impossible, kTPlusInf, rng,
                                              /*max_candidates=*/4096);
  EXPECT_EQ(result.rows.num_rows(), 0u);
  EXPECT_EQ(result.requested, 10u);
  EXPECT_EQ(result.shortfall(), 10u);
  EXPECT_GE(result.candidates, 4096u);  // the budget was actually spent
}

TEST(EnsembleSerializationTest, RoundTripGenerates) {
  auto table = data::GenerateTaxi({.rows = 3000, .seed = 7});
  auto groups = ensemble::GroupByAttribute(table, 0, 0.02);
  ensemble::Partition partition;
  for (size_t g = 0; g < std::min<size_t>(3, groups.size()); ++g) {
    partition.parts.push_back({static_cast<int>(g)});
  }
  auto model =
      ensemble::EnsembleModel::Train(table, groups, partition,
                                     FastOptions());
  ASSERT_TRUE(model.ok());
  auto bytes = (*model)->Serialize();
  EXPECT_GT(bytes.size(), 1000u);

  auto back = ensemble::EnsembleModel::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->num_members(), (*model)->num_members());
  util::Rng r1(8), r2(8);
  auto s1 = (*model)->Generate(100, kTPlusInf, r1);
  auto s2 = (*back)->Generate(100, kTPlusInf, r2);
  ASSERT_EQ(s1.num_rows(), s2.num_rows());
  for (size_t r = 0; r < s1.num_rows(); ++r) {
    EXPECT_EQ(s1.CatCode(r, 0), s2.CatCode(r, 0));
  }
}

TEST(EnsembleSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(ensemble::EnsembleModel::Deserialize({1, 2, 3}).ok());
  util::ByteWriter w;
  w.WriteString("deepaqp-ensemble-v1");
  w.WriteU64(2);
  w.WriteF64Vector({1.0});  // weight count mismatch
  EXPECT_FALSE(ensemble::EnsembleModel::Deserialize(w.bytes()).ok());
}

}  // namespace
}  // namespace deepaqp::vae
