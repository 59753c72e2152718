#include "encoding/tuple_encoder.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace deepaqp::encoding {
namespace {

using relation::AttrType;
using relation::Datum;
using relation::Schema;
using relation::Table;

Table SmallTable() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("color", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("value", AttrType::kNumeric).ok());
  Table t(s);
  t.DeclareCardinality(0, 3);
  for (int i = 0; i < 90; ++i) {
    t.AppendRow({Datum::Categorical(i % 3), Datum::Numeric(i)});
  }
  return t;
}

TEST(EncoderTest, OneHotWidths) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  // color: 3 slots; value: 4 bins one-hot = 4 slots.
  EXPECT_EQ(enc->encoded_dim(), 7u);
  EXPECT_EQ(enc->layout()[0].width, 3u);
  EXPECT_EQ(enc->layout()[1].width, 4u);
}

TEST(EncoderTest, BinaryWidthsAreLogarithmic) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 8;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  // color card 3 -> 2 bits; 8 bins -> 3 bits.
  EXPECT_EQ(enc->layout()[0].width, 2u);
  EXPECT_EQ(enc->layout()[1].width, 3u);
  EXPECT_EQ(enc->encoded_dim(), 5u);
}

TEST(EncoderTest, IntegerWidthIsOne) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kInteger;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->encoded_dim(), 2u);
}

TEST(EncoderTest, OneHotEncodeSetsExactlyOneSlotPerAttribute) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  for (size_t r = 0; r < m.rows(); ++r) {
    float cat_sum = 0, num_sum = 0;
    for (size_t c = 0; c < 3; ++c) cat_sum += m.At(r, c);
    for (size_t c = 3; c < 7; ++c) num_sum += m.At(r, c);
    EXPECT_EQ(cat_sum, 1.0f);
    EXPECT_EQ(num_sum, 1.0f);
  }
  // Row 5: color = 2 -> slot 2 set.
  EXPECT_EQ(m.At(5, 2), 1.0f);
}

TEST(EncoderTest, BinaryEncodeMatchesBitPattern) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  // Row 5: color = 2 -> bits LSB-first: 0, 1.
  EXPECT_EQ(m.At(5, 0), 0.0f);
  EXPECT_EQ(m.At(5, 1), 1.0f);
}

TEST(EncoderTest, DecodeBitsRoundTripsCleanEncodings) {
  Table t = SmallTable();
  for (EncodingKind kind :
       {EncodingKind::kOneHot, EncodingKind::kBinary,
        EncodingKind::kInteger}) {
    EncoderOptions opts;
    opts.kind = kind;
    opts.numeric_bins = 8;
    auto enc = TupleEncoder::Fit(t, opts);
    ASSERT_TRUE(enc.ok());
    auto m = enc->EncodeAll(t);
    for (size_t r = 0; r < 30; ++r) {
      auto codes = enc->DecodeBitsToCodes(m.Row(r));
      EXPECT_EQ(codes[0], t.CatCode(r, 0))
          << EncodingKindName(kind) << " row " << r;
    }
  }
}

TEST(EncoderTest, EquiDepthBinsBalanceCounts) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 3;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  // Values 0..89 split into 3 equi-depth bins -> 30 rows per bin.
  std::vector<int> counts(3, 0);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (int b = 0; b < 3; ++b) {
      if (m.At(r, 3 + b) == 1.0f) ++counts[b];
    }
  }
  for (int b = 0; b < 3; ++b) EXPECT_NEAR(counts[b], 30, 2);
}

TEST(EncoderTest, ConstantNumericColumnSurvives) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("k", AttrType::kNumeric).ok());
  Table t(s);
  for (int i = 0; i < 10; ++i) t.AppendRow({Datum::Numeric(7.0)});
  auto enc = TupleEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  util::Rng rng(1);
  auto decoded =
      enc->DecodeLogits(nn::Matrix(1, enc->encoded_dim(), 10.0f),
                        {DecodeStrategy::kMaxVote, 4}, rng);
  EXPECT_EQ(decoded.NumValue(0, 0), 7.0);
}

TEST(EncoderTest, RejectsEmptyTableAndBadBins) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", AttrType::kNumeric).ok());
  Table empty(s);
  EXPECT_FALSE(TupleEncoder::Fit(empty, {}).ok());
  Table t = SmallTable();
  EncoderOptions bad;
  bad.numeric_bins = 1;
  EXPECT_FALSE(TupleEncoder::Fit(t, bad).ok());
}

TEST(EncoderTest, DecodeLogitsWithConfidentLogitsRecoversTuple) {
  Table t = SmallTable();
  for (EncodingKind kind :
       {EncodingKind::kOneHot, EncodingKind::kBinary}) {
    EncoderOptions opts;
    opts.kind = kind;
    opts.numeric_bins = 4;
    auto enc = TupleEncoder::Fit(t, opts);
    ASSERT_TRUE(enc.ok());
    auto bits = enc->EncodeAll(t);
    // Map bits {0,1} to large-magnitude logits {-12, +12}.
    nn::Matrix logits(10, enc->encoded_dim());
    for (size_t r = 0; r < 10; ++r) {
      for (size_t c = 0; c < enc->encoded_dim(); ++c) {
        logits.At(r, c) = bits.At(r, c) > 0.5f ? 12.0f : -12.0f;
      }
    }
    util::Rng rng(3);
    auto decoded =
        enc->DecodeLogits(logits, {DecodeStrategy::kMaxVote, 8}, rng);
    ASSERT_EQ(decoded.num_rows(), 10u);
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ(decoded.CatCode(r, 0), t.CatCode(r, 0))
          << EncodingKindName(kind);
      // Numeric decodes into the right bin: within bin width of original.
      EXPECT_NEAR(decoded.NumValue(r, 1), t.NumValue(r, 1), 30.0);
    }
  }
}

TEST(EncoderTest, WeightedRandomDecodeProducesValidCodes) {
  Table t = SmallTable();
  auto enc = TupleEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  util::Rng rng(5);
  nn::Matrix logits(50, enc->encoded_dim());  // all-zero logits: p = 0.5
  auto decoded = enc->DecodeLogits(
      logits, {DecodeStrategy::kWeightedRandom, 8}, rng);
  for (size_t r = 0; r < decoded.num_rows(); ++r) {
    EXPECT_GE(decoded.CatCode(r, 0), 0);
    EXPECT_LT(decoded.CatCode(r, 0), 3);
  }
}

TEST(EncoderTest, NaiveDecodeClampsInvalidBinaryCodes) {
  // Cardinality 3 in 2 bits: pattern 11 (=3) is invalid and must clamp to 2.
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  util::Rng rng(7);
  // Strong logits forcing both bits of the categorical to 1.
  nn::Matrix logits(20, enc->encoded_dim(), 12.0f);
  auto decoded =
      enc->DecodeLogits(logits, {DecodeStrategy::kNaive, 1}, rng);
  for (size_t r = 0; r < decoded.num_rows(); ++r) {
    EXPECT_EQ(decoded.CatCode(r, 0), 2);
  }
}

/// Two categorical attributes (cardinality 11: four binary bits, so codes
/// 11..15 are invalid; cardinality 3) and one numeric attribute in 6 bins.
Table PinTable() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("color", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("kind", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("value", AttrType::kNumeric).ok());
  Table t(s);
  t.DeclareCardinality(0, 11);
  t.DeclareCardinality(1, 3);
  for (int i = 0; i < 132; ++i) {
    t.AppendRow({Datum::Categorical(i % 11), Datum::Categorical(i % 3),
                 Datum::Numeric(i)});
  }
  return t;
}

/// 8 rows of fixed logits in {-3.0, ..., +3.0}: every attribute is
/// uncertain, so votes differ between draws.
nn::Matrix PinLogits(size_t dim) {
  nn::Matrix logits(8, dim);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t i = 0; i < dim; ++i) {
      logits.At(r, i) =
          0.6f * static_cast<float>(static_cast<int>((r * 7 + i * 5) % 11) - 5);
    }
  }
  return logits;
}

/// Row-major codes of a decoded PinTable sample; the numeric attribute is
/// mapped back to its bin.
std::vector<int32_t> DecodedCodes(const TupleEncoder& enc, const Table& t) {
  std::vector<int32_t> codes;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    codes.push_back(t.CatCode(r, 0));
    codes.push_back(t.CatCode(r, 1));
    const std::vector<double>& e = enc.layout()[2].bin_edges;
    codes.push_back(static_cast<int32_t>(
        std::upper_bound(e.begin() + 1, e.end() - 1, t.NumValue(r, 2)) -
        (e.begin() + 1)));
  }
  return codes;
}

TEST(EncoderTest, DecodeMatchesPinnedCodes) {
  // Decodes of fixed logits and seed, pinned together with the rng's next
  // output (which pins the number of draws). kMaxVote keeps its rule: most
  // votes, ties to the smallest code. kWeightedRandom returns the vote at a
  // uniformly drawn index, so its codes depend only on the seed.
  struct Case {
    EncodingKind kind;
    DecodeStrategy strategy;
    std::vector<int32_t> codes;
    uint64_t next;
  };
  const std::vector<Case> cases = {
      {EncodingKind::kBinary, DecodeStrategy::kNaive,
       {10, 1, 4, 5, 2, 5, 10, 2, 5, 10, 1, 5,
        10, 2, 2, 2, 2, 5, 1, 0, 4, 10, 1, 5},
       0x5d2f781ccfd907a0ull},
      {EncodingKind::kBinary, DecodeStrategy::kMaxVote,
       {10, 1, 1, 3, 2, 2, 10, 2, 5, 5, 1, 5,
        10, 2, 2, 10, 0, 5, 5, 1, 1, 10, 2, 2},
       0x32a27dc745937188ull},
      {EncodingKind::kBinary, DecodeStrategy::kWeightedRandom,
       {10, 1, 0, 4, 0, 3, 10, 2, 5, 0, 1, 5,
        9, 1, 3, 2, 1, 1, 5, 1, 0, 10, 2, 3},
       0xde41649f3a3ed105ull},
      {EncodingKind::kOneHot, DecodeStrategy::kNaive,
       {8, 2, 1, 0, 0, 2, 10, 1, 0, 2, 2, 3,
        9, 2, 3, 1, 1, 5, 1, 0, 1, 9, 1, 0},
       0x6280e00bd1ec40a3ull},
      {EncodingKind::kOneHot, DecodeStrategy::kMaxVote,
       {4, 2, 1, 4, 0, 1, 8, 1, 5, 2, 0, 5,
        8, 0, 4, 6, 1, 0, 9, 2, 3, 3, 1, 0},
       0x429b9daa975118ffull},
      {EncodingKind::kOneHot, DecodeStrategy::kWeightedRandom,
       {3, 1, 5, 0, 0, 2, 4, 1, 5, 2, 0, 3,
        8, 2, 2, 10, 1, 0, 6, 2, 5, 5, 1, 2},
       0x302da11d5f8666d7ull},
  };
  for (const Case& c : cases) {
    EncoderOptions opts;
    opts.kind = c.kind;
    opts.numeric_bins = 6;
    auto enc = TupleEncoder::Fit(PinTable(), opts);
    ASSERT_TRUE(enc.ok());
    util::Rng rng(99);
    const Table decoded = enc->DecodeLogits(PinLogits(enc->encoded_dim()),
                                            {c.strategy, 8}, rng);
    const std::string what = std::string(EncodingKindName(c.kind)) +
                             " strategy " +
                             std::to_string(static_cast<int>(c.strategy));
    EXPECT_EQ(DecodedCodes(*enc, decoded), c.codes) << what;
    EXPECT_EQ(rng.NextUint64(), c.next) << what;
  }
}

TEST(EncoderTest, WeightedRandomFrequenciesMatchNaive) {
  // kWeightedRandom returns one of its 8 draws, chosen uniformly, so each
  // code keeps the probability of a single draw: its frequency over many
  // rows of the same logits matches kNaive's within binomial noise.
  EncoderOptions opts;
  opts.numeric_bins = 6;
  auto enc = TupleEncoder::Fit(PinTable(), opts);
  ASSERT_TRUE(enc.ok());
  const nn::Matrix pin = PinLogits(enc->encoded_dim());
  constexpr size_t kRows = 20000;
  nn::Matrix logits(kRows, enc->encoded_dim());
  for (size_t r = 0; r < kRows; ++r) {
    std::copy(pin.Row(3), pin.Row(3) + pin.cols(), logits.Row(r));
  }
  util::Rng naive_rng(11);
  util::Rng weighted_rng(12);
  const Table naive =
      enc->DecodeLogits(logits, {DecodeStrategy::kNaive, 1}, naive_rng);
  const Table weighted = enc->DecodeLogits(
      logits, {DecodeStrategy::kWeightedRandom, 8}, weighted_rng);
  const std::vector<int32_t> naive_codes = DecodedCodes(*enc, naive);
  const std::vector<int32_t> weighted_codes = DecodedCodes(*enc, weighted);
  for (size_t attr = 0; attr < 3; ++attr) {
    const int32_t card = enc->layout()[attr].cardinality;
    std::vector<double> fn(card, 0.0), fw(card, 0.0);
    for (size_t r = 0; r < kRows; ++r) {
      fn[naive_codes[3 * r + attr]] += 1.0 / kRows;
      fw[weighted_codes[3 * r + attr]] += 1.0 / kRows;
    }
    for (int32_t code = 0; code < card; ++code) {
      // Two independent binomial proportions: 5 standard errors of their
      // difference, with the variance floored so rare codes get slack too.
      const double p = std::max(0.5 * (fn[code] + fw[code]), 0.002);
      const double tolerance = 5.0 * std::sqrt(2.0 * p * (1.0 - p) / kRows);
      EXPECT_NEAR(fw[code], fn[code], tolerance)
          << "attribute " << attr << " code " << code;
    }
  }
}

TEST(EncoderTest, SerializeRoundTrip) {
  auto table = data::GenerateCensus({.rows = 500, .seed = 11});
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 16;
  auto enc = TupleEncoder::Fit(table, opts);
  ASSERT_TRUE(enc.ok());

  util::ByteWriter w;
  enc->Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = TupleEncoder::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->encoded_dim(), enc->encoded_dim());
  EXPECT_TRUE(back->schema() == enc->schema());

  auto m1 = enc->EncodeAll(table);
  auto m2 = back->EncodeAll(table);
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t i = 0; i < m1.size(); i += 13) {
    EXPECT_EQ(m1.data()[i], m2.data()[i]);
  }
}

TEST(EncoderTest, EncodedDimsMatchPaperFormulas) {
  auto table = data::GenerateCensus({.rows = 1000, .seed = 13});
  EncoderOptions one_hot{EncodingKind::kOneHot, 32};
  EncoderOptions binary{EncodingKind::kBinary, 32};
  auto e1 = TupleEncoder::Fit(table, one_hot);
  auto e2 = TupleEncoder::Fit(table, binary);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  // Binary is exponentially denser than one-hot (Sec. IV-E).
  EXPECT_LT(e2->encoded_dim(), e1->encoded_dim() / 2);
  size_t expect_one_hot = 0, expect_binary = 0;
  for (const auto& layout : e1->layout()) {
    expect_one_hot += layout.cardinality;
  }
  for (const auto& layout : e2->layout()) {
    size_t bits = 1;
    while ((1 << bits) < layout.cardinality) ++bits;
    expect_binary += bits;
  }
  EXPECT_EQ(e1->encoded_dim(), expect_one_hot);
  EXPECT_EQ(e2->encoded_dim(), expect_binary);
}

}  // namespace
}  // namespace deepaqp::encoding
