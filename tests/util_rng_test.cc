#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, StreamMatchesPinnedValues) {
  // Every seeded result in the library is a function of this stream, so
  // these first outputs for seed 2027 are pinned: a change to the generator
  // or to its seeding shows here before it silently shifts every seed.
  Rng u64(2027);
  EXPECT_EQ(u64.NextUint64(), 0x6b387595e136164full);
  EXPECT_EQ(u64.NextUint64(), 0xd3c32589f312c500ull);
  EXPECT_EQ(u64.NextUint64(), 0xe6c64566fbc47d3bull);
  EXPECT_EQ(u64.NextUint64(), 0xb5211bfbc51b8b31ull);

  Rng dbl(2027);
  EXPECT_EQ(dbl.NextDouble(), 0x1.ace1d65784d84p-2);
  EXPECT_EQ(dbl.NextDouble(), 0x1.a7864b13e6258p-1);
  EXPECT_EQ(dbl.NextDouble(), 0x1.cd8c8acdf788fp-1);

  Rng gauss(2027);
  EXPECT_EQ(gauss.NextGaussian(), 0x1.3af0f5b226751p-1);
  EXPECT_EQ(gauss.NextGaussian(), -0x1.2ac970acd4413p+0);
  EXPECT_EQ(gauss.NextGaussian(), -0x1.ebe4f069ced7dp-4);

  Rng index(2027);
  const std::vector<uint64_t> want_index = {7, 0, 3, 1, 4, 4, 7, 3,
                                            7, 1, 2, 6, 1, 3, 4, 7};
  for (size_t i = 0; i < want_index.size(); ++i) {
    EXPECT_EQ(index.NextIndex(8), want_index[i]) << "draw " << i;
  }

  Rng child = Rng::ChildStream(2027, 3);
  EXPECT_EQ(child.NextUint64(), 0xb7ae6e191bbecdeaull);
  EXPECT_EQ(child.NextUint64(), 0x4420d9523cd36b2dull);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(-3.0, 5.0);
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(RngTest, NextIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextIndex(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, PermutationIsBijective) {
  Rng rng(37);
  auto perm = rng.Permutation(100);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  auto s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(43);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(47);
  Rng child = parent.Fork();
  // Child stream should not simply replay the parent stream.
  Rng parent2(47);
  parent2.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextUint64() == parent.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ChildStreamSameSeedSameIndexIdentical) {
  Rng a = Rng::ChildStream(1234, 7);
  Rng b = Rng::ChildStream(1234, 7);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, ChildStreamDistinctIndicesDoNotOverlap) {
  // Streams for chunk indices 0..7 of one master seed must be pairwise
  // decorrelated: collect a window of outputs from each and require every
  // value to be globally unique (a replayed or shifted stream would
  // collide massively; u64 birthday collisions in 2048 draws are ~0).
  std::set<uint64_t> seen;
  const int kStreams = 8;
  const int kDraws = 256;
  for (int s = 0; s < kStreams; ++s) {
    Rng child = Rng::ChildStream(987654321, static_cast<uint64_t>(s));
    for (int i = 0; i < kDraws; ++i) seen.insert(child.NextUint64());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kStreams * kDraws));
}

TEST(RngTest, ChildStreamDistinctSeedsDiffer) {
  Rng a = Rng::ChildStream(1, 0);
  Rng b = Rng::ChildStream(2, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ChildStreamIndependentOfParentState) {
  // Deriving a child must not consume or depend on any Rng instance's
  // state: only (seed, index) matter, so a chunk's stream is reproducible
  // no matter how many sibling chunks were processed first.
  Rng parent(42);
  parent.NextUint64();
  Rng c1 = Rng::ChildStream(42, 3);
  for (int i = 0; i < 1000; ++i) parent.NextUint64();
  Rng c2 = Rng::ChildStream(42, 3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(c1.NextUint64(), c2.NextUint64());
  }
}

TEST(RngTest, ChildStreamDiffersFromMasterStream) {
  Rng master(77);
  Rng child = Rng::ChildStream(77, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (master.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  Rng rng(53);
  ZipfDistribution z(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 4 * 0.1);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(59);
  ZipfDistribution z(100, 1.2);
  std::vector<int> counts(100, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], n / 10);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(37, 0.8);
  double total = 0.0;
  for (uint64_t k = 0; k < 37; ++k) total += z.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(61);
  std::vector<double> w = {0.5, 2.0, 0.0, 1.5};
  AliasTable alias(w);
  std::vector<int> counts(4, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[alias.Sample(rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.125, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.5, 0.015);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.375, 0.015);
}

TEST(AliasTableTest, SingleElement) {
  Rng rng(67);
  AliasTable alias({3.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(alias.Sample(rng), 0u);
}

}  // namespace
}  // namespace deepaqp::util
