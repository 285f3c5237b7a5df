#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace issr {
namespace {

/// Mean and sample standard deviation (n - 1 denominator) of `v`.
std::pair<double, double> mean_stddev(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  double m2 = 0.0;
  for (const double x : v) m2 += (x - mean) * (x - mean);
  return {mean, std::sqrt(m2 / static_cast<double>(v.size() - 1))};
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Xoshiro256 a2(42), c2(43);
  EXPECT_NE(a2(), c2());
}

TEST(Xoshiro, JumpDecorrelatesStreams) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 10));
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 10u);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.normal());
  const auto [mean, stddev] = mean_stddev(v);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(stddev, 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.normal(10.0, 3.0));
  const auto [mean, stddev] = mean_stddev(v);
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(stddev, 3.0, 0.1);
}

class DistinctSorted
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(DistinctSorted, ProducesSortedUniqueInRange) {
  const auto [count, universe] = GetParam();
  Rng rng(6 + count);
  const auto v = rng.distinct_sorted(count, universe);
  ASSERT_EQ(v.size(), count);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LT(v[i], universe);
    if (i > 0) {
      EXPECT_LT(v[i - 1], v[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DistinctSorted,
    ::testing::Values(std::pair{0u, 10u}, std::pair{1u, 1u},
                      std::pair{10u, 10u}, std::pair{5u, 100u},
                      std::pair{99u, 100u}, std::pair{500u, 4096u}));

// Reference copies of the plain rejection sampler, which computes its
// limit on every call, and of the Rng::distinct_sorted loop over it.
// Rng::uniform_int computes the limit only for draws that can need it;
// every generated workload depends on it still returning the same values
// from the same engine draws.
std::uint64_t reference_uniform_int(Xoshiro256& eng, std::uint64_t lo,
                                    std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;  // span == 0 means full 2^64 range
  if (span == 0) return eng();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ull) - ((~0ull) % span + 1) % span;
  std::uint64_t draw;
  do {
    draw = eng();
  } while (draw > limit);
  return lo + draw % span;
}

std::vector<std::uint32_t> reference_distinct_sorted(Xoshiro256& eng,
                                                     std::uint32_t count,
                                                     std::uint32_t universe) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  std::uint32_t remaining = count;
  for (std::uint32_t i = 0; i < universe && remaining > 0; ++i) {
    const std::uint32_t left = universe - i;
    if (reference_uniform_int(eng, 0, left - 1) < remaining) {
      out.push_back(i);
      --remaining;
    }
  }
  return out;
}

TEST(Rng, DistinctSortedMatchesReferenceDrawForDraw) {
  // (count, universe): empty, full, a universe of one, and the sparse and
  // dense shapes the matrix generators use.
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {0, 10},   {0, 1},    {1, 1},      {7, 7},      {1, 64},
      {5, 100},  {99, 100}, {51, 2048},  {300, 4096}, {2048, 2048}};
  int cases = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const auto& [count, universe] : shapes) {
      Rng rng(seed);
      Xoshiro256 ref(seed);
      ASSERT_EQ(rng.distinct_sorted(count, universe),
                reference_distinct_sorted(ref, count, universe))
          << "seed " << seed << " shape " << count << "/" << universe;
      ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed;
      ++cases;
    }
  }
  EXPECT_GE(cases, 2000);
}

TEST(Rng, UniformIntMatchesReferenceDrawForDraw) {
  constexpr std::uint64_t kMax = ~0ull;
  constexpr std::uint64_t k32 = 1ull << 32;
  constexpr std::uint64_t k63 = 1ull << 63;
  // (lo, hi) with spans hi - lo + 1 near 2^63 (where close to half of
  // all draws are rejected), of 1..3, near 2^32, 2^64 - 1 and the full
  // range.
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, k63},      {5, 5},       {0, 1},       {3, 5},
      {0, k32 - 2},  {0, k32 - 1}, {7, k32 + 7}, {0, k63 - 2},
      {0, k63 - 1},  {1, k63 + 1}, {0, kMax - 1}, {0, kMax}};
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    Xoshiro256 ref(seed);
    for (const auto& [lo, hi] : ranges) {
      for (int k = 0; k < 4; ++k) {
        const std::uint64_t want = reference_uniform_int(ref, lo, hi);
        ASSERT_EQ(rng.uniform_int(lo, hi), want)
            << "seed " << seed << " range [" << lo << ", " << hi << "]";
      }
    }
    ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed;
    // Coverage of the rejection loop: the first call's span 2^63 + 1
    // rejects every draw above 2^63.
    Xoshiro256 probe(seed);
    if (probe() > k63) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(7);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace issr
