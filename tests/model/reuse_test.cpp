// Unit tests for paxmodel's reuse-distance machinery: hand-computed Mattson
// traces against StackDistanceTracker, differential checks against a naive
// LRU recency stack (across the front/deep boundary, index growth and
// compaction, peeks included), KeyIndex, and the histogram's bucket math /
// geometry integration.
#include "model/reuse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace paxsim::model {
namespace {

constexpr std::uint64_t kCold = StackDistanceTracker::kCold;

TEST(StackDistanceTest, HandComputedMattsonTrace) {
  // Trace a b c a: the second a has seen 2 distinct other keys since the
  // first — stack distance 2.
  StackDistanceTracker t;
  EXPECT_EQ(t.access('a'), kCold);
  EXPECT_EQ(t.access('b'), kCold);
  EXPECT_EQ(t.access('c'), kCold);
  EXPECT_EQ(t.access('a'), 2u);
  EXPECT_EQ(t.distinct(), 3u);
}

TEST(StackDistanceTest, ImmediateReuseIsDistanceZero) {
  StackDistanceTracker t;
  EXPECT_EQ(t.access(7), kCold);
  EXPECT_EQ(t.access(7), 0u);
  EXPECT_EQ(t.access(7), 0u);
}

TEST(StackDistanceTest, AlternatingPairIsDistanceOne) {
  // a b a b a: after warmup every access skips exactly one other key.
  StackDistanceTracker t;
  EXPECT_EQ(t.access(1), kCold);
  EXPECT_EQ(t.access(2), kCold);
  EXPECT_EQ(t.access(1), 1u);
  EXPECT_EQ(t.access(2), 1u);
  EXPECT_EQ(t.access(1), 1u);
}

TEST(StackDistanceTest, RepeatedScanSeesFullWorkingSet) {
  // Scanning N keys cyclically: every non-cold access has distance N-1 —
  // the classic LRU worst case (hits only when capacity >= N).
  constexpr std::uint64_t n = 50;
  StackDistanceTracker t;
  for (std::uint64_t k = 0; k < n; ++k) EXPECT_EQ(t.access(k), kCold);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t k = 0; k < n; ++k) EXPECT_EQ(t.access(k), n - 1);
  }
}

TEST(StackDistanceTest, PeekDoesNotRecord) {
  StackDistanceTracker t;
  t.access(1);
  t.access(2);
  EXPECT_EQ(t.peek(1), 1u);
  EXPECT_EQ(t.peek(1), 1u);  // unchanged: peek must not touch the stack
  EXPECT_EQ(t.peek(99), kCold);
  EXPECT_EQ(t.access(1), 1u);
}

// Differential oracle: an explicit recency list.  The Mattson stack
// distance of an access is its key's position in most-recent-first order.
class NaiveStack {
 public:
  std::uint64_t access(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    std::uint64_t d = kCold;
    if (it != order_.end()) {
      d = static_cast<std::uint64_t>(it - order_.begin());
      order_.erase(it);
    }
    order_.insert(order_.begin(), key);
    return d;
  }

  [[nodiscard]] std::uint64_t peek(std::uint64_t key) const {
    const auto it = std::find(order_.begin(), order_.end(), key);
    return it == order_.end() ? kCold
                              : static_cast<std::uint64_t>(it - order_.begin());
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  std::vector<std::uint64_t> order_;
};

/// Deterministic xorshift64 stream.
struct XorShift {
  std::uint64_t x = 0x243f6a8885a308d3ull;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

TEST(StackDistanceTest, MatchesNaiveStackThroughCompaction) {
  // Long pseudo-random trace over a key space small enough that the
  // tracker's timestamp array must compact/renumber several times; every
  // distance must still match the explicit recency list.
  StackDistanceTracker t;
  NaiveStack naive;
  XorShift rng;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.next() % 257;
    ASSERT_EQ(t.access(key), naive.access(key)) << "at access " << i;
  }
  EXPECT_EQ(t.distinct(), 257u);
}

// Key spaces straddling the front: one short of it, exactly its size, one
// past it (a single key ever goes deep) and past twice its size.  Three
// patterns per space: uniform random, a cyclic scan (every distance is
// keys-1) and a skewed mix that keeps most reuses in the front.  Every
// access is preceded by a peek of a random key, which must agree too.
TEST(StackDistanceTest, MatchesNaiveStackAroundTheFront) {
  constexpr std::uint64_t f = StackDistanceTracker::kFront;
  for (const std::uint64_t keys : {f - 1, f, f + 1, 2 * f + 1}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      StackDistanceTracker t;
      NaiveStack naive;
      XorShift rng;
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t r = rng.next();
        std::uint64_t key = 0;
        switch (pattern) {
          case 0:
            key = r % keys;
            break;
          case 1:
            key = static_cast<std::uint64_t>(i) % keys;
            break;
          default:
            key = (r & 7) != 0 ? (r >> 8) % 4 : (r >> 8) % keys;
            break;
        }
        const std::uint64_t probe = (r >> 32) % (keys + 2);
        ASSERT_EQ(t.peek(probe), naive.peek(probe))
            << keys << " keys, pattern " << pattern << ", peek at " << i;
        ASSERT_EQ(t.access(key), naive.access(key))
            << keys << " keys, pattern " << pattern << ", access " << i;
      }
      EXPECT_EQ(t.distinct(), naive.size());
    }
  }
}

TEST(StackDistanceTest, MatchesNaiveStackThroughIndexGrowth) {
  // 6,000 distinct keys grow the index several times and the slot space
  // past its first capacity; the revisits then reach far into the deep
  // region and cross compactions.  Keys are spread over the 64-bit space
  // so the multiplicative hash sees more than small integers.
  StackDistanceTracker t;
  NaiveStack naive;
  XorShift rng;
  const auto spread = [](std::uint64_t k) {
    return k * 0xD6E8FEB86659FD93ull;
  };
  for (std::uint64_t k = 0; k < 6000; ++k) {
    ASSERT_EQ(t.access(spread(k)), kCold) << k;
    naive.access(spread(k));
  }
  EXPECT_EQ(t.distinct(), 6000u);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key =
        spread((r & 1) != 0 ? r % 6000 : (r >> 1) % 64);
    if ((r & 0x30) == 0) {
      const std::uint64_t probe = spread((r >> 20) % 6100);
      ASSERT_EQ(t.peek(probe), naive.peek(probe)) << "peek at " << i;
    }
    ASSERT_EQ(t.access(key), naive.access(key)) << "access " << i;
  }
  EXPECT_EQ(t.distinct(), 6000u);
}

TEST(StackDistanceTest, MatchesNaiveStackThroughRepeatedCompaction) {
  // A working set of 300 keys revisited 400 times: each pass frees every
  // slot it reuses, so the 1024-slot space fills with dead slots and is
  // renumbered over and over rather than grown.
  StackDistanceTracker t;
  NaiveStack naive;
  XorShift rng;
  for (int pass = 0; pass < 400; ++pass) {
    for (std::uint64_t k = 0; k < 300; ++k) {
      const auto shift = static_cast<std::uint64_t>(pass);
      const std::uint64_t key =
          (rng.next() & 3) == 0 ? k : (k * 7 + shift) % 300;
      ASSERT_EQ(t.access(key), naive.access(key))
          << "pass " << pass << ", key " << key;
    }
  }
  EXPECT_EQ(t.distinct(), 300u);
}

TEST(StackDistanceTest, PeekAcrossTheFrontBoundary) {
  // Keys 0..F touched in order: F sits on top, 1 is the front's last key,
  // and 0 was just pushed out of the front into the deep region.
  constexpr std::uint64_t f = StackDistanceTracker::kFront;
  StackDistanceTracker t;
  for (std::uint64_t k = 0; k <= f; ++k) t.access(k);
  EXPECT_EQ(t.peek(f), 0u);          // front key, on top
  EXPECT_EQ(t.peek(1), f - 1);       // front key, last place
  EXPECT_EQ(t.peek(0), f);           // the key just pushed out
  EXPECT_EQ(t.peek(f + 1), kCold);
  // Touching more keys pushes 0 deeper; its peek keeps counting them.
  for (std::uint64_t k = f + 1; k < 3 * f; ++k) t.access(k);
  EXPECT_EQ(t.peek(0), 3 * f - 1);   // deep key
  EXPECT_EQ(t.peek(1), 3 * f - 2);
  EXPECT_EQ(t.access(0), 3 * f - 1);
  EXPECT_EQ(t.peek(0), 0u);          // back on top of the front
  EXPECT_EQ(t.peek(1), 3 * f - 1);
}

TEST(KeyIndexTest, FindsEveryKeyAcrossGrowth) {
  // Positions move when the table grows; every stored value follows its
  // key, and an absent key is never found.
  KeyIndex index;
  EXPECT_EQ(index.find(0), KeyIndex::kNone);
  for (std::uint32_t v = 0; v < 5000; ++v) {
    const std::uint64_t key = std::uint64_t{v} * 4096;  // page-aligned keys
    const std::uint32_t pos = index.insert(key, v);
    EXPECT_EQ(index.value(pos), v);
  }
  EXPECT_EQ(index.size(), 5000u);
  EXPECT_GE(index.capacity(), 2 * index.size());
  for (std::uint32_t v = 0; v < 5000; ++v) {
    const std::uint32_t pos = index.find(std::uint64_t{v} * 4096);
    ASSERT_NE(pos, KeyIndex::kNone) << v;
    EXPECT_EQ(index.value(pos), v);
  }
  EXPECT_EQ(index.find(1), KeyIndex::kNone);
  EXPECT_EQ(index.find(5000ull * 4096), KeyIndex::kNone);
}

// ---------------------------------------------------------------------------
// ReuseHistogram.
// ---------------------------------------------------------------------------

TEST(ReuseHistogramTest, ExactBucketsBelowThreshold) {
  // Distances below kExact get singleton buckets: [d, d+1).
  for (std::uint64_t d = 0; d < ReuseHistogram::kExact; ++d) {
    const std::size_t i = ReuseHistogram::bucket_index(d);
    EXPECT_EQ(ReuseHistogram::bucket_lo(i), d);
    EXPECT_EQ(ReuseHistogram::bucket_hi(i), d + 1);
  }
}

TEST(ReuseHistogramTest, BucketBoundsContainDistance) {
  // Half-open [lo, hi) buckets above the exact range.
  for (const std::uint64_t d :
       {std::uint64_t{64}, std::uint64_t{100}, std::uint64_t{1023},
        std::uint64_t{4096}, std::uint64_t{1} << 30}) {
    const std::size_t i = ReuseHistogram::bucket_index(d);
    EXPECT_LE(ReuseHistogram::bucket_lo(i), d) << d;
    EXPECT_GT(ReuseHistogram::bucket_hi(i), d) << d;
  }
}

TEST(ReuseHistogramTest, CountsAndMerge) {
  ReuseHistogram h;
  h.add(3);
  h.add(3);
  h.add(100, 5);
  h.add_cold(2);
  EXPECT_EQ(h.finite(), 7u);
  EXPECT_EQ(h.cold(), 2u);
  EXPECT_EQ(h.total(), 9u);

  ReuseHistogram g;
  g.add(3);
  g.add_cold();
  g.merge(h);
  EXPECT_EQ(g.finite(), 8u);
  EXPECT_EQ(g.cold(), 3u);
}

TEST(ReuseHistogramTest, FractionBelowIsExactOnExactBuckets) {
  // Distances 0..9 once each, plus 10 cold accesses: fraction below 5 is
  // 5 hits out of 20 recorded accesses.
  ReuseHistogram h;
  for (std::uint64_t d = 0; d < 10; ++d) h.add(d);
  h.add_cold(10);
  EXPECT_DOUBLE_EQ(h.fraction_below(5.0), 5.0 / 20.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(10.0), 10.0 / 20.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
}

TEST(ReuseHistogramTest, HitProbabilityBoundsAndMonotonicity) {
  // Distance 0 always hits (no intervening lines); probability decays with
  // distance and vanishes far beyond capacity.
  EXPECT_DOUBLE_EQ(ReuseHistogram::hit_probability(0.0, 64, 8), 1.0);
  double prev = 1.0;
  for (const double d : {8.0, 64.0, 512.0, 4096.0, 65536.0}) {
    const double p = ReuseHistogram::hit_probability(d, 64, 8);
    EXPECT_LE(p, prev + 1e-12) << d;
    EXPECT_GE(p, 0.0) << d;
    prev = p;
  }
  EXPECT_LT(ReuseHistogram::hit_probability(1e7, 64, 8), 0.01);
}

TEST(ReuseHistogramTest, ExpectedHitsRespectsGeometry) {
  ReuseHistogram h;
  for (std::uint64_t d = 0; d < 32; ++d) h.add(d);
  h.add(100000, 8);  // hopeless capacity misses
  h.add_cold(4);

  // Never more hits than finite re-references; more ways never hurts.
  const double small = h.expected_hits(16, 1);
  const double medium = h.expected_hits(16, 4);
  const double large = h.expected_hits(16, 64);
  EXPECT_LE(small, medium);
  EXPECT_LE(medium, large);
  EXPECT_LE(large, static_cast<double>(h.finite()));
  // A cache far larger than every distance captures almost all short
  // reuses; the distance-1e5 tail stays missed.
  EXPECT_GT(large, 31.0);
  EXPECT_LT(large, 33.0 + 8.0 * 0.2);
}

TEST(ReuseHistogramTest, ColdOnlyHistogramNeverHits) {
  ReuseHistogram h;
  h.add_cold(100);
  EXPECT_DOUBLE_EQ(h.expected_hits(1024, 16), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(1e9), 0.0);
}

TEST(MissSplitTest, DecompositionSumsToTotal) {
  ReuseHistogram h;
  for (std::uint64_t d = 0; d < 64; ++d) h.add(d, 3);
  h.add(5000, 17);
  h.add_cold(11);
  const MissSplit s = miss_split(h, 16, 2);
  EXPECT_NEAR(s.hits + s.cold + s.capacity + s.conflict,
              static_cast<double>(h.total()), 1e-6);
  EXPECT_DOUBLE_EQ(s.cold, 11.0);
  EXPECT_GE(s.capacity, 17.0);  // distance 5000 >= 32 entries
  EXPECT_GE(s.conflict, 0.0);
}

}  // namespace
}  // namespace paxsim::model
