// Unit tests for the set-associative cache model: hits/misses, true-LRU
// replacement, writeback dirtiness, MESI-lite state transitions, the
// prefetched-line credit, in-flight fill timestamps, and geometry
// properties swept over several configurations.
#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

namespace paxsim::sim {
namespace {

CacheGeometry small_geom() { return CacheGeometry{1024, 64, 2}; }  // 8 sets

TEST(CacheTest, MissThenHit) {
  SetAssocCache c(small_geom());
  EXPECT_FALSE(c.probe(0x1000, false).hit);
  c.fill(0x1000, LineState::kExclusive, false);
  EXPECT_TRUE(c.probe(0x1000, false).hit);
  EXPECT_TRUE(c.probe(0x103F, false).hit) << "same line, different offset";
  EXPECT_FALSE(c.probe(0x1040, false).hit) << "next line";
}

TEST(CacheTest, LineAlignment) {
  SetAssocCache c(small_geom());
  EXPECT_EQ(c.line_of(0x1000), 0x1000u);
  EXPECT_EQ(c.line_of(0x103F), 0x1000u);
  EXPECT_EQ(c.line_of(0x1040), 0x1040u);
}

TEST(CacheTest, LruEvictsOldest) {
  SetAssocCache c(small_geom());  // 2 ways per set
  // Three lines mapping to the same set (stride = sets * line = 512).
  const Addr a = 0x0000, b = 0x0200, d = 0x0400;
  c.fill(a, LineState::kExclusive, false);
  c.fill(b, LineState::kExclusive, false);
  c.probe(a, false);  // refresh a; b is now LRU
  const auto ev = c.fill(d, LineState::kExclusive, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, b);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(CacheTest, DirtyEvictionReported) {
  SetAssocCache c(small_geom());
  c.fill(0x0000, LineState::kModified, false);
  c.fill(0x0200, LineState::kExclusive, false);
  const auto ev = c.fill(0x0400, LineState::kExclusive, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0x0000u);
  EXPECT_TRUE(ev->dirty);
}

TEST(CacheTest, CleanEvictionNotDirty) {
  SetAssocCache c(small_geom());
  c.fill(0x0000, LineState::kExclusive, false);
  c.fill(0x0200, LineState::kExclusive, false);
  const auto ev = c.fill(0x0400, LineState::kExclusive, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->dirty);
}

TEST(CacheTest, StoreHitUpgradesToModified) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kExclusive, false);
  c.probe(0x1000, /*is_store=*/true);
  EXPECT_EQ(c.state_of(0x1000), LineState::kModified);
}

TEST(CacheTest, StoreToSharedNeedsUpgrade) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kShared, false);
  // A store probe must NOT silently modify a shared line; its result reports
  // the Shared state so the owner knows to upgrade.
  EXPECT_EQ(c.probe(0x1000, /*is_store=*/true).state, LineState::kShared);
  EXPECT_EQ(c.state_of(0x1000), LineState::kShared);
  c.upgrade_to_modified(0x1000);
  EXPECT_EQ(c.state_of(0x1000), LineState::kModified);
  EXPECT_EQ(c.probe(0x1000, /*is_store=*/true).state, LineState::kModified);
}

TEST(CacheTest, InvalidateReturnsDirtiness) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kModified, false);
  EXPECT_TRUE(c.invalidate(0x1000));
  EXPECT_FALSE(c.contains(0x1000));
  c.fill(0x2000, LineState::kShared, false);
  EXPECT_FALSE(c.invalidate(0x2000));
  EXPECT_FALSE(c.invalidate(0x3000)) << "absent line";
}

TEST(CacheTest, DowngradeToShared) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kModified, false);
  EXPECT_TRUE(c.downgrade_to_shared(0x1000)) << "dirty copy writes back";
  EXPECT_EQ(c.state_of(0x1000), LineState::kShared);
  EXPECT_FALSE(c.downgrade_to_shared(0x1000)) << "already clean";
}

TEST(CacheTest, PrefetchedCreditConsumedOnce) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kExclusive, /*prefetched=*/true);
  const ProbeResult first = c.probe(0x1000, false);
  EXPECT_TRUE(first.hit);
  EXPECT_TRUE(first.prefetched);
  const ProbeResult second = c.probe(0x1000, false);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.prefetched) << "credit is one-shot";
}

TEST(CacheTest, ReadyAtVisibleOnHit) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kExclusive, true, /*ready_at=*/500.0);
  EXPECT_DOUBLE_EQ(c.probe(0x1000, false).ready_at, 500.0);
}

TEST(CacheTest, RefillUpdatesStateInPlace) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kShared, false);
  const auto ev = c.fill(0x1000, LineState::kModified, false);
  EXPECT_FALSE(ev.has_value()) << "re-fill of resident line evicts nothing";
  EXPECT_EQ(c.state_of(0x1000), LineState::kModified);
  EXPECT_EQ(c.resident_lines(), 1u);
}

TEST(CacheTest, ResetDropsEverything) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kModified, false);
  c.reset();
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.contains(0x1000));
}

// ---------------------------------------------------------------------------
// Fast-path support: the MRU way hint, LineRef handles, and the
// fast_check / fast_commit replay of probe()'s hit effects.
// ---------------------------------------------------------------------------

TEST(CacheTest, DirectMappedEvictsThroughMruHint) {
  SetAssocCache c(CacheGeometry{1024, 64, 1});  // 16 sets, 1 way
  const Addr a = 0x0000, b = 0x0400;            // conflict: stride sets*line
  c.fill(a, LineState::kExclusive, false);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.probe(a, false).hit);
  const auto ev = c.fill(b, LineState::kExclusive, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, a);
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.probe(b, false).hit) << "MRU hint must track the new tenant";
}

TEST(CacheTest, ReadyAtPreservedAcrossHits) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kExclusive, false, /*ready_at=*/500.0);
  EXPECT_DOUBLE_EQ(c.probe(0x1000, false).ready_at, 500.0);
  EXPECT_DOUBLE_EQ(c.probe(0x1000, false).ready_at, 500.0)
      << "a second (MRU-hint) hit must still see the in-flight timestamp";
  EXPECT_FALSE(c.fast_check(c.last_ref(), 0x1000))
      << "in-flight lines are slow-path only (ready_at must be charged)";
}

TEST(CacheTest, ResetInvalidatesFastPathHandles) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kExclusive, false);
  c.probe(0x1000, false);
  const SetAssocCache::LineRef ref = c.last_ref();
  ASSERT_TRUE(c.fast_check(ref, 0x1000));
  c.reset();
  EXPECT_FALSE(c.fast_check(ref, 0x1000))
      << "a handle left stale by reset() must fail revalidation";
  EXPECT_FALSE(c.fast_check(c.last_ref(), 0x1000))
      << "reset() clears the last-hit handle";
  EXPECT_FALSE(c.probe(0x1000, false).hit);
}

TEST(CacheTest, FastCheckRejectsUnsafeStates) {
  SetAssocCache c(small_geom());
  c.fill(0x1000, LineState::kShared, false);
  c.probe(0x1000, false);
  const SetAssocCache::LineRef ref = c.last_ref();
  EXPECT_TRUE(c.fast_check(ref, 0x1000)) << "a load of a Shared line is safe";
  EXPECT_FALSE(c.fast_check(ref, 0x1000, /*is_store=*/true))
      << "a store to a Shared line needs the slow path's remote upgrade";
  EXPECT_FALSE(c.fast_check(ref, 0x1040)) << "different line, same handle";
  c.fill(0x2000, LineState::kExclusive, /*prefetched=*/true);
  EXPECT_FALSE(c.fast_check(c.last_ref(), 0x2000))
      << "the prefetch credit must be consumed by the slow path";
  c.invalidate(0x1000);
  EXPECT_FALSE(c.fast_check(ref, 0x1000)) << "invalidation strands the handle";
}

TEST(CacheTest, FastCommitReplaysProbeEffects) {
  // The same access sequence through two caches, one using probe() for the
  // repeated touch and one using fast_commit(); the LRU decision and the
  // line states must come out identical.
  SetAssocCache ref_cache(small_geom());
  SetAssocCache fast_cache(small_geom());
  const Addr a = 0x0000, b = 0x0200, d = 0x0400;  // same set, 2 ways
  for (SetAssocCache* c : {&ref_cache, &fast_cache}) {
    c->fill(a, LineState::kExclusive, false);
    c->fill(b, LineState::kExclusive, false);
    c->probe(a, false);  // registers the handle
  }
  ref_cache.probe(a, /*is_store=*/true);
  const SetAssocCache::LineRef ref = fast_cache.last_ref();
  ASSERT_TRUE(fast_cache.fast_check(ref, a, /*is_store=*/true));
  fast_cache.fast_commit(ref, /*is_store=*/true);
  EXPECT_EQ(fast_cache.state_of(a), ref_cache.state_of(a));
  EXPECT_EQ(fast_cache.state_of(a), LineState::kModified);
  // The replayed LRU tick refreshed `a` identically: b is the victim in both.
  const auto ev_ref = ref_cache.fill(d, LineState::kExclusive, false);
  const auto ev_fast = fast_cache.fill(d, LineState::kExclusive, false);
  ASSERT_TRUE(ev_ref.has_value());
  ASSERT_TRUE(ev_fast.has_value());
  EXPECT_EQ(ev_ref->line_addr, b);
  EXPECT_EQ(ev_fast->line_addr, ev_ref->line_addr);
}

// ---------------------------------------------------------------------------
// Packed keys: the reset epoch shares a 64-bit key with the tag, so the epoch
// field wraps and the tag field bounds the address range.
// ---------------------------------------------------------------------------

TEST(CacheTest, ResetPastEpochWrapForgetsEveryLine) {
  SetAssocCache c(small_geom());
  const Addr a = 0x1000, b = 0x1040;  // different sets: b cannot reuse a's way
  c.fill(a, LineState::kModified, false);
  const SetAssocCache::LineRef ref_a = c.last_ref();
  ASSERT_TRUE(c.fast_check(ref_a, a));
  // One full epoch cycle brings the epoch back to the value `a` was filled
  // in; without the wrap's key clearing, `a` would come back to life.
  const std::uint64_t period =
      (std::uint64_t{1} << SetAssocCache::kEpochBits) - 1;
  for (std::uint64_t i = 0; i + 1 < period; ++i) c.reset();
  c.fill(b, LineState::kExclusive, false);  // last epoch before the wrap
  const SetAssocCache::LineRef ref_b = c.last_ref();
  c.reset();  // the epoch field wraps back to the epoch `a` was filled in
  EXPECT_FALSE(c.contains(a));
  EXPECT_FALSE(c.fast_check(ref_a, a));
  c.reset();  // and moves past it
  for (const Addr x : {a, b}) {
    EXPECT_FALSE(c.contains(x)) << std::hex << x;
    EXPECT_FALSE(c.probe(x, false).hit) << std::hex << x;
  }
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_TRUE(c.live_lines().empty());
  std::string why;
  EXPECT_TRUE(c.audit(&why)) << why;
  EXPECT_FALSE(c.fast_check(ref_a, a));
  EXPECT_FALSE(c.fast_check(ref_b, b));
  // New fills work, and replacement starts from empty sets again.
  EXPECT_FALSE(c.fill(a, LineState::kExclusive, false).has_value());
  EXPECT_FALSE(c.fill(a + 0x200, LineState::kExclusive, false).has_value());
  EXPECT_TRUE(c.probe(a, false).hit);
  EXPECT_TRUE(c.fast_check(c.last_ref(), a));
  EXPECT_EQ(c.resident_lines(), 2u);
  EXPECT_TRUE(c.audit(&why)) << why;
}

TEST(CacheTest, AuditStaysCleanThroughChurnAndResets) {
  // The self-audit's laws on the packed layout — stamps bounded by the LRU
  // clock, every live line in a valid state in the set its tag maps to, no
  // duplicate live key, MRU hints in range — hold through every public
  // mutation, including resets that strand lines in old epochs.
  SetAssocCache c(CacheGeometry{4096, 64, 4});
  std::mt19937_64 rng(7);
  std::string why;
  for (int i = 0; i < 20000; ++i) {
    if (i % 2500 == 0) c.reset();
    const Addr a = (rng() % (1 << 16)) & ~Addr{63};
    switch (rng() % 8) {
      case 0: c.invalidate(a); break;
      case 1: c.downgrade_to_shared(a); break;
      default:
        if (!c.probe(a, (rng() & 1) != 0).hit) {
          c.fill(a, LineState::kExclusive, (rng() & 3) == 0);
        }
    }
    if (i % 500 == 0) {
      ASSERT_TRUE(c.audit(&why)) << why << " at step " << i;
    }
  }
  EXPECT_TRUE(c.audit(&why)) << why;
}

class CacheTopOfRangeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(CacheTopOfRangeTest, HighestLineFillsAndEvictsExactly) {
  const auto [size, line, ways] = GetParam();
  SetAssocCache c(CacheGeometry{size, line, ways});
  const Addr limit = Addr{1} << SetAssocCache::kAddrBits;
  const Addr top = limit - line;  // the last line of the supported range
  EXPECT_FALSE(c.fill(limit - 1, LineState::kModified, false).has_value());
  EXPECT_TRUE(c.contains(top));
  EXPECT_FALSE(c.contains(top - c.sets() * line)) << "same set, lower tag";
  EXPECT_FALSE(c.contains(top & ~(limit >> 1))) << "top tag bit dropped";
  const auto lines = c.live_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].line_addr, top);
  // Fill the rest of the set below it; one more line evicts `top`, the
  // least recently used.
  const Addr stride = static_cast<Addr>(c.sets() * line);
  for (std::size_t w = 1; w < ways; ++w) {
    ASSERT_FALSE(c.fill(top - w * stride, LineState::kExclusive, false)
                     .has_value());
  }
  const auto ev = c.fill(top - ways * stride, LineState::kExclusive, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, top);
  EXPECT_TRUE(ev->dirty);
  EXPECT_FALSE(c.contains(top));
  std::string why;
  EXPECT_TRUE(c.audit(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheTopOfRangeTest,
    ::testing::Values(std::make_tuple(16384, 64, 8),       // L1D, 64 B lines
                      std::make_tuple(1024, 8, 4),         // 8 B lines
                      std::make_tuple(64 * 4096, 4096, 16)));  // DTLB pages

// ---------------------------------------------------------------------------
// Property sweeps over geometries.
// ---------------------------------------------------------------------------

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(CacheGeometryTest, CapacityIsRespected) {
  const auto [size, line, ways] = GetParam();
  SetAssocCache c(CacheGeometry{size, line, ways});
  const std::size_t lines = size / line;
  // Fill exactly `lines` distinct lines that spread over all sets.
  for (std::size_t i = 0; i < lines; ++i) {
    c.fill(static_cast<Addr>(i) * line, LineState::kExclusive, false);
  }
  EXPECT_EQ(c.resident_lines(), lines) << "a full sweep exactly fills the cache";
  // One more line must evict.
  const auto ev = c.fill(static_cast<Addr>(lines) * line, LineState::kExclusive, false);
  EXPECT_TRUE(ev.has_value());
  EXPECT_EQ(c.resident_lines(), lines);
}

TEST_P(CacheGeometryTest, SequentialSweepHitsSecondPass) {
  const auto [size, line, ways] = GetParam();
  SetAssocCache c(CacheGeometry{size, line, ways});
  const std::size_t lines = size / line;
  for (std::size_t i = 0; i < lines; ++i) {
    EXPECT_FALSE(c.probe(static_cast<Addr>(i) * line, false).hit);
    c.fill(static_cast<Addr>(i) * line, LineState::kExclusive, false);
  }
  for (std::size_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.probe(static_cast<Addr>(i) * line, false).hit)
        << "resident working set must fully hit";
  }
}

TEST_P(CacheGeometryTest, RandomChurnNeverOverflows) {
  const auto [size, line, ways] = GetParam();
  SetAssocCache c(CacheGeometry{size, line, ways});
  std::mt19937_64 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const Addr a = (rng() % (1 << 22)) & ~(line - 1);
    if (!c.probe(a, (rng() & 1) != 0).hit) {
      c.fill(a, LineState::kExclusive, false);
    }
    ASSERT_LE(c.resident_lines(), size / line);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(1024, 64, 1),     // direct mapped
                      std::make_tuple(1024, 64, 2),
                      std::make_tuple(4096, 64, 8),
                      std::make_tuple(16384, 128, 4),
                      std::make_tuple(65536, 64, 16),   // fully assoc-ish
                      std::make_tuple(512, 64, 8)));    // single set

}  // namespace
}  // namespace paxsim::sim
