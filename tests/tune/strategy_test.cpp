// Tests for the tune:: search layer: SearchSpace encoding, the SplitMix64
// determinism contract, and the Strategy interface conformance every
// strategy (grid, greedy, anneal) must honour — distinct canonical points,
// in-range indices, and seed-reproducible trajectories.
#include "tune/strategy.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <unordered_set>

#include "harness/config.hpp"
#include "tune/space.hpp"

namespace paxsim::tune {
namespace {

/// A small but multi-axis space over the default machine's Table-1 rows.
SearchSpace test_space() {
  SearchSpace s;
  s.configs = harness::all_configs();
  s.sched_kinds = {-1, 1};  // kernel default + dynamic
  s.chunks = {1, 8};
  s.grains = {1, 2};
  s.scales = {16.0};
  s.validate();
  return s;
}

/// Deterministic separable score: each axis contributes a penalty for the
/// distance from a fixed per-axis optimum, so greedy coordinate descent
/// must land exactly on the global minimum.
class SeparableEval : public Evaluator {
 public:
  double predicted_wall(const Point& p) override {
    ++calls;
    const double d = std::abs(static_cast<double>(p.config) - 3.0) +
                     std::abs(static_cast<double>(p.sched) - 1.0) +
                     std::abs(static_cast<double>(p.chunk) - 1.0) +
                     std::abs(static_cast<double>(p.grain) - 0.0);
    return 100.0 + 10.0 * d;
  }
  int calls = 0;
};

/// Non-separable pseudo-random landscape (hash of the flat index).
class HashEval : public Evaluator {
 public:
  explicit HashEval(const SearchSpace& s) : space_(s) {}
  double predicted_wall(const Point& p) override {
    const std::uint64_t h = space_.to_flat(p) * 0x9e3779b97f4a7c15ull;
    return 1000.0 + static_cast<double>(h % 997);
  }

 private:
  const SearchSpace& space_;
};

void expect_conformant(const SearchSpace& space,
                       const std::vector<Point>& points) {
  std::unordered_set<std::size_t> seen;
  for (const Point& p : points) {
    EXPECT_LT(p.config, space.configs.size());
    EXPECT_LT(p.sched, space.sched_kinds.size());
    EXPECT_LT(p.chunk, space.chunks.size());
    EXPECT_LT(p.grain, space.grains.size());
    EXPECT_LT(p.scale, space.scales.size());
    EXPECT_TRUE(space.canonicalize(p) == p) << "non-canonical point";
    EXPECT_TRUE(seen.insert(space.to_flat(p)).second) << "duplicate point";
  }
}

TEST(SplitMix64Test, MatchesReferenceVectors) {
  // Steele et al.'s published stream for seed 0 — cross-platform identity
  // is the whole point of carrying our own generator.
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafull);
  EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(rng.next(), 0x06c45d188009454full);
}

TEST(SplitMix64Test, UniformIsInUnitInterval) {
  SplitMix64 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SearchSpaceTest, FlatEncodingRoundTrips) {
  const SearchSpace s = test_space();
  for (std::size_t f = 0; f < s.size(); ++f) {
    EXPECT_EQ(s.to_flat(s.from_flat(f)), f);
  }
}

TEST(SearchSpaceTest, DistinctCellsCollapsesDefaultScheduleChunks) {
  const SearchSpace s = test_space();
  // 8 configs x (1 default + 1 non-default x 2 chunks) x 2 grains x 1 scale.
  EXPECT_EQ(s.size(), 8u * 2 * 2 * 2);
  EXPECT_EQ(s.distinct_cells(), 8u * 3 * 2);
}

TEST(SearchSpaceTest, ValidateRejectsBadAxes) {
  SearchSpace s = test_space();
  s.grains = {0};
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = test_space();
  s.sched_kinds = {7};
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = test_space();
  s.scales.clear();
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = test_space();
  s.scales = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(GridStrategyTest, CoversEveryDistinctCellOnceInFlatOrder) {
  const SearchSpace space = test_space();
  HashEval eval(space);
  const auto grid = make_grid();
  EXPECT_EQ(grid->name(), "grid");
  EXPECT_TRUE(grid->exhaustive());
  const std::vector<Point> points = grid->explore(space, eval, 1);
  EXPECT_EQ(points.size(), space.distinct_cells());
  expect_conformant(space, points);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(space.to_flat(points[i - 1]), space.to_flat(points[i]));
  }
}

TEST(GreedyStrategyTest, FindsTheSeparableOptimum) {
  const SearchSpace space = test_space();
  SeparableEval eval;
  const auto greedy = make_greedy();
  EXPECT_EQ(greedy->name(), "greedy");
  EXPECT_FALSE(greedy->exhaustive());
  const std::vector<Point> points = greedy->explore(space, eval, 1);
  expect_conformant(space, points);
  ASSERT_FALSE(points.empty());
  // The incumbent (best explored) must be the known global minimum.
  const Point* best = &points[0];
  SeparableEval score;
  for (const Point& p : points) {
    if (score.predicted_wall(p) < score.predicted_wall(*best)) best = &p;
  }
  EXPECT_EQ(best->config, 3u);
  EXPECT_EQ(best->sched, 1u);
  EXPECT_EQ(best->chunk, 1u);
  EXPECT_EQ(best->grain, 0u);
}

TEST(GreedyStrategyTest, TrajectoryIsSeedIndependent) {
  const SearchSpace space = test_space();
  HashEval e1(space), e2(space);
  const auto greedy = make_greedy();
  const auto a = greedy->explore(space, e1, 1);
  const auto b = greedy->explore(space, e2, 999);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "step " << i;
  }
}

TEST(AnnealStrategyTest, SameSeedReplaysTheSameTrajectory) {
  const SearchSpace space = test_space();
  HashEval e1(space), e2(space);
  const auto anneal = make_anneal(40);
  EXPECT_EQ(anneal->name(), "anneal");
  EXPECT_FALSE(anneal->exhaustive());
  const auto a = anneal->explore(space, e1, 314159265);
  const auto b = anneal->explore(space, e2, 314159265);
  expect_conformant(space, a);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "step " << i;
  }
}

TEST(AnnealStrategyTest, DifferentSeedsDiverge) {
  const SearchSpace space = test_space();
  HashEval e1(space), e2(space);
  const auto anneal = make_anneal(40);
  const auto a = anneal->explore(space, e1, 1);
  const auto b = anneal->explore(space, e2, 2);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i) {
    differ = !(a[i] == b[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(AnnealStrategyTest, RespectsTheProposalBudget) {
  const SearchSpace space = test_space();
  HashEval eval(space);
  const int budget = 10;
  const auto points = make_anneal(budget)->explore(space, eval, 7);
  expect_conformant(space, points);
  // Start point + at most one new point per proposal step.
  EXPECT_LE(points.size(), static_cast<std::size_t>(budget) + 1);
  EXPECT_GE(points.size(), 1u);
}

TEST(StrategyFactoryTest, ResolvesNamesAndRejectsUnknown) {
  EXPECT_NE(make_strategy("grid", 8), nullptr);
  EXPECT_NE(make_strategy("greedy", 8), nullptr);
  EXPECT_NE(make_strategy("anneal", 8), nullptr);
  EXPECT_EQ(make_strategy("bogus", 8), nullptr);
  EXPECT_EQ(make_strategy("", 8), nullptr);
}

}  // namespace
}  // namespace paxsim::tune
