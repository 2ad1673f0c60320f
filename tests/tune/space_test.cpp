// Tests for the tune:: search space: the Table-1-major list of distinct
// cells (one point per CellKey::from key, so no alias is listed twice)
// and the axis range checks.
#include "tune/space.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <unordered_set>

#include "harness/config.hpp"
#include "harness/engine.hpp"

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

harness::RunOptions class_s() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  return opt;
}

TEST(SearchSpaceTest, DistinctCellsCollapsesDefaultScheduleChunks) {
  SearchSpace s = test_space();
  // 8 configs x (1 default + 1 non-default x 2 chunks) x 2 grains x 1 scale.
  EXPECT_EQ(s.cells(npb::Benchmark::kCG, class_s(), 1).size(), 8u * 3 * 2);
  // A repeated axis value is no new cell either.
  s.grains = {1, 2, 1};
  s.scales = {16.0, 16.0};
  EXPECT_EQ(s.cells(npb::Benchmark::kCG, class_s(), 1).size(), 8u * 3 * 2);
}

TEST(SearchSpaceTest, CellsListEachDistinctCellOnceInTable1MajorOrder) {
  const SearchSpace space = test_space();
  const harness::RunOptions base = class_s();
  const std::vector<Point> cells = space.cells(npb::Benchmark::kCG, base, 1);
  const auto index = [](const Point& p) {
    return std::tie(p.config, p.sched, p.chunk, p.grain, p.scale);
  };
  std::unordered_set<harness::CellKey, harness::CellKeyHash> keys;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Point& p = cells[i];
    ASSERT_LT(p.config, space.configs.size());
    ASSERT_LT(p.sched, space.sched_kinds.size());
    ASSERT_LT(p.chunk, space.chunks.size());
    ASSERT_LT(p.grain, space.grains.size());
    ASSERT_LT(p.scale, space.scales.size());
    EXPECT_TRUE(keys.insert(harness::CellKey::from(npb::Benchmark::kCG,
                                                   space.configs[p.config],
                                                   space.options_for(p, base),
                                                   1))
                    .second)
        << "alias listed twice: " << space.describe(p);
    if (i > 0) {
      EXPECT_LT(index(cells[i - 1]), index(p)) << i;
    }
    // A chunk beside the kernel-default schedule is no new cell: the first
    // chunk value stands for it.
    if (space.sched_kinds[p.sched] < 0) {
      EXPECT_EQ(p.chunk, 0u);
    }
  }
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

}  // namespace
}  // namespace paxsim::tune
