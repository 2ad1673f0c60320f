// Unit and property tests for the xomp runtime: schedule partitioning
// (every index executed exactly once under every schedule), reductions,
// barriers, serial sections, virtual-time interleaving fairness.
#include "xomp/team.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/config.hpp"
#include "sim/topology.hpp"

namespace paxsim::xomp {
namespace {

struct Rig {
  sim::MachineParams p = sim::MachineParams{}.scaled(16);
  sim::Machine machine{p};
  sim::AddressSpace space{0};
  perf::CounterSet counters;

  Team team(int n_threads) {
    std::vector<sim::LogicalCpu> cpus;
    const sim::LogicalCpu all[] = {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0},
                                   {0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}};
    for (int i = 0; i < n_threads; ++i) cpus.push_back(all[i]);
    return Team(machine, cpus, &counters, space);
  }
};

constexpr CodeBlock kBlk{1, 8};

class ScheduleCoverageTest
    : public ::testing::TestWithParam<std::tuple<ScheduleKind, std::size_t, int, std::size_t>> {
};

TEST_P(ScheduleCoverageTest, EveryIterationExactlyOnce) {
  const auto [kind, chunk, threads, n] = GetParam();
  Rig rig;
  Team team = rig.team(threads);
  std::vector<int> hits(n, 0);
  std::vector<int> by_rank(static_cast<std::size_t>(threads), 0);
  team.parallel_for(0, n, Schedule{kind, chunk}, kBlk,
                    [&](std::size_t i, sim::HwContext&, int rank) {
                      ASSERT_LT(i, n);
                      ASSERT_GE(rank, 0);
                      ASSERT_LT(rank, threads);
                      ++hits[i];
                      ++by_rank[static_cast<std::size_t>(rank)];
                    });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], 1) << "iteration " << i;
  }
  if (threads > 1 && n >= static_cast<std::size_t>(threads) * 4) {
    int active_ranks = 0;
    for (const int c : by_rank) active_ranks += c > 0;
    EXPECT_GT(active_ranks, 1) << "work must actually be distributed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ScheduleCoverageTest,
    ::testing::Combine(
        ::testing::Values(ScheduleKind::kStatic, ScheduleKind::kDynamic,
                          ScheduleKind::kGuided),
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{16}),
        ::testing::Values(1, 2, 4, 8),
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{64}, std::size_t{1000})));

TEST(TeamTest, StaticDefaultIsContiguousBlocks) {
  Rig rig;
  Team team = rig.team(4);
  std::map<int, std::pair<std::size_t, std::size_t>> range;  // rank -> [min,max]
  team.parallel_for(0, 100, Schedule::static_default(), kBlk,
                    [&](std::size_t i, sim::HwContext&, int rank) {
                      auto it = range.find(rank);
                      if (it == range.end()) {
                        range[rank] = {i, i};
                      } else {
                        it->second.first = std::min(it->second.first, i);
                        it->second.second = std::max(it->second.second, i);
                      }
                    });
  ASSERT_EQ(range.size(), 4u);
  // Each rank's [min,max] span equals its iteration count (contiguity).
  EXPECT_EQ(range[0].first, 0u);
  EXPECT_EQ(range[0].second, 24u);
  EXPECT_EQ(range[3].second, 99u);
}

TEST(TeamTest, OverrideKeepsAKeepStaticLoopStatic) {
  // A keep_static loop takes only the override's chunk: under dynamic(4)
  // it runs static with chunk 4, round-robin over the ranks, so a loop
  // that must see another's partition still sees it.
  Rig rig;
  Team team = rig.team(4);
  const auto owners = [&team] {
    std::vector<int> rank_of(64, -1);
    team.parallel_for(0, 64, Schedule::static_partition(), kBlk,
                      [&](std::size_t i, sim::HwContext&, int rank) {
                        rank_of[i] = rank;
                      });
    return rank_of;
  };
  const std::vector<int> plain = owners();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], static_cast<int>(i / 16)) << "iteration " << i;
  }
  team.set_schedule_override(Schedule::dynamic(4));
  const std::vector<int> overridden = owners();
  for (std::size_t i = 0; i < overridden.size(); ++i) {
    EXPECT_EQ(overridden[i], static_cast<int>(i / 4 % 4)) << "iteration " << i;
  }
}

TEST(TeamTest, ReduceSumsCorrectly) {
  Rig rig;
  Team team = rig.team(4);
  const double sum = team.parallel_reduce(
      1, 101, Schedule::static_default(), kBlk,
      [](std::size_t i, sim::HwContext&, int) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(sum, 5050.0);
}

TEST(TeamTest, ReduceDeterministicAcrossRuns) {
  Rig rig;
  Team team = rig.team(3);
  auto body = [](std::size_t i, sim::HwContext&, int) {
    return 1.0 / static_cast<double>(i + 1);
  };
  const double a =
      team.parallel_reduce(0, 1000, Schedule::static_default(), kBlk, body);
  const double b =
      team.parallel_reduce(0, 1000, Schedule::static_default(), kBlk, body);
  EXPECT_DOUBLE_EQ(a, b) << "same partition, same combine order, same sum";
}

TEST(TeamTest, BarrierSynchronisesClocks) {
  Rig rig;
  Team team = rig.team(4);
  // Imbalanced loop: rank 0 does much more work.
  team.parallel_for(0, 4, Schedule::static_default(), kBlk,
                    [&](std::size_t i, sim::HwContext& ctx, int) {
                      ctx.alu(i == 0 ? 100000 : 10);
                    });
  const double t0 = team.context_of(0).now();
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(team.context_of(r).now(), t0)
        << "join barrier must align clocks";
  }
}

TEST(TeamTest, WallTimeReflectsImbalance) {
  Rig rig;
  Team team = rig.team(2);
  const double before = team.wall_time();
  team.parallel_for(0, 2, Schedule::static_default(), kBlk,
                    [&](std::size_t i, sim::HwContext& ctx, int) {
                      ctx.alu(i == 0 ? 50000 : 1);
                    });
  EXPECT_GT(team.wall_time(), before + 50000 * rig.p.cycles_per_uop * 0.9)
      << "the slow thread bounds the region";
}

TEST(TeamTest, DynamicBalancesImbalancedWork) {
  // With heavily skewed per-iteration cost, dynamic scheduling must beat
  // default static scheduling on wall time.
  auto run = [](Schedule s) {
    Rig rig;
    Team team = rig.team(4);
    team.parallel_for(0, 64, s, kBlk,
                      [&](std::size_t i, sim::HwContext& ctx, int) {
                        ctx.alu(i < 16 ? 8000 : 10);  // front-loaded cost
                      });
    return team.wall_time();
  };
  const double t_static = run(Schedule::static_default());
  const double t_dynamic = run(Schedule::dynamic(1));
  EXPECT_LT(t_dynamic, t_static * 0.6);
}

TEST(TeamTest, SerialRunsOnMaster) {
  Rig rig;
  Team team = rig.team(4);
  team.serial([&](sim::HwContext& ctx) {
    EXPECT_EQ(ctx.id(), (sim::LogicalCpu{0, 0, 0}));
    ctx.alu(100);
  });
  EXPECT_GT(team.context_of(0).now(), 0.0);
  EXPECT_DOUBLE_EQ(team.context_of(1).now(), 0.0)
      << "workers idle through serial sections";
}

TEST(TeamTest, ForkCatchesWorkersUpAfterSerial) {
  Rig rig;
  Team team = rig.team(2);
  team.serial([](sim::HwContext& ctx) { ctx.alu(10000); });
  team.parallel_for(0, 2, Schedule::static_default(), kBlk,
                    [](std::size_t, sim::HwContext&, int) {});
  EXPECT_GE(team.context_of(1).now(), team.context_of(0).now() - 1e-9);
}

TEST(TeamTest, SerialForExecutesInOrder) {
  Rig rig;
  Team team = rig.team(2);
  std::vector<std::size_t> order;
  team.serial_for(5, 10, kBlk, [&](std::size_t i, sim::HwContext&) {
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{5, 6, 7, 8, 9}));
}

TEST(TeamTest, CriticalChargesLockTraffic) {
  Rig rig;
  Team team = rig.team(2);
  const double t0 = team.context_of(1).now();
  team.critical(1, [](sim::HwContext&) {});
  EXPECT_GT(team.context_of(1).now(), t0) << "lock acquisition costs cycles";
}

TEST(TeamTest, EmptyRangeIsNoop) {
  Rig rig;
  Team team = rig.team(4);
  int calls = 0;
  team.parallel_for(
      10, 10, Schedule::dynamic(1), kBlk,
      // paxlint: allow(shared-scratch) -- a Team runs every loop body on one host thread, and the counter is read only after the loop returns
      [&](std::size_t, sim::HwContext&, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(TeamTest, CountersAccumulatePerProgram) {
  Rig rig;
  Team team = rig.team(2);
  team.parallel_for(0, 100, Schedule::static_default(), kBlk,
                    [](std::size_t, sim::HwContext& ctx, int) { ctx.alu(10); });
  team.flush();
  EXPECT_GE(rig.counters.get(perf::Event::kInstructions), 1000u);
  EXPECT_GT(rig.counters.get(perf::Event::kCycles), 0u);
  EXPECT_GT(rig.counters.get(perf::Event::kBranches), 0u)
      << "the runtime models loop back-edges";
  EXPECT_GT(rig.counters.get(perf::Event::kTraceCacheReferences), 0u)
      << "the runtime models front-end fetches";
}

TEST(TeamTest, RefusesContextsOutsideTheMachine) {
  sim::MachineParams p = sim::MachineParams{}.scaled(16);
  p.topology = sim::Topology::woodcrest();
  sim::Machine machine(p);
  sim::AddressSpace space(0);
  perf::CounterSet counters;
  try {
    Team team(machine, {{0, 0, 0}, {0, 0, 1}}, &counters, space);
    FAIL() << "a second SMT context does not exist on woodcrest";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "hardware context 0.0.1 is outside the machine "
                 "(2 chips x 2 cores x 1 contexts)");
  }
  EXPECT_THROW(Team(machine, {}, &counters, space), std::invalid_argument);

  Team team(machine, {{0, 0, 0}, {0, 1, 0}}, &counters, space);
  EXPECT_THROW(team.repin(1, {2, 0, 0}, 0), std::invalid_argument);
  EXPECT_EQ(team.placement_of(1), (sim::LogicalCpu{0, 1, 0}))
      << "a refused repin leaves the thread where it was";
}

}  // namespace
}  // namespace paxsim::xomp
