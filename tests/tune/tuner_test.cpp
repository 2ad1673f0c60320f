// Tests for the paxtune driver: the greedy search must rediscover the
// paper's Table-2 per-kernel winners with at most a quarter of the
// exhaustive grid's simulator invocations (checked against the engine's
// cache-miss counters), the tuning_report must be a valid schema'd JSON
// document, and a whole tuning run must replay bit-identically from its
// seed.
#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <sstream>

#include "harness/engine.hpp"
#include "npb/kernel.hpp"
#include "report/parse.hpp"

namespace paxsim::tune {
namespace {

harness::RunOptions class_s_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  return opt;
}

std::vector<npb::Benchmark> all_benches() {
  return {std::begin(npb::kAllBenchmarks), std::end(npb::kAllBenchmarks)};
}

TuneReport run_tune(const std::string& strategy,
                    const std::vector<npb::Benchmark>& benches,
                    harness::EngineStats* stats_out = nullptr) {
  harness::ExperimentEngine engine(1);
  TuneOptions topt;
  topt.strategy = strategy;
  const TuneReport rep = tune(engine, benches, class_s_options(), "", topt);
  if (stats_out != nullptr) *stats_out = engine.stats();
  return rep;
}

TEST(TunerTest, GreedyRediscoversTheGridWinnersWithAQuarterOfTheSimCells) {
  harness::EngineStats grid_stats, greedy_stats;
  const TuneReport grid = run_tune("grid", all_benches(), &grid_stats);
  const TuneReport greedy = run_tune("greedy", all_benches(), &greedy_stats);

  ASSERT_EQ(grid.kernels.size(), 8u);
  ASSERT_EQ(greedy.kernels.size(), 8u);

  std::map<npb::Benchmark, std::string> grid_best;
  std::size_t grid_cells = 0;
  for (const KernelResult& kr : grid.kernels) {
    grid_best[kr.bench] = kr.best.config_name;
    grid_cells += kr.sim_cells;
    // The grid is exhaustive: it validates everything it explores.
    EXPECT_EQ(kr.explored, kr.space_cells);
    EXPECT_EQ(kr.validated.size(), kr.explored);
  }
  std::size_t greedy_cells = 0;
  for (const KernelResult& kr : greedy.kernels) {
    EXPECT_EQ(kr.best.config_name, grid_best[kr.bench])
        << npb::benchmark_name(kr.bench);
    greedy_cells += kr.sim_cells;
  }

  // The acceptance bar: <= 25% of the brute-force simulator invocations,
  // asserted via the engine's own cache-miss ledger (profile runs are not
  // counted as simulated cells).
  EXPECT_EQ(grid_stats.cache_misses, grid_cells);
  EXPECT_EQ(greedy_stats.cache_misses, greedy_cells);
  EXPECT_GE(grid_cells, 4 * greedy_cells);
}

TEST(TunerTest, GreedyRediscoversTheTable2WinnersByName) {
  // The paper's Table-2 headline: every NPB kernel prefers one of the two
  // four-thread architectures — the CMP-based SMP with HyperThreading off
  // or the CMT-based SMP using all eight contexts.  The tuner is not told
  // this; it must land there from the model-guided search alone.
  const TuneReport rep = run_tune("greedy", all_benches());
  std::map<npb::Benchmark, std::string> best;
  for (const KernelResult& kr : rep.kernels) {
    best[kr.bench] = kr.best.config_name;
    EXPECT_TRUE(kr.best.config_name == "HT off -4-2" ||
                kr.best.config_name == "HT on -8-2")
        << npb::benchmark_name(kr.bench) << " -> " << kr.best.config_name;
    EXPECT_GT(kr.best.sim_speedup, 1.0) << npb::benchmark_name(kr.bench);
  }
  EXPECT_EQ(best[npb::Benchmark::kCG], "HT on -8-2");
  EXPECT_EQ(best[npb::Benchmark::kEP], "HT on -8-2");
  EXPECT_EQ(best[npb::Benchmark::kMG], "HT off -4-2");
  EXPECT_EQ(best[npb::Benchmark::kFT], "HT off -4-2");
  EXPECT_EQ(best[npb::Benchmark::kIS], "HT off -4-2");
  EXPECT_EQ(best[npb::Benchmark::kBT], "HT off -4-2");
  EXPECT_EQ(best[npb::Benchmark::kSP], "HT off -4-2");
  EXPECT_EQ(best[npb::Benchmark::kLU], "HT off -4-2");
}

TEST(TunerTest, AnnealIsSeedDeterministic) {
  const std::vector<npb::Benchmark> benches = {npb::Benchmark::kCG};
  TuneOptions topt;
  topt.strategy = "anneal";
  topt.anneal_budget = 12;
  std::ostringstream a, b;
  {
    harness::ExperimentEngine engine(1);
    write_tuning_report(a, tune(engine, benches, class_s_options(), "", topt));
  }
  {
    harness::ExperimentEngine engine(1);
    write_tuning_report(b, tune(engine, benches, class_s_options(), "", topt));
  }
  EXPECT_EQ(a.str(), b.str());
}

TEST(TunerTest, ReportIsAValidSchemadDocument) {
  const std::vector<npb::Benchmark> benches = {npb::Benchmark::kMG};
  const TuneReport rep = run_tune("greedy", benches);
  std::ostringstream os;
  write_tuning_report(os, rep);
  const std::string doc = os.str();
  std::string why;
  report::JsonValue parsed;
  EXPECT_TRUE(report::parse_json_value(doc, &parsed, &why)) << why;
  EXPECT_NE(doc.find("\"kind\":\"tuning_report\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(doc.find("\"trajectory\""), std::string::npos);
  EXPECT_NE(doc.find("\"engine\""), std::string::npos);
}

TEST(TunerTest, ExtraAxesEnlargeTheSpace) {
  harness::ExperimentEngine engine(1);
  TuneOptions topt;
  topt.strategy = "greedy";
  topt.sched_kinds = {-1, 0, 1};
  topt.chunks = {0, 8};
  const TuneReport rep = tune(engine, {npb::Benchmark::kIS},
                              class_s_options(), "", topt);
  ASSERT_EQ(rep.kernels.size(), 1u);
  // 8 configs x (1 default + 2 kinds x 2 chunks) = 40 distinct cells.
  EXPECT_EQ(rep.kernels[0].space_cells, 40u);
  EXPECT_LE(rep.kernels[0].explored, rep.kernels[0].space_cells);
}

TEST(TunerTest, RejectsBadOptions) {
  harness::ExperimentEngine engine(1);
  TuneOptions topt;
  topt.strategy = "bogus";
  EXPECT_THROW(tune(engine, all_benches(), class_s_options(), "", topt),
               std::invalid_argument);
  topt.strategy = "greedy";
  topt.top_k = 0;
  EXPECT_THROW(tune(engine, all_benches(), class_s_options(), "", topt),
               std::invalid_argument);
}

}  // namespace
}  // namespace paxsim::tune
