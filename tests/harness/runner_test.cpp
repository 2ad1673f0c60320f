// Tests for the experiment runners: single-program runs, co-scheduled
// pairs, speedup computation, and the basic architectural sanity relations
// the study depends on.
#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "harness/engine.hpp"
#include "harness/report.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

RunOptions quick() {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 1;
  return opt;
}

// Local machine-constructing shims over the machine-reusing runners (the
// harness no longer ships machine-less wrappers).
RunResult single_run(npb::Benchmark bench, const StudyConfig& cfg,
                     const RunOptions& opt, std::uint64_t seed) {
  sim::Machine machine(opt.machine_params());
  return run_single(machine, bench, cfg, opt, seed);
}

RunResult serial_run(npb::Benchmark bench, const RunOptions& opt,
                     std::uint64_t seed) {
  sim::Machine machine(opt.machine_params());
  return run_serial(machine, bench, opt, seed);
}

PairResult pair_run(npb::Benchmark a, npb::Benchmark b, const StudyConfig& cfg,
                    const RunOptions& opt, std::uint64_t seed) {
  sim::Machine machine(opt.machine_params());
  return run_pair(machine, a, b, cfg, opt, seed);
}

TEST(RunnerTest, SerialRunProducesCountersAndVerifies) {
  const RunOptions opt = quick();
  const RunResult r = serial_run(npb::Benchmark::kCG, opt, opt.trial_seed(0));
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.wall_cycles, 0.0);
  EXPECT_GT(r.counters.get(perf::Event::kInstructions), 0u);
  EXPECT_GT(r.metrics.cpi, 0.0);
  EXPECT_GE(r.metrics.stalled_fraction, 0.0);
  EXPECT_LE(r.metrics.stalled_fraction, 1.0);
}

TEST(RunnerTest, RunIsDeterministicForSameSeed) {
  const RunOptions opt = quick();
  const auto* cfg = find_config("HT off -2-1");
  const RunResult a = single_run(npb::Benchmark::kMG, *cfg, opt, 5);
  const RunResult b = single_run(npb::Benchmark::kMG, *cfg, opt, 5);
  EXPECT_DOUBLE_EQ(a.wall_cycles, b.wall_cycles);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(RunnerTest, DifferentSeedsDiffer) {
  const RunOptions opt = quick();
  const RunResult a = serial_run(npb::Benchmark::kCG, opt, 5);
  const RunResult b = serial_run(npb::Benchmark::kCG, opt, 6);
  EXPECT_NE(a.wall_cycles, b.wall_cycles);
}

TEST(RunnerTest, ParallelBeatsSerialOnFourCores) {
  const RunOptions opt = quick();
  const std::uint64_t seed = opt.trial_seed(0);
  const RunResult serial = serial_run(npb::Benchmark::kBT, opt, seed);
  const RunResult par =
      single_run(npb::Benchmark::kBT, *find_config("HT off -4-2"), opt, seed);
  EXPECT_LT(par.wall_cycles, serial.wall_cycles)
      << "four cores must beat one on a class-S compute kernel";
}

TEST(RunnerTest, SpeedupOverTrialsAggregates) {
  RunOptions opt = quick();
  opt.trials = 2;
  ExperimentEngine engine(1);
  const TrialStats st =
      engine
          .run(ExperimentPlan(opt, {*find_config("HT off -2-1")})
                   .add_benchmark(npb::Benchmark::kEP)
                   .with_serial_baselines())
          .speedup_stats(npb::Benchmark::kEP, 0);
  EXPECT_EQ(st.n, 2);
  EXPECT_GT(st.mean, 1.0) << "EP is embarrassingly parallel";
  EXPECT_LT(st.mean, 2.5);
  EXPECT_LT(st.cv(), 0.25) << "trial variance should be small (paper: <~5%)";
}

TEST(RunnerTest, PairRunsBothProgramsToCompletion) {
  const RunOptions opt = quick();
  const PairResult r = pair_run(npb::Benchmark::kCG, npb::Benchmark::kFT,
                                *find_config("HT off -4-2"), opt, 7);
  for (int p = 0; p < 2; ++p) {
    EXPECT_TRUE(r.program[p].verified);
    EXPECT_GT(r.program[p].wall_cycles, 0.0);
    EXPECT_GT(r.program[p].counters.get(perf::Event::kInstructions), 0u);
  }
}

TEST(RunnerTest, PairCountersAreSeparated) {
  const RunOptions opt = quick();
  // EP does almost no memory traffic; CG is memory-heavy.  If attribution
  // leaked, EP's bus counters would be polluted by CG's.
  const PairResult r = pair_run(npb::Benchmark::kCG, npb::Benchmark::kEP,
                                *find_config("HT off -2-1"), opt, 3);
  const auto cg_bus = r.program[0].counters.get(perf::Event::kBusTransactions);
  const auto ep_bus = r.program[1].counters.get(perf::Event::kBusTransactions);
  EXPECT_GT(cg_bus, ep_bus * 5) << "CG is far more bus-hungry than EP";
}

TEST(RunnerTest, CoschedulingSlowsBothVsRunningAlone) {
  const RunOptions opt = quick();
  const std::uint64_t seed = opt.trial_seed(0);
  const auto* cfg = find_config("HT off -2-1");
  // Alone on one core of the pairing (approximate: serial baseline).
  const RunResult alone = serial_run(npb::Benchmark::kCG, opt, seed);
  const PairResult pair =
      pair_run(npb::Benchmark::kCG, npb::Benchmark::kCG, *cfg, opt, seed);
  // Each program has one core; sharing the bus with its twin must not make
  // it *faster* than the serial baseline on the same machine.
  EXPECT_GE(pair.program[0].wall_cycles, alone.wall_cycles * 0.95);
}

TEST(RunnerTest, PairSplitsThreadsEvenly) {
  const RunOptions opt = quick();
  // On the 8-context config each program gets 4 threads; both finish and
  // both make progress through distinct counter sets.
  const PairResult r = pair_run(npb::Benchmark::kFT, npb::Benchmark::kFT,
                                *find_config("HT on -8-2"), opt, 9);
  EXPECT_TRUE(r.program[0].verified);
  EXPECT_TRUE(r.program[1].verified);
  // Identical programs on symmetric halves should take comparable time.
  const double ratio = r.program[0].wall_cycles / r.program[1].wall_cycles;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(RunnerTest, TrialSeedsAreDistinct) {
  const RunOptions opt;
  EXPECT_NE(opt.trial_seed(0), opt.trial_seed(1));
  EXPECT_NE(opt.trial_seed(1), opt.trial_seed(2));
}

TEST(RunnerTest, MachineParamsScaled) {
  RunOptions opt;
  opt.machine_scale = 16.0;
  EXPECT_EQ(opt.machine_params().l2.size_bytes, 128u * 1024);
}

TEST(RunnerTest, RefusesConfigTheMachineCannotHost) {
  RunOptions opt = quick();
  opt.topology =
      std::make_shared<const sim::Topology>(sim::Topology::woodcrest());
  sim::Machine machine(opt.machine_params());
  EXPECT_THROW(run_single(machine, npb::Benchmark::kCG,
                          *find_config("HT on -8-2"), opt, opt.trial_seed(0)),
               std::invalid_argument)
      << "woodcrest has no SMT contexts for a Hyper-Threading row";
}

TEST(ReportTest, TablePrintsAllRows) {
  Table t("demo", {"c1", "c2"});
  t.add_row("r1", {1.0, 2.0});
  t.add_row("r2", {3.0, 4.5});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("r1"), std::string::npos);
  EXPECT_NE(s.find("4.500"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("demo,r2,c2,4.5"), std::string::npos);
}

TEST(ReportTest, BoxLineRendersMarkers) {
  BoxStats b{1.0, 2.0, 3.0, 4.0, 5.0, 10};
  std::ostringstream os;
  print_box_line(os, "cfg", b, 0.0, 6.0, 40);
  const std::string s = os.str();
  EXPECT_NE(s.find('['), std::string::npos);
  EXPECT_NE(s.find(']'), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("n=10"), std::string::npos);
}

TEST(SchedNameTest, RoundTrips) {
  int kind = -2;
  EXPECT_TRUE(parse_sched_name("default", &kind));
  EXPECT_EQ(kind, -1);
  for (const char* name : {"static", "dynamic", "guided"}) {
    ASSERT_TRUE(parse_sched_name(name, &kind));
    EXPECT_EQ(sched_name(kind), name);
  }
  EXPECT_FALSE(parse_sched_name("fastest", &kind));
  EXPECT_EQ(sched_name(-1), "default");
}

}  // namespace
}  // namespace paxsim::harness
