// End-to-end checks of the analysis subsystem against real kernels:
//  * the seeded-racy diagnostic kernels (RW, RF) must be flagged with the
//    right conflict kinds on a multi-threaded configuration;
//  * every shipped suite kernel must come back clean under --check=full on
//    Serial, HT-off and HT-on configurations (class S keeps it fast), and
//    under --check=invariants on every row of every machine preset;
//  * IS verifies, and is clean under --check=full, under every dynamic and
//    guided schedule override on each machine preset's widest row;
//  * --check=off must leave results bit-identical to an unchecked run;
//  * a race record numbers its cpu by the machine's own topology.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "harness/config.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

RunOptions checked_options(sim::CheckMode mode) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.check_mode = mode;
  return opt;
}

RunResult run_checked(npb::Benchmark b, const char* config,
                      sim::CheckMode mode) {
  const StudyConfig* cfg = find_config(config);
  EXPECT_NE(cfg, nullptr) << config;
  const RunOptions opt = checked_options(mode);
  sim::Machine machine(opt.machine_params());
  return run_single(machine, b, *cfg, opt, opt.trial_seed(0));
}

TEST(CheckKernelsTest, RacyHistogramIsFlaggedWriteWrite) {
  const RunResult r =
      run_checked(npb::Benchmark::kRacyHist, "HT off -4-2",
                  sim::CheckMode::kFull);
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.check.clean());
  EXPECT_GT(r.check.races_total, 0u);
  ASSERT_FALSE(r.check.races.empty());
  // The lost-update pattern must surface as write-write conflicts between
  // two distinct threads.
  bool saw_ww = false;
  for (const check::RaceRecord& rec : r.check.races) {
    if (rec.kind == check::RaceRecord::Kind::kWriteWrite) {
      saw_ww = true;
      EXPECT_NE(rec.prior.tid, rec.current.tid);
      EXPECT_GE(rec.prior.tid, 0);
      EXPECT_GE(rec.current.tid, 0);
      EXPECT_LE(rec.prior.vtime, rec.current.vtime);
    }
  }
  EXPECT_TRUE(saw_ww);
  // Races are a detector finding, not an invariant breach.
  EXPECT_EQ(r.check.violations_total, 0u);
}

TEST(CheckKernelsTest, RacyFlagIsFlaggedOnTheFlagWord) {
  const RunResult r =
      run_checked(npb::Benchmark::kRacyFlag, "HT off -4-2",
                  sim::CheckMode::kRace);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.check.races_total, 0u);
  ASSERT_FALSE(r.check.races.empty());
  // The unsynchronised publish races read-against-write (either direction,
  // depending on which access the detector sees second).
  bool saw_rw = false;
  for (const check::RaceRecord& rec : r.check.races) {
    if (rec.kind == check::RaceRecord::Kind::kWriteRead ||
        rec.kind == check::RaceRecord::Kind::kReadWrite) {
      saw_rw = true;
      EXPECT_NE(rec.prior.tid, rec.current.tid);
    }
  }
  EXPECT_TRUE(saw_rw);
  // One racy flag word.
  EXPECT_EQ(r.check.racy_words, 1u);
}

TEST(CheckKernelsTest, RacyKernelsCleanWhenSerial) {
  // One thread: no concurrency, so the same kernels must not be flagged.
  const RunResult r = run_checked(npb::Benchmark::kRacyHist, "Serial",
                                  sim::CheckMode::kFull);
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.check.clean())
      << r.check.races_total << " races, " << r.check.violations_total
      << " violations";
}

TEST(CheckKernelsTest, SuiteIsCleanUnderFullChecking) {
  const char* const configs[] = {"Serial", "HT off -4-2", "HT on -8-2"};
  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    for (const char* cfg : configs) {
      const RunResult r = run_checked(b, cfg, sim::CheckMode::kFull);
      EXPECT_TRUE(r.verified) << npb::benchmark_name(b) << " @ " << cfg;
      EXPECT_TRUE(r.check.clean())
          << npb::benchmark_name(b) << " @ " << cfg << ": "
          << r.check.races_total << " races, " << r.check.violations_total
          << " violations"
          << (r.check.violations.empty()
                  ? ""
                  : " first=[" + r.check.violations[0].rule + "] " +
                        r.check.violations[0].detail);
      EXPECT_GT(r.check.accesses, 0u) << "sink saw no traffic";
      EXPECT_GT(r.check.audits, 0u) << "no invariant audit ran";
    }
  }
}

// Every kernel on every configs_for() row of one preset, audited: the
// machine-state laws (inclusion, SWMR, structure) must hold on every
// topology, not only the default machine.  One test per preset so ctest can
// spread the sweep.
class CheckPresetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckPresetTest, EveryKernelAndRowIsCleanUnderInvariants) {
  RunOptions opt = checked_options(sim::CheckMode::kInvariants);
  opt.topology = std::make_shared<const sim::Topology>(
      *sim::Topology::from_preset(GetParam()));
  sim::Machine machine(opt.machine_params());
  for (const StudyConfig& cfg : configs_for(*opt.topology)) {
    for (const npb::Benchmark b : npb::kAllBenchmarks) {
      const RunResult r = run_single(machine, b, cfg, opt, opt.trial_seed(0));
      const std::string cell =
          std::string(npb::benchmark_name(b)) + " @ " + cfg.name;
      EXPECT_TRUE(r.verified) << cell;
      EXPECT_TRUE(r.check.clean())
          << cell << ": " << r.check.violations_total << " violations"
          << (r.check.violations.empty()
                  ? ""
                  : " first=[" + r.check.violations[0].rule + "] " +
                        r.check.violations[0].detail);
      EXPECT_GT(r.check.audits, 0u) << cell << ": no invariant audit ran";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CheckPresetTest,
    ::testing::ValuesIn(sim::Topology::preset_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(CheckKernelsTest, IsVerifiesUnderEveryScheduleOverride) {
  // IS ranks each key in the slice its thread counted, so its counting and
  // ranking loops keep a static partition whatever the override says.
  for (const char* preset : {"paxville", "woodcrest", "numa16"}) {
    RunOptions opt = checked_options(sim::CheckMode::kFull);
    opt.topology = std::make_shared<const sim::Topology>(
        *sim::Topology::from_preset(preset));
    const StudyConfig cfg = configs_for(*opt.topology).back();
    sim::Machine machine(opt.machine_params());
    for (const int kind : {1, 2}) {  // dynamic, guided
      for (const std::size_t chunk : {std::size_t{0}, std::size_t{4}}) {
        opt.sched_kind = kind;
        opt.sched_chunk = chunk;
        SCOPED_TRACE(testing::Message() << preset << " " << cfg.name << " "
                                        << sched_name(kind) << " chunk "
                                        << chunk);
        const RunResult r = run_single(machine, npb::Benchmark::kIS, cfg, opt,
                                       opt.trial_seed(0));
        EXPECT_TRUE(r.verified);
        EXPECT_TRUE(r.check.clean());
      }
    }
  }
}

TEST(CheckKernelsTest, RaceRecordsNumberCpusByTheMachine) {
  // numa16 has 4 cores per chip: each printed record's cpu number must be
  // Topology::flat of its (chip, core, ctx), not a Paxville-shaped number.
  RunOptions opt = checked_options(sim::CheckMode::kRace);
  const sim::Topology numa = sim::Topology::numa16();
  opt.topology = std::make_shared<const sim::Topology>(numa);
  const StudyConfig widest = configs_for(numa).back();
  ASSERT_EQ(widest.name, "HT off -16-4");
  sim::Machine machine(opt.machine_params());
  const RunResult r = run_single(machine, npb::Benchmark::kRacyHist, widest,
                                 opt, opt.trial_seed(0));
  ASSERT_FALSE(r.check.races.empty());

  std::ostringstream os;
  print_check_report(os, r.check);
  std::istringstream lines(os.str());
  std::size_t records = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find(" on cpu ");
    if (at == std::string::npos) continue;
    int cpu = -1;
    sim::LogicalCpu id;
    ASSERT_EQ(std::sscanf(line.c_str() + at,
                          " on cpu %d (chip %hhu core %hhu ctx %hhu)", &cpu,
                          &id.chip, &id.core, &id.context),
              4)
        << line;
    EXPECT_EQ(cpu, numa.flat(id)) << line;
    ++records;
  }
  EXPECT_EQ(records, 2 * r.check.races.size());  // prior + current each
}

TEST(CheckKernelsTest, CheckOffIsBitIdenticalToUncheckedRun) {
  const StudyConfig* cfg = find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  RunOptions off = checked_options(sim::CheckMode::kOff);
  sim::Machine off_machine(off.machine_params());
  const RunResult a = run_single(off_machine, npb::Benchmark::kCG, *cfg, off,
                                 off.trial_seed(0));
  RunOptions plain;
  plain.cls = npb::ProblemClass::kClassS;
  sim::Machine plain_machine(plain.machine_params());
  const RunResult b = run_single(plain_machine, npb::Benchmark::kCG, *cfg,
                                 plain, plain.trial_seed(0));
  EXPECT_EQ(a.wall_cycles, b.wall_cycles);
  EXPECT_EQ(a.metrics.cpi, b.metrics.cpi);
  EXPECT_EQ(a.check.accesses, 0u);
  EXPECT_TRUE(a.check.clean());
}

TEST(CheckKernelsTest, CheckedRunMatchesUncheckedNumerics) {
  // The analyses are observers: attaching them must not change the numbers
  // the program computes (virtual time may differ — the reference path
  // replaces the fast path — but verification and event totals must hold).
  const RunResult r = run_checked(npb::Benchmark::kEP, "HT on -8-2",
                                  sim::CheckMode::kFull);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.check.team_events, 0u);
  EXPECT_GT(r.check.syncs, 0u);
}

TEST(CheckKernelsTest, PairRunSharesOneMachineWideReport) {
  const StudyConfig* cfg = find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const RunOptions opt = checked_options(sim::CheckMode::kFull);
  sim::Machine machine(opt.machine_params());
  const PairResult pr = run_pair(machine, npb::Benchmark::kEP,
                                 npb::Benchmark::kIS, *cfg, opt,
                                 opt.trial_seed(0));
  EXPECT_TRUE(pr.program[0].check.clean());
  EXPECT_EQ(pr.program[0].check.accesses, pr.program[1].check.accesses);
  EXPECT_EQ(pr.program[0].check.races_total, pr.program[1].check.races_total);
  EXPECT_GT(pr.program[0].check.accesses, 0u);
}

}  // namespace
}  // namespace paxsim::harness
