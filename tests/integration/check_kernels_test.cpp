// End-to-end checks of the analysis subsystem against real kernels:
//  * the seeded-racy diagnostic kernels (RW, RF) must be flagged with the
//    right conflict kinds on a multi-threaded configuration;
//  * every shipped suite kernel must come back clean under --check=full on
//    Serial, HT-off and HT-on configurations (class S keeps it fast), and
//    under --check=invariants on every row of every machine preset;
//  * IS verifies, and is clean under --check=full, under every dynamic and
//    guided schedule override on each machine preset's widest row;
//  * an inert (--check=off) checker leaves results bit-identical to an
//    unchecked run;
//  * a race record numbers its cpu by the machine's own topology.
//
// Each test attaches a check::Checker to the machine it runs on, the way
// `paxsim --check` does, and reads the report from finish().
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "check/checker.hpp"
#include "harness/config.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

RunOptions small_options() {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  return opt;
}

/// One run with a checker attached: its result and the checker's report.
struct Checked {
  RunResult run;
  check::CheckReport check;
};

Checked run_checked(sim::Machine& machine, npb::Benchmark b,
                    const StudyConfig& cfg, const RunOptions& opt,
                    sim::CheckMode mode) {
  check::Checker checker(machine, mode);
  Checked out;
  out.run = run_single(machine, b, cfg, opt, opt.trial_seed(0));
  out.check = checker.finish();
  return out;
}

Checked run_checked(npb::Benchmark b, const char* config,
                    sim::CheckMode mode) {
  const StudyConfig* cfg = find_config(config);
  EXPECT_NE(cfg, nullptr) << config;
  const RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  return run_checked(machine, b, *cfg, opt, mode);
}

TEST(CheckKernelsTest, RacyHistogramIsFlaggedWriteWrite) {
  const Checked r =
      run_checked(npb::Benchmark::kRacyHist, "HT off -4-2",
                  sim::CheckMode::kFull);
  EXPECT_TRUE(r.run.verified);
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
  const Checked r =
      run_checked(npb::Benchmark::kRacyFlag, "HT off -4-2",
                  sim::CheckMode::kRace);
  EXPECT_TRUE(r.run.verified);
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
  const Checked r = run_checked(npb::Benchmark::kRacyHist, "Serial",
                                sim::CheckMode::kFull);
  EXPECT_TRUE(r.run.verified);
  EXPECT_TRUE(r.check.clean())
      << r.check.races_total << " races, " << r.check.violations_total
      << " violations";
}

TEST(CheckKernelsTest, SuiteIsCleanUnderFullChecking) {
  const char* const configs[] = {"Serial", "HT off -4-2", "HT on -8-2"};
  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    for (const char* cfg : configs) {
      const Checked r = run_checked(b, cfg, sim::CheckMode::kFull);
      EXPECT_TRUE(r.run.verified) << npb::benchmark_name(b) << " @ " << cfg;
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
  RunOptions opt = small_options();
  opt.topology = std::make_shared<const sim::Topology>(
      *sim::Topology::from_preset(GetParam()));
  sim::Machine machine(opt.machine_params());
  for (const StudyConfig& cfg : configs_for(*opt.topology)) {
    for (const npb::Benchmark b : npb::kAllBenchmarks) {
      const Checked r =
          run_checked(machine, b, cfg, opt, sim::CheckMode::kInvariants);
      const std::string cell =
          std::string(npb::benchmark_name(b)) + " @ " + cfg.name;
      EXPECT_TRUE(r.run.verified) << cell;
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
    RunOptions opt = small_options();
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
        const Checked r = run_checked(machine, npb::Benchmark::kIS, cfg, opt,
                                      sim::CheckMode::kFull);
        EXPECT_TRUE(r.run.verified);
        EXPECT_TRUE(r.check.clean());
      }
    }
  }
}

TEST(CheckKernelsTest, RaceRecordsNumberCpusByTheMachine) {
  // numa16 has 4 cores per chip: each printed record's cpu number must be
  // Topology::flat of its (chip, core, ctx), not a Paxville-shaped number.
  RunOptions opt = small_options();
  const sim::Topology numa = sim::Topology::numa16();
  opt.topology = std::make_shared<const sim::Topology>(numa);
  const StudyConfig widest = configs_for(numa).back();
  ASSERT_EQ(widest.name, "HT off -16-4");
  sim::Machine machine(opt.machine_params());
  const Checked r = run_checked(machine, npb::Benchmark::kRacyHist, widest,
                                opt, sim::CheckMode::kRace);
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
  // An inert checker attaches nothing: the machine keeps its fast path.
  const StudyConfig* cfg = find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const RunOptions opt = small_options();
  sim::Machine off_machine(opt.machine_params());
  const Checked a = run_checked(off_machine, npb::Benchmark::kCG, *cfg, opt,
                                sim::CheckMode::kOff);
  sim::Machine plain_machine(opt.machine_params());
  const RunResult b = run_single(plain_machine, npb::Benchmark::kCG, *cfg,
                                 opt, opt.trial_seed(0));
  EXPECT_EQ(a.run.wall_cycles, b.wall_cycles);
  EXPECT_EQ(a.run.counters, b.counters);
  EXPECT_EQ(a.check.accesses, 0u);
  EXPECT_TRUE(a.check.clean());
}

TEST(CheckKernelsTest, CheckedRunMatchesUncheckedNumerics) {
  // The analyses are observers: attaching them must not change the numbers
  // the program computes (virtual time may differ — the reference path
  // replaces the fast path — but verification and event totals must hold).
  const Checked r = run_checked(npb::Benchmark::kEP, "HT on -8-2",
                                sim::CheckMode::kFull);
  EXPECT_TRUE(r.run.verified);
  EXPECT_GT(r.check.team_events, 0u);
  EXPECT_GT(r.check.syncs, 0u);
}

TEST(CheckKernelsTest, PairRunSharesOneMachineWideReport) {
  // The checker observes the whole machine, so one report covers both
  // programs: it sees more traffic than either program run alone.
  const StudyConfig* cfg = find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const RunOptions opt = small_options();
  sim::Machine machine(opt.machine_params());
  check::Checker checker(machine, sim::CheckMode::kFull);
  const PairResult pr = run_pair(machine, npb::Benchmark::kEP,
                                 npb::Benchmark::kIS, *cfg, opt,
                                 opt.trial_seed(0));
  const check::CheckReport report = checker.finish();
  EXPECT_TRUE(pr.program[0].verified);
  EXPECT_TRUE(pr.program[1].verified);
  EXPECT_TRUE(report.clean());
  const Checked ep = run_checked(machine, npb::Benchmark::kEP, *cfg, opt,
                                 sim::CheckMode::kFull);
  EXPECT_GT(report.accesses, ep.check.accesses);
}

}  // namespace
}  // namespace paxsim::harness
