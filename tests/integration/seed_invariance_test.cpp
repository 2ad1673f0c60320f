// The seed-identity rule behind trial dedup: npb::seed_reaches_simulator
// declares, per kernel, whether a trial seed can change what the simulator
// sees, and harness::CellKey::from names every trial of an undeclared
// kernel as one cell.  These tests hold the declaration to the simulator
// (run_single on a bare machine, never the engine, whose dedup would hide
// a wrong declaration) and keep the numerics check the engine now makes at
// one seed only.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

std::vector<npb::Benchmark> every_kernel() {
  std::vector<npb::Benchmark> v(std::begin(npb::kAllBenchmarks),
                                std::end(npb::kAllBenchmarks));
  v.insert(v.end(), std::begin(npb::kRacyBenchmarks),
           std::end(npb::kRacyBenchmarks));
  return v;
}

bool same_simulation(const RunResult& x, const RunResult& y) {
  return x.wall_cycles == y.wall_cycles && x.counters == y.counters;
}

// Every kernel at trial seeds 0..2 on Serial and the widest row of one
// preset: wall cycles and every counter agree across the seeds exactly when
// the kernel declares that its seed does not reach the simulator.  One test
// per preset so ctest can spread the sweep.
class SeedInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SeedInvarianceTest, RunsAgreeAcrossSeedsExactlyWhenDeclared) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.topology = std::make_shared<const sim::Topology>(
      *sim::Topology::from_preset(GetParam()));
  const std::vector<StudyConfig> rows = configs_for(*opt.topology);
  sim::Machine machine(opt.machine_params());
  for (const StudyConfig* cfg : {&rows.front(), &rows.back()}) {
    for (const npb::Benchmark b : every_kernel()) {
      const RunResult first =
          run_single(machine, b, *cfg, opt, opt.trial_seed(0));
      bool invariant = true;
      for (int t = 1; t < 3; ++t) {
        const RunResult r =
            run_single(machine, b, *cfg, opt, opt.trial_seed(t));
        invariant = invariant && same_simulation(first, r);
      }
      EXPECT_EQ(invariant, !npb::seed_reaches_simulator(b))
          << npb::benchmark_name(b) << " @ " << cfg->name << " is declared "
          << (npb::seed_reaches_simulator(b) ? "seed-reaching"
                                             : "seed-invariant");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SeedInvarianceTest,
    ::testing::ValuesIn(sim::Topology::preset_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The engine verifies a seed-invariant kernel at kDefaultSeed only; its
// numerics must still hold at every trial seed a default plan names.
TEST(TrialSeedNumericsTest, InvariantKernelsVerifyAtEveryTrialSeed) {
  for (const npb::ProblemClass cls :
       {npb::ProblemClass::kClassS, npb::ProblemClass::kClassW}) {
    RunOptions opt;
    opt.cls = cls;
    sim::Machine machine(opt.machine_params());
    for (const npb::Benchmark b : every_kernel()) {
      if (npb::seed_reaches_simulator(b)) continue;
      for (int t = 0; t < 3; ++t) {
        EXPECT_TRUE(run_single(machine, b, serial_config(), opt,
                               opt.trial_seed(t))
                        .verified)
            << npb::benchmark_name(b) << " class " << npb::class_name(cls)
            << " trial " << t;
      }
    }
  }
}

}  // namespace
}  // namespace paxsim::harness
