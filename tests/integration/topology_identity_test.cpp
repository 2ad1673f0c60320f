// The hard invariant of the topology refactor: the default machine
// (RunOptions with no --machine) must be bit-identical to one built from
// the explicit `paxville` preset — same counter tables, same wall cycles —
// for every NPB kernel on the Serial, HT-off and HT-on representative
// configurations, on the fast path AND the reference path.
// A non-default preset must also behave: the shared-L2 `woodcrest` machine
// runs the suite verified and paxcheck-clean under --check=full.
#include <gtest/gtest.h>

#include <memory>

#include "check/checker.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

TEST(TopologyIdentityTest, ExplicitPaxvilleIsBitIdenticalToDefault) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.verify = false;

  RunOptions topo_opt = opt;
  topo_opt.topology =
      std::make_shared<const sim::Topology>(sim::Topology::paxville());

  for (const bool fast : {true, false}) {
    sim::MachineParams def_params = opt.machine_params();
    def_params.fast_path = fast;
    sim::MachineParams topo_params = topo_opt.machine_params();
    topo_params.fast_path = fast;
    sim::Machine def_machine(def_params);
    sim::Machine topo_machine(topo_params);

    const char* config_names[] = {"Serial", "HT off -4-2", "HT on -8-2"};
    for (const char* name : config_names) {
      const StudyConfig* cfg = find_config(name);
      ASSERT_NE(cfg, nullptr) << name;
      for (const npb::Benchmark bench : npb::kAllBenchmarks) {
        const std::uint64_t seed = opt.trial_seed(0);
        const RunResult def = run_single(def_machine, bench, *cfg, opt, seed);
        const RunResult topo =
            run_single(topo_machine, bench, *cfg, topo_opt, seed);
        EXPECT_EQ(def.counters, topo.counters)
            << npb::benchmark_name(bench) << " on '" << name << "' (fast="
            << fast << "): counters differ between the default machine and "
            << "the explicit paxville topology";
        EXPECT_EQ(def.wall_cycles, topo.wall_cycles)
            << npb::benchmark_name(bench) << " on '" << name << "' (fast="
            << fast << "): wall cycles differ (must be exact)";
      }
    }
  }
}

TEST(TopologyIdentityTest, WoodcrestSuiteIsCleanUnderFullChecking) {
  // The shared-L2 preset exercises the per-chip coherence domain; every
  // suite kernel must verify and come back race- and violation-free.
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  const sim::Topology wc = sim::Topology::woodcrest();
  opt.topology = std::make_shared<const sim::Topology>(wc);

  sim::Machine machine(opt.machine_params());
  const std::vector<StudyConfig> configs = configs_for(wc);
  // Serial plus the widest all-cores configuration.
  const int full = find_config_index(configs, "HT off -4-2");
  ASSERT_GE(full, 0);
  for (const StudyConfig* cfg :
       {&configs.front(), &configs[static_cast<std::size_t>(full)]}) {
    for (const npb::Benchmark b : npb::kAllBenchmarks) {
      check::Checker checker(machine, sim::CheckMode::kFull);
      const RunResult r = run_single(machine, b, *cfg, opt, opt.trial_seed(0));
      const check::CheckReport report = checker.finish();
      EXPECT_TRUE(r.verified)
          << npb::benchmark_name(b) << " on '" << cfg->name << "'";
      EXPECT_TRUE(report.clean())
          << npb::benchmark_name(b) << " on '" << cfg->name << "': "
          << report.races_total << " races, " << report.violations_total
          << " violations";
    }
  }
}

}  // namespace
}  // namespace paxsim::harness
