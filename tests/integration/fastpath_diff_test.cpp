// Differential proof of the hot-path overhaul: every NPB benchmark produces
// an identical counter table and an identical wall time whether memory
// accesses take the inlined L1/DTLB fast path or the out-of-line reference
// path (MachineParams::fast_path = false).  Checked on the paper's serial,
// 4-thread (HT off -4-2) and 8-thread (HT on -8-2) configurations, and on
// the Serial and widest rows of the woodcrest and numa16 presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace paxsim::harness {
namespace {

/// Runs every kernel on @p configs through both paths of @p opt's machine
/// and expects bit-identical counters and wall cycles.
void expect_paths_identical(const RunOptions& opt,
                            const std::vector<const StudyConfig*>& configs,
                            const char* machine_name) {
  sim::MachineParams fast_params = opt.machine_params();
  fast_params.fast_path = true;
  sim::MachineParams ref_params = opt.machine_params();
  ref_params.fast_path = false;
  sim::Machine fast_machine(fast_params);
  sim::Machine ref_machine(ref_params);

  for (const StudyConfig* cfg : configs) {
    for (const npb::Benchmark bench : npb::kAllBenchmarks) {
      const std::uint64_t seed = opt.trial_seed(0);
      const RunResult fast = run_single(fast_machine, bench, *cfg, opt, seed);
      const RunResult ref = run_single(ref_machine, bench, *cfg, opt, seed);
      EXPECT_EQ(fast.counters, ref.counters)
          << npb::benchmark_name(bench) << " on '" << cfg->name << "' ("
          << machine_name
          << "): counter tables differ between fast and reference paths";
      EXPECT_EQ(fast.wall_cycles, ref.wall_cycles)
          << npb::benchmark_name(bench) << " on '" << cfg->name << "' ("
          << machine_name
          << "): wall time differs (must be exact, not approximate)";
    }
  }
}

TEST(FastPathDiffTest, CountersAndWallBitIdenticalAcrossPaths) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.verify = false;  // verification is orthogonal; class S keeps this fast

  std::vector<const StudyConfig*> configs;
  for (const char* name : {"Serial", "HT off -4-2", "HT on -8-2"}) {
    const StudyConfig* cfg = find_config(name);
    ASSERT_NE(cfg, nullptr) << name;
    configs.push_back(cfg);
  }
  expect_paths_identical(opt, configs, "paxville");
}

TEST(FastPathDiffTest, SerialAndWidestRowsBitIdenticalOnOtherPresets) {
  for (const char* preset : {"woodcrest", "numa16"}) {
    RunOptions opt;
    opt.cls = npb::ProblemClass::kClassS;
    // Verified, so the widest rows (16 threads on numa16) also prove the
    // kernels' per-rank state holds teams wider than the paper's 8.
    opt.verify = true;
    opt.topology = std::make_shared<const sim::Topology>(
        *sim::Topology::from_preset(preset));
    const std::vector<StudyConfig> rows = configs_for(*opt.topology);
    const auto widest = std::max_element(
        rows.begin(), rows.end(), [](const StudyConfig& a, const StudyConfig& b) {
          return a.threads < b.threads;
        });
    ASSERT_EQ(rows.front().name, "Serial") << preset;
    expect_paths_identical(opt, {&rows.front(), &*widest}, preset);
  }
}

}  // namespace
}  // namespace paxsim::harness
