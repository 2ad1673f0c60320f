// Observer-effect proof for the profiling pass: attaching the model
// profiler (a model::Profiler sink, whose attachment forces the reference
// path) must not change a single counter or the wall time of any
// benchmark's serial run relative to the default fast-path run — on the
// very machine that just ran that fast-path run.  This is what makes the
// profiled run's own counters usable as the model's measured anchor.
#include <gtest/gtest.h>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"

namespace paxsim::harness {
namespace {

TEST(ProfileIdentityTest, ProfiledSerialRunIsBitIdentical) {
  RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.verify = false;

  sim::Machine machine(opt.machine_params());
  for (const npb::Benchmark bench : npb::kAllBenchmarks) {
    const std::uint64_t seed = opt.trial_seed(0);
    const RunResult plain = run_serial(machine, bench, opt, seed);
    const ProfiledRun profiled = run_profiled_serial(machine, bench, opt, seed);

    EXPECT_EQ(plain.counters, profiled.result.counters)
        << npb::benchmark_name(bench)
        << ": profiling perturbed the counter table";
    EXPECT_EQ(plain.wall_cycles, profiled.result.wall_cycles)
        << npb::benchmark_name(bench)
        << ": profiling perturbed the wall time (must be exact)";

    // The anchor is those same counters, verbatim.
    EXPECT_TRUE(profiled.profile.anchor.valid);
    EXPECT_EQ(profiled.profile.anchor.wall_cycles, plain.wall_cycles)
        << npb::benchmark_name(bench);
  }
}

}  // namespace
}  // namespace paxsim::harness
