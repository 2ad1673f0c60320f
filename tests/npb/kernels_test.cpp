// Tests for the NPB-like kernel suite: registry round-trips, and — the
// load-bearing property — every kernel runs to completion and passes its
// numeric verification, across problem classes and thread counts.
#include "npb/kernel.hpp"

#include <gtest/gtest.h>

#include "harness/config.hpp"
#include "npb/rng.hpp"
#include "xomp/team.hpp"

namespace paxsim::npb {
namespace {

TEST(KernelRegistryTest, NamesRoundTrip) {
  for (const Benchmark b : kAllBenchmarks) {
    Benchmark parsed;
    ASSERT_TRUE(parse_benchmark(benchmark_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Benchmark out;
  EXPECT_TRUE(parse_benchmark("cg", out));
  EXPECT_EQ(out, Benchmark::kCG);
  EXPECT_FALSE(parse_benchmark("XX", out));
  EXPECT_FALSE(parse_benchmark("CGX", out));
  EXPECT_FALSE(parse_benchmark("", out));
}

TEST(KernelRegistryTest, FactoryMakesEveryKernel) {
  for (const Benchmark b : kAllBenchmarks) {
    const auto k = make_kernel(b);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->id(), b);
    EXPECT_GT(k->name().size(), 0u);
  }
}

TEST(RngTest, MatchesRandlcAlgebra) {
  // x' = a*x mod 2^46; spot-check against a direct 128-bit computation.
  NpbRandom r(314159265);
  const double v1 = r.next();
  EXPECT_GT(v1, 0.0);
  EXPECT_LT(v1, 1.0);
  const unsigned __int128 prod =
      static_cast<unsigned __int128>(1220703125ull) * 314159265ull;
  const std::uint64_t expect =
      static_cast<std::uint64_t>(prod) & ((1ull << 46) - 1);
  EXPECT_EQ(r.state(), expect);
}

TEST(RngTest, SkipMatchesSequentialDraws) {
  NpbRandom a(7), b(7);
  for (int i = 0; i < 1000; ++i) a.next();
  b.skip(1000);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  NpbRandom a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

// ---------------------------------------------------------------------------
// The suite-wide correctness property: every benchmark verifies after a full
// run on every thread-count layout.
// ---------------------------------------------------------------------------

struct RunCase {
  Benchmark bench;
  ProblemClass cls;
  const char* config;  // Table-1 configuration to run on
};

class KernelRunTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(KernelRunTest, RunsAndVerifies) {
  const RunCase rc = GetParam();
  const harness::StudyConfig* cfg = harness::find_config(rc.config);
  ASSERT_NE(cfg, nullptr);

  sim::MachineParams params = sim::MachineParams{}.scaled(16);
  sim::Machine machine(params);
  sim::AddressSpace space(0);
  perf::CounterSet counters;

  auto kernel = make_kernel(rc.bench);
  kernel->setup(space, ProblemConfig{rc.cls, 314159265});
  EXPECT_GT(kernel->footprint_bytes(), 0u);

  xomp::Team team(machine, cfg->cpus, &counters, space);
  for (int chip = 0; chip < params.topology.packages; ++chip) {
    for (int core = 0; core < params.topology.cores_per_package; ++core) {
      int n = 0;
      for (const auto c : cfg->cpus) {
        if (c.chip == chip && c.core == core) ++n;
      }
      machine.core(chip, core).set_active_contexts(std::max(1, n));
    }
  }

  ASSERT_GT(kernel->total_steps(), 0);
  for (int s = 0; s < kernel->total_steps(); ++s) kernel->step(team, s);
  team.flush();

  EXPECT_TRUE(kernel->verify())
      << kernel->name() << " class " << class_name(rc.cls) << " on "
      << rc.config;
  EXPECT_GT(team.wall_time(), 0.0);
  EXPECT_GT(counters.get(perf::Event::kInstructions), 0u);
  EXPECT_GT(counters.get(perf::Event::kL1dReferences), 0u);
}

std::string case_name(const ::testing::TestParamInfo<RunCase>& info) {
  std::string n = std::string(benchmark_name(info.param.bench)) + "_" +
                  std::string(class_name(info.param.cls)) + "_";
  for (const char c : std::string_view(info.param.config)) {
    n += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return n;
}

std::vector<RunCase> all_cases() {
  std::vector<RunCase> v;
  // Every benchmark, class S, on serial + an SMT + the full machine.
  for (const Benchmark b : kAllBenchmarks) {
    v.push_back({b, ProblemClass::kClassS, "Serial"});
    v.push_back({b, ProblemClass::kClassS, "HT on -2-1"});
    v.push_back({b, ProblemClass::kClassS, "HT on -8-2"});
    // Class W on the CMP-based SMP exercises bigger footprints in parallel.
    v.push_back({b, ProblemClass::kClassW, "HT off -4-2"});
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Suite, KernelRunTest, ::testing::ValuesIn(all_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Numeric determinism: the same seed must produce identical results no
// matter which hardware configuration executed the kernel.
// ---------------------------------------------------------------------------

class KernelDeterminismTest : public ::testing::TestWithParam<Benchmark> {};

TEST_P(KernelDeterminismTest, VerifiesIdenticallyAcrossLayouts) {
  // The kernels' verify() checks numeric invariants; beyond that, wall time
  // must be reproducible for the same (seed, layout) pair.
  const Benchmark b = GetParam();
  auto run_wall = [&](const char* cfg_name) {
    const harness::StudyConfig* cfg = harness::find_config(cfg_name);
    sim::MachineParams params = sim::MachineParams{}.scaled(16);
    sim::Machine machine(params);
    sim::AddressSpace space(0);
    perf::CounterSet counters;
    auto kernel = make_kernel(b);
    kernel->setup(space, ProblemConfig{ProblemClass::kClassS, 42});
    xomp::Team team(machine, cfg->cpus, &counters, space);
    for (int s = 0; s < kernel->total_steps(); ++s) kernel->step(team, s);
    EXPECT_TRUE(kernel->verify());
    return team.wall_time();
  };
  const double w1 = run_wall("HT off -2-1");
  const double w2 = run_wall("HT off -2-1");
  EXPECT_DOUBLE_EQ(w1, w2) << "simulation must be bit-deterministic";
}

INSTANTIATE_TEST_SUITE_P(Suite, KernelDeterminismTest,
                         ::testing::ValuesIn(std::vector<Benchmark>(
                             std::begin(kAllBenchmarks), std::end(kAllBenchmarks))),
                         [](const auto& param_info) {
                           return std::string(benchmark_name(param_info.param));
                         });

}  // namespace
}  // namespace paxsim::npb
