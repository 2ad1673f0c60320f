// Tests for the analytical layer: placement extraction from Table-1 rows,
// the anchoring contract (the Serial configuration reproduces the profiled
// run's measured wall time and CPI by construction), and structural sanity
// of the predictions the harness-facing entry points return.
#include "model/predict.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "npb/kernel.hpp"

namespace paxsim::model {
namespace {

harness::RunOptions quick_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.verify = false;
  return opt;
}

const harness::StudyConfig& config(const char* name) {
  const harness::StudyConfig* cfg = harness::find_config(name);
  EXPECT_NE(cfg, nullptr) << name;
  return *cfg;
}

/// The model's placement of Table-1 row @p name on the paper's machine.
Placement placement(const char* name) {
  return harness::placement_for(config(name), sim::Topology::paxville());
}

TEST(PlacementTest, TableOneRowsMapToExpectedShapes) {
  const Placement serial = placement("Serial");
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(serial.cores_used, 1);
  EXPECT_EQ(serial.chips_used, 1);
  EXPECT_EQ(serial.contexts_per_core, 1);

  const Placement off4 = placement("HT off -4-2");
  EXPECT_EQ(off4.threads, 4);
  EXPECT_EQ(off4.cores_used, 4);
  EXPECT_EQ(off4.chips_used, 2);
  EXPECT_EQ(off4.contexts_per_core, 1);

  const Placement on8 = placement("HT on -8-2");
  EXPECT_EQ(on8.threads, 8);
  EXPECT_EQ(on8.cores_used, 4);
  EXPECT_EQ(on8.chips_used, 2);
  EXPECT_EQ(on8.contexts_per_core, 2);

  const Placement on2 = placement("HT on -2-1");
  EXPECT_EQ(on2.threads, 2);
  EXPECT_EQ(on2.cores_used, 1);
  EXPECT_EQ(on2.chips_used, 1);
  EXPECT_EQ(on2.contexts_per_core, 2);
}

TEST(PredictTest, SerialReproducesTheMeasuredAnchor) {
  // Anchoring contract: with the anchor filled from the profiling run's own
  // counters, the Serial prediction is that run — wall time, CPI and
  // speedup exactly (to rounding), not approximately.
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  const harness::StudyConfig& serial_cfg = config("Serial");

  for (const npb::Benchmark b : npb::kAllBenchmarks) {
    const harness::RunResult measured = engine.serial(b, opt, seed);
    const harness::PredictionResult pr =
        engine.predict(b, serial_cfg, opt, seed);
    const Prediction& p = pr.prediction;
    EXPECT_NEAR(p.wall_cycles / measured.wall_cycles, 1.0, 1e-6)
        << npb::benchmark_name(b);
    EXPECT_NEAR(p.metrics.cpi / measured.metrics.cpi, 1.0, 1e-6)
        << npb::benchmark_name(b);
    EXPECT_NEAR(p.speedup, 1.0, 1e-6) << npb::benchmark_name(b);
    EXPECT_NEAR(p.serial_wall_cycles, p.wall_cycles, 1e-6)
        << npb::benchmark_name(b);
  }
}

TEST(PredictTest, ParallelPredictionsAreStructurallySane) {
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);

  for (const char* name : {"HT off -4-2", "HT on -8-2"}) {
    const harness::StudyConfig& cfg = config(name);
    for (const npb::Benchmark b : npb::kAllBenchmarks) {
      const Prediction p = engine.predict(b, cfg, opt, seed).prediction;
      // Consistency of the headline numbers.
      EXPECT_GT(p.wall_cycles, 0.0) << name;
      EXPECT_NEAR(p.speedup, p.serial_wall_cycles / p.wall_cycles, 1e-9)
          << name;
      EXPECT_GT(p.speedup, 0.5) << npb::benchmark_name(b) << " " << name;
      EXPECT_LT(p.speedup, 8.0) << npb::benchmark_name(b) << " " << name;
      // Expected counts are non-negative and nested where nesting holds.
      EXPECT_GE(p.l1d_misses, 0.0);
      EXPECT_LE(p.l1d_misses, p.l1d_refs);
      EXPECT_LE(p.l2_misses, p.l2_refs + 1e-9);
      EXPECT_LE(p.tc_misses, p.tc_refs + 1e-9);
      EXPECT_GE(p.coherence_transfers, 0.0);
      // Rates live in [0, 1]; utilisation can saturate but not exceed 1.
      EXPECT_GE(p.metrics.l2_miss_rate, 0.0);
      EXPECT_LE(p.metrics.l2_miss_rate, 1.0);
      EXPECT_GE(p.metrics.l1d_miss_rate, 0.0);
      EXPECT_LE(p.metrics.l1d_miss_rate, 1.0);
      EXPECT_GE(p.mc_utilization, 0.0);
      EXPECT_LE(p.mc_utilization, 1.0 + 1e-9);
    }
  }
}

TEST(PredictTest, ProfileIsMemoizedAcrossConfigurations) {
  // One profiled serial run serves every configuration: the second
  // predict() for the same kernel must answer from the memo cache.
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);

  const harness::PredictionResult first =
      engine.predict(npb::Benchmark::kFT, config("HT off -4-2"), opt, seed);
  EXPECT_FALSE(first.profile_reused);
  EXPECT_GT(first.profile_host_sec, 0.0);

  const harness::PredictionResult second =
      engine.predict(npb::Benchmark::kFT, config("HT on -8-2"), opt, seed);
  EXPECT_TRUE(second.profile_reused);
  EXPECT_EQ(second.profile_host_sec, 0.0);
  // The analytical evaluation itself is the instant tier.
  EXPECT_LT(second.predict_host_sec, first.profile_host_sec);
}

TEST(PredictTest, SeedInvariantKernelProfilesOnceAcrossTrialSeeds) {
  // MG's seed never reaches the simulator: every trial seed names the one
  // profile and the one prediction.
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const harness::StudyConfig& cfg = config("HT off -4-2");
  const harness::PredictionResult first =
      engine.predict(npb::Benchmark::kMG, cfg, opt, opt.trial_seed(0));
  const harness::PredictionResult second =
      engine.predict(npb::Benchmark::kMG, cfg, opt, opt.trial_seed(1));
  EXPECT_FALSE(first.profile_reused);
  EXPECT_TRUE(second.profile_reused);
  static_assert(sizeof(Prediction) % sizeof(double) == 0,
                "Prediction holds doubles only: no padding to compare");
  EXPECT_EQ(std::memcmp(&first.prediction, &second.prediction,
                        sizeof(Prediction)),
            0);
}

TEST(PredictTest, SeedReachingKernelProfilesPerTrialSeed) {
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const harness::StudyConfig& cfg = config("HT off -4-2");
  EXPECT_FALSE(
      engine.predict(npb::Benchmark::kCG, cfg, opt, opt.trial_seed(0))
          .profile_reused);
  EXPECT_FALSE(
      engine.predict(npb::Benchmark::kCG, cfg, opt, opt.trial_seed(1))
          .profile_reused);
}

TEST(PredictTest, UnanchoredProfileStillPredicts) {
  // predict() must not require the anchor (a profile assembled outside the
  // harness has none): absolute scale is then fully modelled.
  harness::ExperimentEngine engine(1);
  const harness::RunOptions opt = quick_options();
  const std::uint64_t seed = opt.trial_seed(0);
  KernelProfile p = *engine.profile(npb::Benchmark::kEP, opt, seed);
  p.anchor = KernelProfile::Anchor{};  // wipe: unanchored evaluation

  const Placement place = placement("HT off -4-2");
  const Prediction pred = predict(p, opt.machine_params(), place);
  EXPECT_GT(pred.wall_cycles, 0.0);
  EXPECT_GT(pred.speedup, 1.0);  // EP scales on any reasonable model
  EXPECT_GT(pred.instructions, 0.0);
}

}  // namespace
}  // namespace paxsim::model
