// Workload-signature tests: each suite member exists in the study because
// of a *distinct* micro-architectural behaviour (memory-latency-bound CG,
// bandwidth-bound MG/SP, compute-bound FT/BT/EP, synchronisation-bound LU,
// scatter-bound IS).  These tests pin those signatures down quantitatively
// so a refactor cannot silently turn one workload into another — which
// would invalidate every paper-shape result downstream.
#include <gtest/gtest.h>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "perf/metrics.hpp"

namespace paxsim::npb {
namespace {

using perf::Event;

harness::RunOptions quick(ProblemClass cls = ProblemClass::kClassW) {
  harness::RunOptions opt;
  opt.cls = cls;
  opt.trials = 1;
  return opt;
}

harness::RunResult serial_run(Benchmark b,
                              ProblemClass cls = ProblemClass::kClassW) {
  const auto opt = quick(cls);
  sim::Machine machine(opt.machine_params());
  return harness::run_serial(machine, b, opt, opt.trial_seed(0));
}

/// Class-W speedup of @p b on configuration @p cfg over its serial
/// baseline.
harness::TrialStats speedup(Benchmark b, const char* cfg) {
  harness::ExperimentEngine engine(1);
  return engine
      .run(harness::ExperimentPlan(quick(), {*harness::find_config(cfg)})
               .add_benchmark(b)
               .with_serial_baselines())
      .speedup_stats(b, 0);
}

double per_instr(const harness::RunResult& r, Event e) {
  return static_cast<double>(r.counters.get(e)) /
         static_cast<double>(r.counters.get(Event::kInstructions));
}

TEST(WorkloadSignatureTest, CgIsMemoryLatencyBound) {
  const auto r = serial_run(Benchmark::kCG);
  EXPECT_GT(r.metrics.stalled_fraction, 0.55)
      << "CG's chained gathers must dominate its execution";
  EXPECT_GT(r.counters.get(Event::kStallCyclesMemory),
            3 * r.counters.get(Event::kStallCyclesBranch))
      << "and the stalls must be predominantly memory stalls (CG also "
         "carries real mispredict stalls — its second signature)";
  EXPECT_GT(r.metrics.cpi, 2.0);
}

TEST(WorkloadSignatureTest, CgBranchesAreTheSuitesWorst) {
  const auto cg = serial_run(Benchmark::kCG);
  for (const Benchmark other :
       {Benchmark::kFT, Benchmark::kBT, Benchmark::kSP, Benchmark::kLU}) {
    const auto r = serial_run(other);
    EXPECT_LT(cg.metrics.branch_prediction_rate,
              r.metrics.branch_prediction_rate)
        << "CG's variable-trip inner loops must predict worst vs "
        << benchmark_name(other);
  }
}

TEST(WorkloadSignatureTest, FtIsComputeBound) {
  const auto r = serial_run(Benchmark::kFT);
  EXPECT_LT(r.metrics.stalled_fraction, 0.35)
      << "FT's butterflies must dominate over its streaming";
  EXPECT_LT(r.metrics.cpi, 1.5);
}

TEST(WorkloadSignatureTest, EpTouchesAlmostNoMemory) {
  const auto ep = serial_run(Benchmark::kEP);
  const auto cg = serial_run(Benchmark::kCG);
  EXPECT_LT(per_instr(ep, Event::kBusTransactions),
            per_instr(cg, Event::kBusTransactions) / 50.0)
      << "EP is the no-memory yardstick";
  // EP does stall — but on its data-dependent acceptance *branch*, not on
  // memory: that asymmetry is EP's signature.
  EXPECT_LT(ep.metrics.stalled_fraction, 0.45);
  EXPECT_GT(ep.counters.get(Event::kStallCyclesBranch),
            5 * ep.counters.get(Event::kStallCyclesMemory));
}

TEST(WorkloadSignatureTest, EpScalesNearlyLinearlyOnRealCores) {
  const auto st = speedup(Benchmark::kEP, "HT off -4-2");
  EXPECT_GT(st.mean, 3.3) << "4 cores on an embarrassingly parallel kernel";
}

TEST(WorkloadSignatureTest, MgIsPrefetchFriendlyAndBandwidthHungry) {
  const auto r = serial_run(Benchmark::kMG);
  EXPECT_GT(r.metrics.prefetch_bus_fraction, 0.3)
      << "MG's stencil streams must engage the stream prefetcher";
  // Bandwidth-bound: one extra core on the same package buys little.
  const auto cmp = speedup(Benchmark::kMG, "HT off -2-1");
  EXPECT_LT(cmp.mean, 1.7) << "one package's bus caps MG";
}

TEST(WorkloadSignatureTest, SpMovesFarMoreDataThanBt) {
  // Same grid, same solves: SP re-sweeps the interleaved field once per
  // component (5x the line traffic of BT's single blocked pass).
  const auto sp = serial_run(Benchmark::kSP, ProblemClass::kClassS);
  const auto bt = serial_run(Benchmark::kBT, ProblemClass::kClassS);
  const double sp_reads_per_step =
      static_cast<double>(sp.counters.get(Event::kL1dReferences));
  const double bt_reads_per_step =
      static_cast<double>(bt.counters.get(Event::kL1dReferences));
  EXPECT_GT(sp_reads_per_step, 2.5 * bt_reads_per_step);
}

TEST(WorkloadSignatureTest, BtOutcomputesSp) {
  const auto sp = serial_run(Benchmark::kSP, ProblemClass::kClassS);
  const auto bt = serial_run(Benchmark::kBT, ProblemClass::kClassS);
  // Arithmetic per memory operation: BT's 5x5 block work is denser.
  const double bt_density =
      static_cast<double>(bt.counters.get(Event::kInstructions)) /
      static_cast<double>(bt.counters.get(Event::kL1dReferences));
  const double sp_density =
      static_cast<double>(sp.counters.get(Event::kInstructions)) /
      static_cast<double>(sp.counters.get(Event::kL1dReferences));
  EXPECT_GT(bt_density, 1.3 * sp_density);
}

TEST(WorkloadSignatureTest, IsStressesTheDtlb) {
  const auto is = serial_run(Benchmark::kIS);
  const auto ft = serial_run(Benchmark::kFT);
  EXPECT_GT(per_instr(is, Event::kDtlbLoadMisses) +
                per_instr(is, Event::kDtlbStoreMisses),
            2.0 * (per_instr(ft, Event::kDtlbLoadMisses) +
                   per_instr(ft, Event::kDtlbStoreMisses)))
      << "IS's scatter must out-miss FT's streams per instruction";
}

TEST(WorkloadSignatureTest, LuIsSynchronisationLimited) {
  // LU runs one parallel region per k-plane: at 8 threads its runtime
  // (front-end + barrier) overhead share must exceed the blocked solvers'.
  const auto lu = speedup(Benchmark::kLU, "HT on -8-2");
  const auto bt = speedup(Benchmark::kBT, "HT on -8-2");
  EXPECT_LT(lu.mean, bt.mean)
      << "plane-at-a-time parallelism must scale worse than line sweeps";
}

TEST(WorkloadSignatureTest, CgGatherDefeatsThePrefetcherMoreThanMg) {
  const auto cg = serial_run(Benchmark::kCG);
  const auto mg = serial_run(Benchmark::kMG);
  const double cg_cover =
      static_cast<double>(cg.counters.get(Event::kPrefetchesUseful)) /
      static_cast<double>(cg.counters.get(Event::kL2References) + 1);
  const double mg_cover =
      static_cast<double>(mg.counters.get(Event::kPrefetchesUseful)) /
      static_cast<double>(mg.counters.get(Event::kL2References) + 1);
  EXPECT_LT(cg_cover, mg_cover)
      << "indirect gathers are less coverable than stencil streams";
}

TEST(WorkloadSignatureTest, FootprintsScaleWithClass) {
  for (const Benchmark b : kAllBenchmarks) {
    sim::AddressSpace s1(0), s2(1);
    auto small = make_kernel(b);
    auto big = make_kernel(b);
    small->setup(s1, ProblemConfig{ProblemClass::kClassS, 1});
    big->setup(s2, ProblemConfig{ProblemClass::kClassB, 1});
    if (b != Benchmark::kEP) {  // EP's state is ten tallies at any class
      EXPECT_GT(big->footprint_bytes(), small->footprint_bytes())
          << benchmark_name(b);
    }
    EXPECT_GE(big->total_steps(), small->total_steps()) << benchmark_name(b);
  }
}

TEST(WorkloadSignatureTest, ClassBWorkingSetsExceedTheScaledL2) {
  // The study regime: every class-B benchmark except EP must out-size one
  // core's (scaled) L2, or the cache-pressure results would be vacuous.
  const std::size_t l2 =
      sim::MachineParams{}.scaled(16).topology.levels[1].geometry.size_bytes;
  for (const Benchmark b : kAllBenchmarks) {
    if (b == Benchmark::kEP) continue;
    sim::AddressSpace space(0);
    auto k = make_kernel(b);
    k->setup(space, ProblemConfig{ProblemClass::kClassB, 1});
    EXPECT_GT(k->footprint_bytes(), l2) << benchmark_name(b);
  }
}

}  // namespace
}  // namespace paxsim::npb
