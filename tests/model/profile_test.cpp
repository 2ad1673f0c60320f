// Tests for the profiling pass: a profiled serial run of a real kernel must
// yield a KernelProfile whose bookkeeping is internally consistent, and the
// kernel-structure signals the analytical layer depends on (IS's serial
// gather scan, static-schedule chunk accounting, the measured anchor) must
// be present where the kernel's structure implies them.
#include "model/profile.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/checker.hpp"
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

KernelProfile profiled(npb::Benchmark b) {
  const harness::RunOptions opt = quick_options();
  sim::Machine machine(opt.machine_params());
  return harness::run_profiled_serial(machine, b, opt, opt.trial_seed(0))
      .profile;
}

TEST(ThreadCountIndexTest, NearestNotAboveMatch) {
  EXPECT_EQ(thread_count_index(1), 0u);
  EXPECT_EQ(thread_count_index(2), 1u);
  EXPECT_EQ(thread_count_index(3), 1u);
  EXPECT_EQ(thread_count_index(4), 2u);
  EXPECT_EQ(thread_count_index(6), 2u);
  EXPECT_EQ(thread_count_index(8), 3u);
  EXPECT_EQ(thread_count_index(64), 3u);
}

TEST(ProfilerTest, BookkeepingConsistentOnCG) {
  const KernelProfile p = profiled(npb::Benchmark::kCG);

  // Access accounting: every load/store lands in every per-tau line
  // histogram exactly once.
  const std::uint64_t accesses = p.loads + p.stores;
  EXPECT_GT(accesses, 0u);
  for (std::size_t k = 0; k < kProfiledThreadCounts.size(); ++k) {
    EXPECT_EQ(p.line[k].total(), accesses) << "tau index " << k;
    EXPECT_EQ(p.store_line[k].total(), p.stores) << "tau index " << k;
    EXPECT_EQ(p.page[k].total(), accesses) << "tau index " << k;
  }
  EXPECT_EQ(p.word.total(), accesses);
  EXPECT_LE(p.chained_loads, p.loads);
  EXPECT_LE(p.par_accesses, accesses);

  // Instruction stream.
  EXPECT_GT(p.fetches, 0u);
  EXPECT_GE(p.uops, p.fetches);  // every block carries at least one uop
  EXPECT_LE(p.par_uops, p.uops);
  EXPECT_EQ(p.block.total(), p.fetches);
  EXPECT_EQ(p.code_page.total(), p.fetches);

  // CG's whole step is work-shared: the serial remainder is small (for CG,
  // zero — every uop sits inside fork..join).
  const double sf = p.serial_uop_fraction();
  EXPECT_GE(sf, 0.0);
  EXPECT_LT(sf, 0.5);

  // Loop structure observed, with sane static-schedule accounting.
  EXPECT_GT(p.loops, 0u);
  EXPECT_GT(p.iterations, 0u);
  EXPECT_GT(p.barriers, 0u);
  for (std::size_t k = 0; k < kProfiledThreadCounts.size(); ++k) {
    EXPECT_GE(p.imbalance(k), 1.0);
    EXPECT_GE(p.chunk_max_iters[k], p.chunk_mean_iters[k]);
  }
  // tau=1 has one chunk per loop covering everything: no imbalance.
  EXPECT_DOUBLE_EQ(p.imbalance(0), 1.0);

  // Footprint and stream detection.
  EXPECT_GT(p.distinct_lines, 0u);
  EXPECT_GE(p.distinct_pages, 1u);
  EXPECT_LE(p.distinct_pages, p.distinct_lines);
  EXPECT_LE(p.streamed, p.stream_candidates);

  // The measured anchor rides along.
  EXPECT_TRUE(p.anchor.valid);
  EXPECT_GT(p.anchor.wall_cycles, 0.0);
  EXPECT_GT(p.anchor.instructions, 0.0);
}

TEST(ProfilerTest, OwnerTransitionsNeverSelfDirected) {
  // A coherence transfer needs two distinct owners; the [from==to]
  // diagonal must stay empty for every tau.
  for (const npb::Benchmark b :
       {npb::Benchmark::kCG, npb::Benchmark::kIS, npb::Benchmark::kEP}) {
    const KernelProfile p = profiled(b);
    for (std::size_t k = 0; k < p.owner_transitions.size(); ++k) {
      for (std::size_t o = 0; o < 8; ++o) {
        EXPECT_EQ(p.owner_transitions[k][o * 8 + o], 0u)
            << npb::benchmark_name(b) << " tau index " << k << " owner " << o;
      }
    }
  }
}

TEST(ProfilerTest, ISGatherScanDetected) {
  // IS merges per-thread histogram slices in a serial section: the profile
  // must see serial-region accesses to lines the tau=8 virtual owners
  // wrote, and the line-grain subset can only be smaller.
  const KernelProfile p = profiled(npb::Benchmark::kIS);
  EXPECT_GT(p.serial_uop_fraction(), 0.0);  // the merge/scan runs serially
  EXPECT_GT(p.serial_gather, 0u);
  EXPECT_GT(p.serial_gather_lines, 0u);
  EXPECT_LE(p.serial_gather_lines, p.serial_gather);
  const double gf = p.gather_fraction();
  EXPECT_GT(gf, 0.0);
  EXPECT_LE(gf, 1.0);
}

TEST(ProfilerTest, EPIsOverwhelminglyParallel) {
  // EP is embarrassingly parallel: nearly all uops sit inside fork..join
  // and cross-owner write sharing is limited to the final reduction.
  const KernelProfile p = profiled(npb::Benchmark::kEP);
  EXPECT_LT(p.serial_uop_fraction(), 0.1);
  std::uint64_t transitions = 0;
  for (const auto& m : p.owner_transitions)
    for (const std::uint64_t c : m) transitions += c;
  EXPECT_LT(static_cast<double>(transitions),
            0.01 * static_cast<double>(p.loads + p.stores));
}

TEST(ProfilerTest, RunProfiledSerialRejectsCheckMode) {
  // A checked machine already carries its one sink.
  const harness::RunOptions opt = quick_options();
  sim::Machine machine(opt.machine_params());
  check::Checker checker(machine, sim::CheckMode::kFull);
  EXPECT_THROW(harness::run_profiled_serial(machine, npb::Benchmark::kEP, opt,
                                            opt.trial_seed(0)),
               std::logic_error);
  EXPECT_EQ(machine.trace_sink(), &checker) << "the checker stays attached";
  (void)checker.finish();
  EXPECT_EQ(machine.trace_sink(), nullptr);
}

TEST(ProfilerTest, FinishIsIdempotent) {
  const harness::RunOptions opt = quick_options();
  sim::Machine machine(opt.machine_params());
  Profiler profiler(machine);
  const KernelProfile empty = profiler.finish();  // nothing ran: all zeros
  EXPECT_EQ(empty.loads + empty.stores, 0u);
  EXPECT_EQ(empty.fetches, 0u);
  const KernelProfile again = profiler.finish();
  EXPECT_EQ(again.loads + again.stores, 0u);
}

}  // namespace
}  // namespace paxsim::model
