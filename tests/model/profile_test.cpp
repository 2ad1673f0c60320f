// Tests for the profiling pass: a profiled serial run of a real kernel must
// yield a KernelProfile whose bookkeeping is internally consistent, and the
// kernel-structure signals the analytical layer depends on (IS's serial
// gather scan, static-schedule chunk accounting, the measured anchor) must
// be present where the kernel's structure implies them.
#include "model/profile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/// FNV-1a over every member of a KernelProfile: the counts, each
/// histogram's cold count, finite count and buckets, the transition
/// matrices, the doubles by bit pattern and the anchor.
class ProfileDigest {
 public:
  explicit ProfileDigest(const KernelProfile& p) {
    add(p.loads);
    add(p.stores);
    add(p.chained_loads);
    add(p.fetches);
    add(p.uops);
    add(p.par_accesses);
    add(p.par_uops);
    add(p.runtime_accesses);
    add(p.loops);
    add(p.iterations);
    add(p.barriers);
    for (const double v : p.chunk_max_iters) add(v);
    for (const double v : p.chunk_mean_iters) add(v);
    for (const auto& h : p.line) add(h);
    for (const auto& h : p.store_line) add(h);
    for (const auto& h : p.page) add(h);
    add(p.block);
    add(p.code_page);
    add(p.stream_candidates);
    add(p.streamed);
    for (const auto& m : p.owner_transitions) {
      for (const std::uint64_t c : m) add(c);
    }
    add(p.serial_gather);
    add(p.serial_gather_lines);
    add(p.distinct_lines);
    add(p.distinct_pages);
    add(p.distinct_blocks);
    const KernelProfile::Anchor& a = p.anchor;
    add(std::uint64_t{a.valid});
    for (const double v :
         {a.wall_cycles, a.cycles, a.instructions, a.l1d_refs, a.l1d_misses,
          a.l2_refs, a.l2_misses, a.tc_refs, a.tc_misses, a.itlb_refs,
          a.itlb_misses, a.dtlb_misses, a.branches, a.mispredicts,
          a.bus_reads, a.bus_writes, a.bus_prefetches, a.prefetches_issued,
          a.prefetches_useful, a.stall_mem, a.stall_branch, a.stall_tlb,
          a.stall_fe}) {
      add(v);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const ReuseHistogram& h) {
    add(h.cold());
    add(h.finite());
    add(std::uint64_t{h.buckets().size()});
    for (const std::uint64_t c : h.buckets()) add(c);
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Tripwire for ProfileDigest: a member added to KernelProfile changes its
// size, and the build fails here until the digest folds the new member in
// and this size is updated.  (LP64 only, like the RunOptions tripwire.)
#if defined(__x86_64__) && defined(__LP64__)
static_assert(sizeof(KernelProfile) == 2496,
              "KernelProfile changed: fold the new member into "
              "ProfileDigest, then update this expected size");
#endif

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

TEST(ProfilerTest, EveryKernelProfilesToItsReferenceDigest) {
  // Class S on the default machine.  The reference digests were taken from
  // the tracker that kept every key in an unordered_map-indexed Fenwick
  // tree, so any change to the tracker, the sharing table or the
  // profiler's accounting that moves one count shows here.
  struct Expected {
    npb::Benchmark bench;
    std::uint64_t digest;
  };
  for (const Expected& e : {
           Expected{npb::Benchmark::kCG, 0x76b571c610369b59ull},
           Expected{npb::Benchmark::kMG, 0x0bf4c18ca22e81ccull},
           Expected{npb::Benchmark::kFT, 0xb708ec733bd1fa69ull},
           Expected{npb::Benchmark::kIS, 0x5542bea7143bea53ull},
           Expected{npb::Benchmark::kEP, 0x6378ca79e815ba83ull},
           Expected{npb::Benchmark::kBT, 0xd76e537315743a14ull},
           Expected{npb::Benchmark::kSP, 0x42479a5f6e277250ull},
           Expected{npb::Benchmark::kLU, 0x14470a97b0671f82ull},
       }) {
    const std::uint64_t digest = ProfileDigest(profiled(e.bench)).value();
    EXPECT_EQ(digest, e.digest)
        << npb::benchmark_name(e.bench) << std::hex << " digest 0x" << digest;
  }
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
