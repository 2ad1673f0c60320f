// Coherence fuzz: random load/store sequences from all eight hardware
// contexts over a small shared heap, with the MESI-lite structural
// invariants checked continuously:
//   * a line Modified in one L2 is Invalid everywhere else;
//   * the directory's holder mask equals the set of L2s holding the line;
//   * bus transaction classes always sum to the total;
//   * stall-cycle categories never exceed total cycles.
#include <gtest/gtest.h>

#include <random>

#include "sim/machine.hpp"

namespace paxsim::sim {
namespace {

using perf::Event;

class CoherenceFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoherenceFuzzTest, InvariantsHoldUnderRandomTraffic) {
  MachineParams params = MachineParams{}.scaled(64);  // tiny caches: churn
  Machine machine(params);
  AddressSpace space(0);
  perf::CounterSet counters;

  std::vector<HwContext*> ctxs;
  for (int i = 0; i < machine.topology().total_contexts(); ++i) {
    HwContext& c = machine.context(machine.topology().unflat(i));
    c.bind(&counters, space.code_base());
    ctxs.push_back(&c);
  }

  // Shared heap of 64 lines so contexts constantly collide.
  const Addr heap = space.alloc(64 * 64, 64);
  std::mt19937_64 rng(GetParam());

  auto check_invariants = [&](Addr line) {
    int modified_holders = 0;
    unsigned resident_mask = 0;
    for (int cid = 0; cid < 4; ++cid) {
      const LineState st = machine.core_by_id(cid).l2().state_of(line);
      if (st != LineState::kInvalid) resident_mask |= 1u << cid;
      if (st == LineState::kModified) ++modified_holders;
      if (st == LineState::kModified || st == LineState::kExclusive) {
        // Exclusive/Modified implies sole ownership.
        for (int other = 0; other < 4; ++other) {
          if (other == cid) continue;
          EXPECT_EQ(machine.core_by_id(other).l2().state_of(line),
                    LineState::kInvalid)
              << "line " << line << " E/M in core " << cid
              << " but resident in core " << other;
        }
      }
    }
    EXPECT_LE(modified_holders, 1);
    EXPECT_EQ(machine.holders_of(line), resident_mask)
        << "directory drifted from cache contents for line " << line;
  };

  for (int op = 0; op < 20000; ++op) {
    HwContext& ctx = *ctxs[rng() % ctxs.size()];
    const Addr addr = heap + (rng() % 64) * 64 + (rng() % 8) * 8;
    const bool store = (rng() & 3) == 0;
    const Dep dep = (rng() & 7) == 0 ? Dep::kChained : Dep::kIndependent;
    if (store) {
      ctx.store(addr, dep);
    } else {
      ctx.load(addr, dep);
    }
    if (op % 512 == 0) {
      for (int l = 0; l < 64; ++l) check_invariants(heap + l * 64);
    }
  }
  for (int l = 0; l < 64; ++l) check_invariants(heap + l * 64);

  // Counter algebra.
  for (HwContext* c : ctxs) c->flush_accumulators();
  EXPECT_EQ(counters.get(Event::kBusReads) + counters.get(Event::kBusWrites) +
                counters.get(Event::kBusPrefetches),
            counters.get(Event::kBusTransactions));
  const std::uint64_t stalls = counters.get(Event::kStallCyclesMemory) +
                               counters.get(Event::kStallCyclesBranch) +
                               counters.get(Event::kStallCyclesTlb) +
                               counters.get(Event::kStallCyclesFrontend);
  EXPECT_LE(stalls, counters.get(Event::kCycles));
  EXPECT_GT(counters.get(Event::kL1dReferences), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234567u));

TEST(CoherenceFuzzTest, PrivateHeapsNeverInvalidate) {
  // Contexts touching disjoint address ranges must generate zero
  // invalidations: a regression guard against false sharing in the model.
  MachineParams params = MachineParams{}.scaled(64);
  Machine machine(params);
  AddressSpace space(0);
  perf::CounterSet counters;
  std::mt19937_64 rng(9);
  std::vector<HwContext*> ctxs;
  std::vector<Addr> heaps;
  for (int cid = 0; cid < 4; ++cid) {
    HwContext& c = machine.context({static_cast<std::uint8_t>(cid / 2),
                                    static_cast<std::uint8_t>(cid % 2), 0});
    c.bind(&counters, space.code_base());
    ctxs.push_back(&c);
    heaps.push_back(space.alloc(16 * 1024, 4096));
    // Guard gap: the stream prefetcher legitimately overshoots a heap's end
    // by up to prefetch_depth lines; without the gap it would pull the
    // *next* thread's lines and manufacture real (but unwanted-here)
    // invalidation traffic.
    (void)space.alloc(4096, 4096);
  }
  for (int op = 0; op < 20000; ++op) {
    const std::size_t t = rng() % 4;
    const Addr a = heaps[t] + (rng() % (16 * 1024 / 8)) * 8;
    if ((rng() & 1) != 0) {
      ctxs[t]->store(a);
    } else {
      ctxs[t]->load(a);
    }
  }
  EXPECT_EQ(counters.get(Event::kL2Invalidations), 0u);
}

}  // namespace
}  // namespace paxsim::sim
