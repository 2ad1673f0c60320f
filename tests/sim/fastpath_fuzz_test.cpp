// Fast-path lockstep fuzz: two machines of one topology — one with the
// inlined L1/DTLB fast path, one forced through the out-of-line reference
// path — driven by the SAME random load/store stream from every hardware
// context over a small shared heap, so coherence invalidations and
// downgrades constantly land between fast-path accesses.  Every context
// clock and every counter must stay bit-identical throughout, and every
// armed fast-path register must survive Core::audit_fast_entries.  Each
// seed runs on three presets: paxville (private L2 per core), woodcrest
// (chip-shared L2, so snoops also take the intra-domain *_inner paths) and
// numa16 (private L2 behind a chip-shared L3, 16 cores).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace paxsim::sim {
namespace {

using perf::Event;

class FastPathFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void run_lockstep(const char* preset) const;
};

void FastPathFuzzTest::run_lockstep(const char* preset) const {
  MachineParams base;
  base.topology = *Topology::from_preset(preset);
  MachineParams fast_params = base.scaled(64);  // tiny: churn
  fast_params.fast_path = true;
  MachineParams ref_params = fast_params;
  ref_params.fast_path = false;
  Machine fast_machine(fast_params);
  Machine ref_machine(ref_params);
  AddressSpace space(0);
  perf::CounterSet fast_counters;
  perf::CounterSet ref_counters;

  const Topology& topo = fast_machine.topology();
  std::vector<HwContext*> fast_ctxs;
  std::vector<HwContext*> ref_ctxs;
  for (int i = 0; i < topo.total_contexts(); ++i) {
    const LogicalCpu cpu = topo.unflat(i);
    HwContext& fc = fast_machine.context(cpu);
    fc.bind(&fast_counters, space.code_base());
    fast_ctxs.push_back(&fc);
    HwContext& rc = ref_machine.context(cpu);
    rc.bind(&ref_counters, space.code_base());
    ref_ctxs.push_back(&rc);
  }

  // Shared heap of 64 lines: remote stores invalidate lines the fast path
  // has handles on, remote loads downgrade them.
  const Addr heap = space.alloc(64 * 64, 64);
  std::mt19937_64 rng(GetParam());

  for (int op = 0; op < 20000; ++op) {
    const std::size_t who = rng() % fast_ctxs.size();
    const Addr addr = heap + (rng() % 64) * 64 + (rng() % 8) * 8;
    const bool store = (rng() & 3) == 0;
    const Dep dep = (rng() & 7) == 0 ? Dep::kChained : Dep::kIndependent;
    if (store) {
      fast_ctxs[who]->store(addr, dep);
      ref_ctxs[who]->store(addr, dep);
    } else {
      fast_ctxs[who]->load(addr, dep);
      ref_ctxs[who]->load(addr, dep);
    }
    if (op % 256 == 0) {
      for (std::size_t c = 0; c < fast_ctxs.size(); ++c) {
        ASSERT_EQ(fast_ctxs[c]->now(), ref_ctxs[c]->now())
            << preset << ": context " << c << " clock diverged at op " << op;
      }
      for (int core = 0; core < topo.total_cores(); ++core) {
        std::string why;
        ASSERT_TRUE(fast_machine.core_by_id(core).audit_fast_entries(&why))
            << preset << ": " << why << " at op " << op;
      }
    }
  }

  for (HwContext* c : fast_ctxs) c->flush_accumulators();
  for (HwContext* c : ref_ctxs) c->flush_accumulators();
  for (std::size_t c = 0; c < fast_ctxs.size(); ++c) {
    EXPECT_EQ(fast_ctxs[c]->now(), ref_ctxs[c]->now()) << preset;
  }
  EXPECT_EQ(fast_counters, ref_counters)
      << preset << ": counter tables diverged between fast and reference paths";
  EXPECT_GT(fast_counters.get(Event::kL2Invalidations), 0u)
      << preset << ": the stream must actually exercise coherence invalidations";
}

TEST_P(FastPathFuzzTest, FastAndReferencePathsStayInLockstep) {
  run_lockstep("paxville");
}

TEST_P(FastPathFuzzTest, FastAndReferencePathsStayInLockstepOnWoodcrest) {
  run_lockstep("woodcrest");
}

TEST_P(FastPathFuzzTest, FastAndReferencePathsStayInLockstepOnNuma16) {
  run_lockstep("numa16");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234567u));

}  // namespace
}  // namespace paxsim::sim
