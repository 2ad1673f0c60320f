// Unit tests for the core/context timing model: issue costs, load-to-use
// exposure (chained vs independent), SMT issue stretch and MT-mode MLP
// partitioning, TLB walks, branch penalties, front-end stalls, counter
// attribution and accumulator flushing.
#include "sim/core.hpp"

#include <gtest/gtest.h>

#include "sim/machine.hpp"

namespace paxsim::sim {
namespace {

using perf::Event;

struct Rig {
  MachineParams p;
  Machine machine;
  AddressSpace space;
  perf::CounterSet counters;

  explicit Rig(MachineParams params = MachineParams{})
      : p(params), machine(p), space(0) {}

  HwContext& ctx(int chip = 0, int core = 0, int hw = 0) {
    HwContext& c = machine.context({static_cast<std::uint8_t>(chip),
                                    static_cast<std::uint8_t>(core),
                                    static_cast<std::uint8_t>(hw)});
    if (!c.bound()) c.bind(&counters, space.code_base());
    return c;
  }
};

/// Reference-path entries on @p ctx's core caused by @p access.  A probe,
/// not a sink: attaching a sink would itself send every access down the
/// reference path.
template <typename F>
std::uint64_t entries_of(const HwContext& ctx, F&& access) {
  const std::uint64_t before = ctx.core().reference_accesses();
  access();
  return ctx.core().reference_accesses() - before;
}

/// Counts the accesses and fetches one context reports to its sink.
class EventCounter final : public TraceSink {
 public:
  explicit EventCounter(LogicalCpu who) : who_(who) {}

  void on_access(const HwContext& ctx, Addr, bool, Dep) override {
    if (ctx.id() == who_) ++accesses;
  }
  void on_fetch(const HwContext& ctx, Addr, std::uint32_t) override {
    if (ctx.id() == who_) ++fetches;
  }
  void on_team(TeamEvent, const void*, const HwContext* const*,
               std::size_t) override {}
  void on_runtime_range(Addr, std::size_t) override {}
  void on_sync(SyncOp, const HwContext&, Addr) override {}
  void on_thread_moved(const HwContext&, const HwContext&) override {}

  int accesses = 0;
  int fetches = 0;

 private:
  LogicalCpu who_;
};

TEST(CoreTest, AluCostsIssueCycles) {
  Rig r;
  HwContext& c = r.ctx();
  c.alu(100);
  EXPECT_DOUBLE_EQ(c.now(), 100 * r.p.cycles_per_uop);
  c.flush_accumulators();  // instruction counts are batched until a flush
  EXPECT_EQ(r.counters.get(Event::kInstructions), 100u);
}

TEST(CoreTest, SmtStretchAppliesWhenCoActive) {
  Rig r;
  r.machine.core(0, 0).set_active_contexts(2);
  HwContext& c = r.ctx();
  c.alu(100);
  EXPECT_DOUBLE_EQ(c.now(), 100 * r.p.cycles_per_uop * r.p.smt_issue_stretch);
}

TEST(CoreTest, ChainedLoadExposesFullLatency) {
  Rig r;
  HwContext& c = r.ctx();
  const Addr a = r.space.alloc(64);
  c.load(a, Dep::kChained);  // cold: TLB walk + DRAM
  const double cold = c.now();
  EXPECT_GT(cold, static_cast<double>(r.p.topology.nodes[0].latency));
  // Warm chained load: L1 hit at the L1 load-to-use latency.
  const double before = c.now();
  c.load(a, Dep::kChained);
  EXPECT_NEAR(c.now() - before,
              static_cast<double>(r.p.topology.levels[0].latency), 0.01);
}

TEST(CoreTest, IndependentL1HitIsPipelined) {
  Rig r;
  HwContext& c = r.ctx();
  const Addr a = r.space.alloc(64);
  c.load(a, Dep::kChained);  // warm the line
  const double before = c.now();
  c.load(a, Dep::kIndependent);
  EXPECT_NEAR(c.now() - before, r.p.cycles_per_uop, 0.01)
      << "an independent L1 hit costs only its issue slot";
}

TEST(CoreTest, IndependentMissExposesOverlapFraction) {
  Rig r;
  HwContext& c = r.ctx();
  // Touch one line per page to hold TLB noise constant, far apart to avoid
  // the prefetcher.
  const Addr a = r.space.alloc(1 << 20, 4096);
  c.load(a, Dep::kIndependent);  // cold miss
  const double cold = c.now();
  const double mem = static_cast<double>(r.p.topology.nodes[0].latency);
  EXPECT_GT(cold, mem * r.p.mem_overlap);
  EXPECT_LT(cold, mem * 1.2)
      << "independent miss must cost well below the full latency plus walk";
}

TEST(CoreTest, MtModeExposesMoreOfIndependentMisses) {
  auto run = [](int active) {
    Rig r;
    r.machine.core(0, 0).set_active_contexts(active);
    HwContext& c = r.ctx();
    const Addr base = r.space.alloc(16 << 20, 4096);
    // Random-ish page-stride loads (no stream, cold every time).
    double t0 = c.now();
    for (int i = 0; i < 200; ++i) {
      c.load(base + static_cast<Addr>((i * 37) % 4096) * 4096,
             Dep::kIndependent);
    }
    return c.now() - t0;
  };
  const double st = run(1);
  const double mt = run(2);
  EXPECT_GT(mt, st * 1.2)
      << "halved load-buffer share must expose more miss latency";
}

TEST(CoreTest, DtlbWalkChargedOncePerPage) {
  Rig r;
  HwContext& c = r.ctx();
  const Addr a = r.space.alloc(4096, 4096);
  c.load(a);
  EXPECT_EQ(r.counters.get(Event::kDtlbLoadMisses), 1u);
  c.load(a + 64);
  EXPECT_EQ(r.counters.get(Event::kDtlbLoadMisses), 1u) << "same page";
  c.store(a + 128);
  EXPECT_EQ(r.counters.get(Event::kDtlbStoreMisses), 0u) << "still same page";
}

TEST(CoreTest, BranchMispredictPenalty) {
  Rig r;
  HwContext& c = r.ctx();
  // Train taken, then surprise with not-taken.
  for (int i = 0; i < 64; ++i) c.branch(9, true);
  const double before = c.now();
  c.branch(9, false);
  EXPECT_NEAR(c.now() - before,
              r.p.cycles_per_uop + static_cast<double>(r.p.mispredict_penalty),
              0.01);
  EXPECT_GE(r.counters.get(Event::kBranchMispredicts), 1u);
}

TEST(CoreTest, ExecBlockCountsTraceAndItlb) {
  Rig r;
  HwContext& c = r.ctx();
  c.exec_block(5, 30);
  c.flush_accumulators();  // reference counts are batched until a flush
  EXPECT_EQ(r.counters.get(Event::kItlbReferences), 1u);
  EXPECT_EQ(r.counters.get(Event::kItlbMisses), 1u);
  EXPECT_EQ(r.counters.get(Event::kTraceCacheReferences), 5u);
  EXPECT_EQ(r.counters.get(Event::kTraceCacheMisses), 5u);
  c.exec_block(5, 30);
  c.flush_accumulators();
  EXPECT_EQ(r.counters.get(Event::kTraceCacheMisses), 5u) << "warm block hits";
  EXPECT_EQ(r.counters.get(Event::kItlbMisses), 1u);
}

TEST(CoreTest, FlushMovesAccumulatorsToCounters) {
  Rig r;
  HwContext& c = r.ctx();
  c.alu(1000);
  c.load(r.space.alloc(64), Dep::kChained);
  EXPECT_EQ(r.counters.get(Event::kCycles), 0u) << "not yet flushed";
  c.flush_accumulators();
  const auto cycles = r.counters.get(Event::kCycles);
  EXPECT_GT(cycles, 700u);
  EXPECT_NEAR(static_cast<double>(cycles), c.now(), 2.0);
  const auto stalls = r.counters.get(Event::kStallCyclesMemory) +
                      r.counters.get(Event::kStallCyclesTlb);
  EXPECT_GT(stalls, 0u);
  // Second flush adds nothing.
  c.flush_accumulators();
  EXPECT_EQ(r.counters.get(Event::kCycles), cycles);
}

TEST(CoreTest, SetNowOnlyMovesForward) {
  Rig r;
  HwContext& c = r.ctx();
  c.alu(100);
  const double t = c.now();
  c.set_now(t - 10);
  EXPECT_DOUBLE_EQ(c.now(), t);
  c.set_now(t + 10);
  EXPECT_DOUBLE_EQ(c.now(), t + 10);
}

TEST(CoreTest, IdleTimeNotCountedAsExecution) {
  Rig r;
  HwContext& c = r.ctx();
  c.alu(100);
  c.set_now(c.now() + 100000);  // barrier idle
  c.flush_accumulators();
  EXPECT_LT(r.counters.get(Event::kCycles), 200u)
      << "idle (barrier wait) must not appear in kCycles";
}

TEST(CoreTest, StoreMissGeneratesRfoBusRead) {
  Rig r;
  HwContext& c = r.ctx();
  c.store(r.space.alloc(64));
  EXPECT_EQ(r.counters.get(Event::kBusReads), 1u)
      << "write-allocate: a store miss reads the line for ownership";
}

TEST(CoreTest, SequentialStreamTriggersPrefetch) {
  Rig r;
  HwContext& c = r.ctx();
  const Addr base = r.space.alloc(1 << 16);
  for (Addr off = 0; off < (1 << 16); off += 64) c.load(base + off);
  EXPECT_GT(r.counters.get(Event::kPrefetchesIssued), 10u);
  EXPECT_GT(r.counters.get(Event::kPrefetchesUseful), 10u);
  EXPECT_EQ(r.counters.get(Event::kBusPrefetches) +
                r.counters.get(Event::kBusReads) +
                r.counters.get(Event::kBusWrites),
            r.counters.get(Event::kBusTransactions))
      << "bus transaction classes must add up";
}

TEST(CoreTest, L2EvictionWritesBack) {
  Rig r;
  HwContext& c = r.ctx();
  // Dirty a large region, then stream far past it to force L2 evictions.
  const std::size_t l2_bytes = r.p.topology.levels[1].geometry.size_bytes;
  const Addr w = r.space.alloc(l2_bytes * 2);
  for (Addr off = 0; off < l2_bytes * 2; off += 64) c.store(w + off);
  EXPECT_GT(r.counters.get(Event::kBusWrites), 0u);
}

TEST(CoreTest, CountersAttributedToBoundProgram) {
  Rig r;
  perf::CounterSet other;
  HwContext& c0 = r.ctx(0, 0, 0);
  HwContext& c1 = r.machine.context({0, 0, 1});
  c1.bind(&other, r.space.code_base());
  c0.alu(10);
  c1.alu(20);
  c0.flush_accumulators();  // instruction counts are batched until a flush
  c1.flush_accumulators();
  EXPECT_EQ(r.counters.get(Event::kInstructions), 10u);
  EXPECT_EQ(other.get(Event::kInstructions), 20u);
}

TEST(CoreTest, RemoteSnoopRevalidatesOnlyTheSnoopedSet) {
  // A remote snoop ticks the generation of the one L1 set it touches, so
  // only that set's fast-path registers fall back to revalidation; the
  // registers of every other set keep serving hits.
  MachineParams p;
  p.fast_path = true;
  Rig r(p);
  HwContext& local = r.ctx(0, 0, 0);
  HwContext& remote = r.ctx(1, 0, 0);  // another chip: another coherence domain
  const SetAssocCache& l1 = r.machine.core(0, 0).l1d();
  const Addr x = r.space.alloc(2 * 64, 64);
  const Addr y = x + 64;
  ASSERT_NE(l1.mutation_gen_slot(x), l1.mutation_gen_slot(y))
      << "x and y must live in different L1 sets";

  for (int i = 0; i < 2; ++i) {
    local.load(x);
    local.load(y);
  }
  ASSERT_EQ(entries_of(local,
                       [&] {
                         local.load(x);
                         local.load(y);
                       }),
            0u)
      << "both lines are registered after the warm-up";

  remote.store(x);  // remote invalidate of x
  ASSERT_FALSE(l1.contains(x));
  EXPECT_EQ(entries_of(local, [&] { local.load(y); }), 0u)
      << "invalidating x must leave y's register armed";
  EXPECT_EQ(entries_of(local, [&] { local.load(x); }), 1u)
      << "the invalidated line must take the reference path";

  remote.load(y);  // remote downgrade of y
  ASSERT_EQ(l1.state_of(y), LineState::kShared);
  EXPECT_EQ(entries_of(local, [&] { local.load(y); }), 0u)
      << "a downgraded line still serves loads through tier 2";
  EXPECT_EQ(entries_of(local, [&] { local.store(y); }), 1u)
      << "a store to a shared line needs the reference path's upgrade";
}

TEST(CoreTest, SinkAttachedAfterAFastRunSeesEveryAccess) {
  // Attaching a sink is what sends a machine down the reference path: a
  // sink attached, with no reset, to a machine whose fast-path registers
  // are warm must still see every access and every fetch.
  MachineParams p;
  p.fast_path = true;
  Rig r(p);
  HwContext& c = r.ctx();
  const Addr x = r.space.alloc(64, 64);
  constexpr BlockId kBlock = 7;
  for (int i = 0; i < 3; ++i) {
    c.exec_block(kBlock, 8);
    c.load(x);
  }
  ASSERT_EQ(entries_of(c, [&] { c.load(x); }), 0u)
      << "the warm-up must leave x on the fast path";

  EventCounter sink(c.id());
  r.machine.set_trace_sink(&sink);
  for (int i = 0; i < 5; ++i) {
    c.exec_block(kBlock, 8);
    c.load(x);
    c.store(x);
  }
  EXPECT_EQ(sink.accesses, 10);
  EXPECT_EQ(sink.fetches, 5);

  // Detaching hands the machine back to the fast path.
  r.machine.set_trace_sink(nullptr);
  c.load(x);  // re-registers x
  EXPECT_EQ(entries_of(c, [&] { c.load(x); }), 0u);
  EXPECT_EQ(sink.accesses, 10) << "a detached sink hears nothing";
}

}  // namespace
}  // namespace paxsim::sim
