// Unit tests for the machine topology, snooped coherence (the holder mask
// each line's outer-cache residency implies) and the cross-core
// invalidation/downgrade flows.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"

namespace paxsim::sim {
namespace {

using perf::Event;

TEST(MachineTest, TopologyShape) {
  Machine m{MachineParams{}};
  EXPECT_EQ(m.topology().total_contexts(), 8);
  EXPECT_EQ(m.topology().total_cores(), 4);
  // Distinct contexts are distinct objects.
  EXPECT_NE(&m.context({0, 0, 0}), &m.context({0, 0, 1}));
  EXPECT_NE(&m.context({0, 0, 0}), &m.context({1, 0, 0}));
  // Flat ids follow the paper's Figure-1 labelling order.
  EXPECT_EQ(m.topology().flat({0, 0, 0}), 0);
  EXPECT_EQ(m.topology().flat({0, 1, 1}), 3);
  EXPECT_EQ(m.topology().flat({1, 0, 0}), 4);
  EXPECT_EQ(m.topology().flat({1, 1, 1}), 7);
}

/// Expects cache @p c to have geometry @p g.
void expect_geometry(const SetAssocCache& c, const CacheGeometry& g,
                     const std::string& what) {
  EXPECT_EQ(c.sets() * c.ways() * c.line_bytes(), g.size_bytes) << what;
  EXPECT_EQ(c.ways(), g.ways) << what;
  EXPECT_EQ(c.line_bytes(), g.line_bytes) << what;
}

TEST(MachineTest, CachesAreBuiltFromTheScaledLevels) {
  // The default machine and every preset, at full size and at the study
  // scale: each core's L1D and L2 and each chip's shared L2 or L3 have the
  // geometry of the matching topology level divided by the scale, and a
  // core owns an L2 exactly when the L2 is per-core.
  std::vector<std::string> specs = {"default"};
  for (const std::string& name : Topology::preset_names()) specs.push_back(name);
  for (const std::string& spec : specs) {
    for (const double scale : {1.0, 16.0}) {
      harness::RunOptions opt;
      opt.machine_scale = scale;
      if (spec != "default") {
        Topology preset;
        ASSERT_TRUE(Topology::resolve(spec, &preset)) << spec;
        opt.topology = std::make_shared<const Topology>(std::move(preset));
      }
      const Topology full = opt.resolved_topology();
      const auto level = [&](std::size_t i) {
        CacheGeometry g = full.levels[i].geometry;
        g.size_bytes = static_cast<std::size_t>(
            static_cast<double>(g.size_bytes) / scale);
        return g;
      };
      const std::string tag = spec + " at 1/" + std::to_string(scale);
      const bool shared_l2 = full.levels[1].scope == SharingScope::kPerChip;
      const bool has_l3 = full.levels.size() == 3;

      Machine m(opt.machine_params());
      EXPECT_EQ(m.topology().name, spec);
      EXPECT_EQ(m.chip_domains(), shared_l2 || has_l3) << tag;
      for (int chip = 0; chip < full.packages; ++chip) {
        for (int core = 0; core < full.cores_per_package; ++core) {
          const Core& c = m.core(chip, core);
          const std::string where = tag + " core " + std::to_string(chip) +
                                    "." + std::to_string(core);
          expect_geometry(c.l1d(), level(0), where + " L1D");
          expect_geometry(c.l2(), level(1), where + " L2");
          EXPECT_EQ(c.owns_l2(), !shared_l2) << where;
          if (shared_l2) {
            EXPECT_EQ(&c.l2(), &m.domain_outer_cache(chip)) << where;
          }
          EXPECT_EQ(c.l3(), has_l3 ? &m.domain_outer_cache(chip) : nullptr)
              << where;
        }
        if (m.chip_domains()) {
          expect_geometry(m.domain_outer_cache(chip),
                          level(full.levels.size() - 1),
                          tag + " chip " + std::to_string(chip));
        }
      }
      if (spec == "woodcrest") {
        EXPECT_FALSE(m.core(0, 0).owns_l2()) << "woodcrest's L2 is the chip's";
      }
    }
  }
}

struct CoherenceRig {
  MachineParams p;
  Machine m{p};
  AddressSpace space{0};
  perf::CounterSet counters;

  HwContext& ctx(int chip, int core) {
    HwContext& c = m.context({static_cast<std::uint8_t>(chip),
                              static_cast<std::uint8_t>(core), 0});
    if (!c.bound()) c.bind(&counters, space.code_base());
    return c;
  }
};

TEST(MachineTest, DirectoryTracksReaders) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).load(a);
  EXPECT_EQ(r.m.holders_of(a), 0b0001u);
  r.ctx(0, 1).load(a);
  EXPECT_EQ(r.m.holders_of(a), 0b0011u);
  r.ctx(1, 0).load(a);
  EXPECT_EQ(r.m.holders_of(a), 0b0111u);
}

TEST(MachineTest, StoreInvalidatesRemoteCopies) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).load(a);
  r.ctx(1, 0).load(a);
  ASSERT_EQ(r.m.holders_of(a), 0b0101u);
  r.ctx(0, 1).store(a);
  EXPECT_EQ(r.m.holders_of(a), 0b0010u) << "writer becomes sole owner";
  EXPECT_GE(r.counters.get(Event::kL2Invalidations), 2u);
  EXPECT_FALSE(r.m.core(0, 0).l2().contains(a));
  EXPECT_FALSE(r.m.core(1, 0).l2().contains(a));
  EXPECT_EQ(r.m.core(0, 1).l2().state_of(a), LineState::kModified);
}

TEST(MachineTest, RemoteDirtyCopyDowngradedOnRead) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).store(a);  // core 0 holds a Modified
  const auto writes_before = r.counters.get(Event::kBusWrites);
  r.ctx(1, 1).load(a);   // remote read snoops it out
  EXPECT_EQ(r.m.core(0, 0).l2().state_of(a), LineState::kShared);
  EXPECT_EQ(r.m.core(1, 1).l2().state_of(a), LineState::kShared);
  EXPECT_GT(r.counters.get(Event::kBusWrites), writes_before)
      << "the dirty data had to be written back";
}

TEST(MachineTest, ExclusiveWhenSoleReader) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).load(a);
  EXPECT_EQ(r.m.core(0, 0).l2().state_of(a), LineState::kExclusive);
}

TEST(MachineTest, PingPongStores) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  for (int i = 0; i < 10; ++i) {
    r.ctx(0, 0).store(a);
    r.ctx(1, 0).store(a);
  }
  EXPECT_GE(r.counters.get(Event::kL2Invalidations), 19u)
      << "alternating writers invalidate each other every time";
  EXPECT_EQ(r.m.holders_of(a), 0b0100u);
}

TEST(MachineTest, EvictionClearsDirectory) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).load(a);
  ASSERT_EQ(r.m.holders_of(a), 0b0001u);
  // Stream far past the L2 to evict `a`.
  const std::size_t l2 = r.p.topology.levels[1].geometry.size_bytes;
  const Addr big = r.space.alloc(l2 * 2);
  for (Addr off = 0; off < l2 * 2; off += 64) r.ctx(0, 0).load(big + off);
  EXPECT_EQ(r.m.holders_of(a), 0u) << "evicted line leaves the directory";
}

TEST(MachineTest, WallTimeIsMaxContextClock) {
  CoherenceRig r;
  r.ctx(0, 0).alu(100);
  r.ctx(1, 0).alu(500);
  EXPECT_DOUBLE_EQ(r.m.wall_time(), r.ctx(1, 0).now());
}

TEST(MachineTest, ResetRestoresColdMachine) {
  CoherenceRig r;
  const Addr a = r.space.alloc(64);
  r.ctx(0, 0).store(a);
  r.m.reset();
  EXPECT_EQ(r.m.holders_of(a), 0u);
  EXPECT_DOUBLE_EQ(r.m.wall_time(), 0.0);
  EXPECT_FALSE(r.m.core(0, 0).l2().contains(a));
}

TEST(MachineTest, ResetClearsWholeCoherenceDirectory) {
  // Regression guard for the machine-pool recycling path: a stale directory
  // entry surviving reset() would bill phantom invalidations to the next
  // program.  Populate entries across many lines, cores and MESI states,
  // then verify every one is gone and a fresh access starts Exclusive.
  CoherenceRig r;
  std::vector<Addr> lines;
  for (int i = 0; i < 32; ++i) lines.push_back(r.space.alloc(64, 64));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    r.ctx(0, 0).load(lines[i]);                     // Exclusive/Shared...
    if (i % 2 == 0) r.ctx(1, 0).load(lines[i]);     // ...Shared across chips
    if (i % 3 == 0) r.ctx(0, 1).store(lines[i]);    // ...and Modified
  }
  for (const Addr a : lines) ASSERT_NE(r.m.holders_of(a), 0u);

  r.m.reset();

  for (const Addr a : lines) {
    EXPECT_EQ(r.m.holders_of(a), 0u) << "directory entry survived reset()";
  }
  // A recycled machine must grant Exclusive to a sole reader, exactly as a
  // fresh machine would — stale sharers would force Shared instead.
  r.ctx(0, 0).load(lines[0]);
  EXPECT_EQ(r.m.core(0, 0).l2().state_of(lines[0]), LineState::kExclusive);
  EXPECT_EQ(r.m.holders_of(lines[0]), 0b0001u);
}

TEST(MachineTest, AddressSpacesDisjoint) {
  AddressSpace p0(0), p1(1);
  const Addr a0 = p0.alloc(1 << 20);
  const Addr a1 = p1.alloc(1 << 20);
  EXPECT_NE(a0 >> 40, a1 >> 40) << "programs live in disjoint 1-TiB windows";
  EXPECT_NE(p0.code_base() >> 39, a0 >> 39)
      << "code and data are disjoint within a program";
}

TEST(MachineTest, AddressSpaceSlotsStayInsideCacheRange) {
  // The last accepted slot's window, code segment included, ends at the
  // caches' 2^kAddrBits limit; the slot after it and negative slots throw.
  const Addr limit = Addr{1} << SetAssocCache::kAddrBits;
  const AddressSpace last(AddressSpace::kMaxPrograms - 1);
  EXPECT_EQ(last.data_base() + (Addr{1} << AddressSpace::kWindowBits), limit);
  EXPECT_LT(last.code_base(), limit);
  EXPECT_THROW(AddressSpace{AddressSpace::kMaxPrograms}, std::invalid_argument);
  EXPECT_THROW(AddressSpace{-1}, std::invalid_argument);
}

TEST(MachineTest, AddressSpaceAlignment) {
  AddressSpace s(0);
  EXPECT_EQ(s.alloc(10, 64) % 64, 0u);
  EXPECT_EQ(s.alloc(1, 4096) % 4096, 0u);
  const Addr a = s.alloc(100, 64);
  const Addr b = s.alloc(1, 64);
  EXPECT_GE(b, a + 100);
}

}  // namespace
}  // namespace paxsim::sim
