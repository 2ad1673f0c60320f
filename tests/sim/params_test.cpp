// Unit tests for machine parameter scaling.
#include "sim/params.hpp"

#include <gtest/gtest.h>

#include <string>

namespace paxsim::sim {
namespace {

TEST(ParamsTest, DefaultsAreTheCalibratedMachine) {
  const MachineParams p;
  const Topology& t = p.topology;
  EXPECT_EQ(t.fingerprint(), Topology::paxville().fingerprint());
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.cores_per_package, 2);
  EXPECT_EQ(t.smt_per_core, 2);
  EXPECT_DOUBLE_EQ(p.clock_ghz, 2.8);
  EXPECT_EQ(p.trace_cache_uops, 12u * 1024);
  // Latency anchors from the paper's LMbench run.
  ASSERT_EQ(t.levels.size(), 2u);
  EXPECT_EQ(t.levels[0].geometry.size_bytes, 16u * 1024);
  EXPECT_EQ(t.levels[0].latency, 4u);   // 1.43 ns
  EXPECT_EQ(t.levels[1].geometry.size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(t.levels[1].latency, 30u);  // 10.6 ns
  EXPECT_EQ(t.levels[1].scope, SharingScope::kPerCore);
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_EQ(t.nodes[0].latency, 383u);  // 136.85 ns
  // Bandwidth anchors: 50.2 cycles per line on a package's FSB, 40.4/28.4
  // on the shared memory controller (memsys_test checks the GB/s).
  EXPECT_DOUBLE_EQ(t.link_read_occupancy, 50.2);
  EXPECT_DOUBLE_EQ(t.link_write_occupancy, 50.2);
  EXPECT_DOUBLE_EQ(t.nodes[0].read_occupancy, 40.4);
  EXPECT_DOUBLE_EQ(t.nodes[0].write_occupancy, 28.4);
}

TEST(ParamsTest, ScaledDividesCapacities) {
  const MachineParams p = MachineParams{}.scaled(16);
  EXPECT_EQ(p.topology.levels[0].geometry.size_bytes, 1024u);
  EXPECT_EQ(p.topology.levels[1].geometry.size_bytes, 128u * 1024);
  // 64 entries / 16 would be 4, but entry counts floor at the
  // associativity so the structure stays well-formed.
  EXPECT_EQ(p.dtlb_entries, p.dtlb_ways);
}

TEST(ParamsTest, ScaledScalesEachLevelExactlyOnce) {
  // Every preset, two- and three-level: each level's capacity is divided by
  // the factor once (16x, not 256x), its line size and ways untouched.
  for (const std::string& name : Topology::preset_names()) {
    MachineParams base;
    ASSERT_TRUE(Topology::resolve(name, &base.topology)) << name;
    const MachineParams p = base.scaled(16);
    ASSERT_EQ(p.topology.levels.size(), base.topology.levels.size()) << name;
    for (std::size_t i = 0; i < p.topology.levels.size(); ++i) {
      const CacheGeometry& g = p.topology.levels[i].geometry;
      const CacheGeometry& full = base.topology.levels[i].geometry;
      EXPECT_EQ(g.size_bytes * 16, full.size_bytes) << name << " level " << i;
      EXPECT_EQ(g.line_bytes, full.line_bytes) << name << " level " << i;
      EXPECT_EQ(g.ways, full.ways) << name << " level " << i;
      EXPECT_EQ(p.topology.levels[i].latency, base.topology.levels[i].latency)
          << name << " level " << i;
    }
  }
}

TEST(ParamsTest, ScaledPreservesTimingAndTopology) {
  const MachineParams p = MachineParams{}.scaled(16);
  const MachineParams base;
  EXPECT_EQ(p.topology.levels[0].latency, base.topology.levels[0].latency);
  EXPECT_EQ(p.topology.nodes[0].latency, base.topology.nodes[0].latency);
  EXPECT_DOUBLE_EQ(p.topology.link_read_occupancy,
                   base.topology.link_read_occupancy);
  EXPECT_DOUBLE_EQ(p.cycles_per_uop, base.cycles_per_uop);
  EXPECT_EQ(p.topology.packages, base.topology.packages);
  EXPECT_EQ(p.topology.levels[0].geometry.line_bytes,
            base.topology.levels[0].geometry.line_bytes);
}

TEST(ParamsTest, ScaleOneIsIdentity) {
  const MachineParams p = MachineParams{}.scaled(1.0);
  EXPECT_EQ(p.topology.fingerprint(), MachineParams{}.topology.fingerprint());
}

TEST(ParamsTest, ScaledStructuresStayWellFormed) {
  for (const double f : {2.0, 4.0, 16.0, 64.0, 1024.0}) {
    const MachineParams p = MachineParams{}.scaled(f);
    for (const TopoCacheLevel& lv : p.topology.levels) {
      const CacheGeometry& g = lv.geometry;
      EXPECT_GE(g.size_bytes, g.line_bytes * g.ways) << "scale " << f;
      EXPECT_TRUE(is_pow2(g.sets())) << "scale " << f;
    }
    EXPECT_TRUE(p.topology.validate_for_sim()) << "scale " << f;
    EXPECT_GE(p.dtlb_entries, 1u);
  }
}

TEST(ParamsTest, GeometryHelpers) {
  const CacheGeometry g{16 * 1024, 64, 8};
  EXPECT_EQ(g.lines(), 256u);
  EXPECT_EQ(g.sets(), 32u);
}

}  // namespace
}  // namespace paxsim::sim
