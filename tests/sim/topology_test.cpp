// Unit tests for sim::Topology: the presets must be valid machines, the
// JSON description must round-trip losslessly, malformed descriptions
// (zero-way caches, non-power-of-two lines, orphan NUMA nodes) must be
// rejected with a reason, and the derived arithmetic (flat/unflat,
// fingerprints) must be self-consistent.
#include <gtest/gtest.h>

#include <string>

#include "sim/topology.hpp"

namespace paxsim::sim {
namespace {

TEST(TopologyTest, PresetsAreValidAndSimulatable) {
  for (const std::string& name : Topology::preset_names()) {
    const auto topo = Topology::from_preset(name);
    ASSERT_TRUE(topo.has_value()) << name;
    std::string why;
    EXPECT_TRUE(topo->validate(&why)) << name << ": " << why;
    EXPECT_TRUE(topo->validate_for_sim(&why)) << name << ": " << why;
    EXPECT_EQ(topo->name, name);
  }
  EXPECT_FALSE(Topology::from_preset("itanium").has_value());
}

TEST(TopologyTest, PaxvilleMatchesTheCalibratedShape) {
  const Topology t = Topology::paxville();
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.cores_per_package, 2);
  EXPECT_EQ(t.smt_per_core, 2);
  EXPECT_EQ(t.total_cores(), 4);
  EXPECT_EQ(t.total_contexts(), 8);
  EXPECT_EQ(t.contexts_per_chip(), 4);
  ASSERT_EQ(t.levels.size(), 2u);
  EXPECT_EQ(t.levels[0].scope, SharingScope::kPerCore);
  EXPECT_EQ(t.levels[1].scope, SharingScope::kPerCore);
  EXPECT_FALSE(t.has_chip_shared_cache());
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_EQ(t.interconnect, Interconnect::kSharedFsb);
}

TEST(TopologyTest, FlatAndUnflatAreInverse) {
  for (const std::string& name : Topology::preset_names()) {
    const Topology t = *Topology::from_preset(name);
    for (int i = 0; i < t.total_contexts(); ++i) {
      const LogicalCpu cpu = t.unflat(i);
      EXPECT_EQ(t.flat(cpu), i) << name << " index " << i;
    }
  }
}

TEST(TopologyTest, FingerprintsDistinguishThePresets) {
  const auto& names = Topology::preset_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    for (std::size_t b = a + 1; b < names.size(); ++b) {
      EXPECT_NE(Topology::from_preset(names[a])->fingerprint(),
                Topology::from_preset(names[b])->fingerprint())
          << names[a] << " vs " << names[b];
    }
  }
}

TEST(TopologyTest, JsonRoundTripsEveryPreset) {
  for (const std::string& name : Topology::preset_names()) {
    const Topology t = *Topology::from_preset(name);
    Topology back;
    std::string why;
    ASSERT_TRUE(Topology::parse_json(t.to_json(), &back, &why))
        << name << ": " << why;
    // The fingerprint covers every simulation-relevant field, so equal
    // fingerprints (plus the name) mean the trip was lossless.
    EXPECT_EQ(back.fingerprint(), t.fingerprint()) << name;
    EXPECT_EQ(back.name, t.name);
    EXPECT_EQ(back.levels.size(), t.levels.size());
    EXPECT_EQ(back.nodes.size(), t.nodes.size());
  }
}

TEST(TopologyTest, IntegerFieldsMustBeIntegerLiterals) {
  const std::string doc = Topology::paxville().to_json();
  const std::string field = "\"packages\":2,";
  ASSERT_NE(doc.find(field), std::string::npos) << doc;
  const auto with_packages = [&](const std::string& value) {
    std::string text = doc;
    text.replace(text.find(field), field.size(),
                 "\"packages\":" + value + ",");
    return text;
  };
  Topology t;
  std::string why;
  ASSERT_TRUE(Topology::parse_json(with_packages("2"), &t, &why)) << why;
  for (const char* bad : {"2-5", "2e", "+2", "02"}) {
    EXPECT_FALSE(Topology::parse_json(with_packages(bad), &t, &why)) << bad;
    EXPECT_NE(why.find(" at byte "), std::string::npos) << bad << ": " << why;
  }
  for (const char* bad : {"2.0", "2e0", "-2", "4294967298"}) {
    EXPECT_FALSE(Topology::parse_json(with_packages(bad), &t, &why)) << bad;
    EXPECT_EQ(why, "field 'packages' must be an integer") << bad;
  }
  // A repeated member is refused, not resolved to either copy.
  EXPECT_FALSE(
      Topology::parse_json(with_packages("4,\"packages\":2"), &t, &why));
  EXPECT_NE(why.find("duplicate member \"packages\""), std::string::npos)
      << why;
}

TEST(TopologyTest, RejectsCapacityWhoseLineProductWraps) {
  Topology t = Topology::paxville();
  t.levels[0].geometry.line_bytes = std::size_t{1} << 52;
  t.levels[0].geometry.ways = 4096;  // line_bytes * ways wraps to 0
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  EXPECT_NE(why.find("capacity"), std::string::npos) << why;
}

TEST(TopologyTest, RejectsZeroWayCache) {
  Topology t = Topology::paxville();
  t.levels[0].geometry.ways = 0;
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  EXPECT_NE(why.find("way"), std::string::npos) << why;
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsNonPowerOfTwoLineSize) {
  Topology t = Topology::paxville();
  t.levels[1].geometry.line_bytes = 48;
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsOrphanNumaNode) {
  Topology t = Topology::numa16();
  t.nodes.push_back(MemNode{200, 20.0, 14.0, {}});  // homes no package
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsPackageHomedTwice) {
  Topology t = Topology::numa16();
  t.nodes[1].home_packages.push_back(0);  // package 0 now homed by 2 nodes
  std::string why;
  EXPECT_FALSE(t.validate(&why));
}

TEST(TopologyTest, ResolveAcceptsPresetsAndRejectsGarbage) {
  Topology t;
  std::string why;
  ASSERT_TRUE(Topology::resolve("woodcrest", &t, &why)) << why;
  EXPECT_EQ(t.fingerprint(), Topology::woodcrest().fingerprint());
  EXPECT_FALSE(Topology::resolve("/nonexistent/machine.json", &t, &why));
  EXPECT_NE(why.find("/nonexistent/machine.json"), std::string::npos) << why;
}

}  // namespace
}  // namespace paxsim::sim
